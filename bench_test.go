// Benchmarks regenerating every experiment of DESIGN.md's per-experiment
// index. The simulated experiments (E1–E6) report the paper's quantities —
// steps, distinct base objects, RMRs — as custom metrics (wall-clock time
// of a simulator is not the object of study); E8 benchmarks the native stm
// package for real throughput.
package progressivetm

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/stm"
	"repro/stm/mvstm"
	"repro/stm/norecstm"
)

var (
	e1Sizes  = []int{8, 32, 128}
	e3Procs  = []int{2, 4, 8, 16, 32}
	tmNames  = []string{"irtm", "tl2", "norec", "vrtm", "sgltm", "mvtm", "mvtm-gc", "dstm", "tml"}
	rmrLocks = []string{"lm:irtm", "lm:norec", "lm:sgltm", "tas", "ttas", "ticket", "anderson", "mcs", "clh", "bakery", "tournament", "llsc"}
)

// BenchmarkE1ValidationSteps regenerates experiment E1 (Theorem 3(1), the
// read-validation step-complexity figure): reader steps per committed
// read-only transaction of m reads, solo and against the Lemma-2 adversary.
func BenchmarkE1ValidationSteps(b *testing.B) {
	for _, name := range tmNames {
		for _, adversary := range []bool{false, true} {
			if adversary && name == "sgltm" {
				continue // blocking TM: the adversary execution does not exist
			}
			mode := "solo"
			if adversary {
				mode = "adversary"
			}
			for _, m := range e1Sizes {
				b.Run(fmt.Sprintf("tm=%s/mode=%s/m=%d", name, mode, m), func(b *testing.B) {
					var last exp.E1Row
					for i := 0; i < b.N; i++ {
						rows, err := exp.RunE1(name, []int{m}, adversary)
						if err != nil {
							b.Fatal(err)
						}
						last = rows[0]
					}
					b.ReportMetric(float64(last.TotalSteps), "steps/txn")
					b.ReportMetric(float64(last.LastReadSteps), "steps/lastread")
					b.ReportMetric(float64(last.Attempts), "attempts")
				})
			}
		}
	}
}

// BenchmarkE2SpaceLastRead regenerates experiment E2 (Theorem 3(2), the
// space figure): distinct base objects accessed during the m-th read and
// tryCommit.
func BenchmarkE2SpaceLastRead(b *testing.B) {
	for _, name := range tmNames {
		for _, m := range e1Sizes {
			b.Run(fmt.Sprintf("tm=%s/m=%d", name, m), func(b *testing.B) {
				var last exp.E2Row
				for i := 0; i < b.N; i++ {
					rows, err := exp.RunE2(name, []int{m}, false)
					if err != nil {
						b.Fatal(err)
					}
					last = rows[0]
				}
				b.ReportMetric(float64(last.DistinctObjs), "objects/lastread+tryC")
				b.ReportMetric(float64(last.Bound), "bound(m-1)")
			})
		}
	}
}

// BenchmarkE3RMR regenerates experiment E3 (Theorem 9, the RMR figure):
// total RMRs when n processes each acquire the lock k times, per cache
// model, for L(M) over each strongly progressive TM and for the classic
// spin-lock baselines.
func BenchmarkE3RMR(b *testing.B) {
	const k = 4
	for _, lock := range rmrLocks {
		for _, model := range []string{"cc-wt", "cc-wb", "dsm"} {
			for _, n := range e3Procs {
				b.Run(fmt.Sprintf("lock=%s/model=%s/n=%d", lock, model, n), func(b *testing.B) {
					var last exp.E3Row
					for i := 0; i < b.N; i++ {
						rows, err := exp.RunE3(lock, model, []int{n}, k, 42)
						if err != nil {
							b.Fatal(err)
						}
						last = rows[0]
						if last.Violations != 0 {
							b.Fatalf("mutual exclusion violated %d times", last.Violations)
						}
					}
					b.ReportMetric(float64(last.TotalRMRs), "rmrs/run")
					b.ReportMetric(last.PerAcq, "rmrs/acq")
					b.ReportMetric(last.NLogN, "nlogn-ref")
				})
			}
		}
	}
}

// BenchmarkE4Overhead regenerates experiment E4 (Theorem 7): the hand-off
// RMRs of L(M) per acquisition, which the theorem bounds by O(1).
func BenchmarkE4Overhead(b *testing.B) {
	const k = 4
	for _, lock := range []string{"lm:irtm", "lm:norec", "lm:sgltm"} {
		for _, model := range []string{"cc-wt", "cc-wb", "dsm"} {
			for _, n := range []int{2, 8, 32} {
				b.Run(fmt.Sprintf("lock=%s/model=%s/n=%d", lock, model, n), func(b *testing.B) {
					var last exp.E4Row
					for i := 0; i < b.N; i++ {
						rows, err := exp.RunE4(lock, model, []int{n}, k, 42)
						if err != nil {
							b.Fatal(err)
						}
						last = rows[0]
					}
					b.ReportMetric(float64(last.TMRMRs), "tm-rmrs")
					b.ReportMetric(float64(last.HandoffRMRs), "handoff-rmrs")
					b.ReportMetric(last.HandoffPerAcq, "handoff-rmrs/acq")
				})
			}
		}
	}
}

// BenchmarkE6Tightness regenerates experiment E6 (Section 6): irtm's exact
// match of the m(m−1)/2 + 3m closed form.
func BenchmarkE6Tightness(b *testing.B) {
	for _, m := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var last exp.E6Row
			for i := 0; i < b.N; i++ {
				rows, err := exp.RunE6([]int{m})
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0]
				if last.Measured != last.Formula {
					b.Fatalf("measured %d ≠ formula %d", last.Measured, last.Formula)
				}
			}
			b.ReportMetric(float64(last.Measured), "steps")
		})
	}
}

// BenchmarkE7Progress regenerates experiment E7: committed/aborted split of
// the randomized contention workload per TM.
func BenchmarkE7Progress(b *testing.B) {
	for _, name := range tmNames {
		b.Run("tm="+name, func(b *testing.B) {
			var last exp.E7Row
			for i := 0; i < b.N; i++ {
				row, err := exp.RunE7(name, exp.E7Config{
					Procs: 4, TxnsPerProc: 8, Objects: 4, OpsPerTxn: 3,
					WriteRatio: 0.5, Seed: int64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			total := float64(last.Committed + last.Aborted)
			b.ReportMetric(float64(last.Committed), "committed")
			b.ReportMetric(float64(last.Aborted), "aborted")
			if total > 0 {
				b.ReportMetric(float64(last.Aborted)/total, "abort-ratio")
			}
		})
	}
}

// BenchmarkE9Scenarios regenerates experiment E9 (the STAMP-style scenario
// suite) on the simulator: ordered-index scans racing point updates, and
// two-table reservations, per TM, reporting the paper's quantities as
// custom metrics.
func BenchmarkE9Scenarios(b *testing.B) {
	for _, name := range append(append([]string{}, tmNames...), "tl2:ext", "tl2:gv6+ext") {
		name := name
		b.Run("tm="+name, func(b *testing.B) {
			var last []exp.E9Row
			for i := 0; i < b.N; i++ {
				rows, err := exp.RunE9(name, exp.DefaultE9Config())
				if err != nil {
					b.Fatal(err)
				}
				last = rows
			}
			for _, r := range last {
				b.ReportMetric(r.AbortRatio, "abort-ratio-"+r.Scenario)
				b.ReportMetric(r.StepsPerTxn, "steps/txn-"+r.Scenario)
			}
		})
	}
}

// BenchmarkE9NativeIndexScan is the native half of the E9 ordered-index
// scenario: transactional range scans over an stm.OrderedMap racing point
// updates, the first long-read-set pointer workload the native engine's
// clock-strategy and extension knobs see. Compare the abort-ratio metric
// across the two pipeline sub-benchmarks: on BenchmarkVarContended the
// delta is visible, here it is structural.
func BenchmarkE9NativeIndexScan(b *testing.B) {
	const (
		nkeys   = 512
		scanLen = 32
	)
	run := func(b *testing.B, strat stm.ClockStrategy, ext bool) {
		stm.SetClockStrategy(strat)
		stm.SetTimestampExtension(ext)
		defer stm.SetTimestampExtension(true)
		defer stm.SetClockStrategy(stm.GV4)
		m := stm.NewOrderedMap[int]()
		keys := make([]string, nkeys)
		if err := stm.Atomically(func(tx *stm.Tx) error {
			for i := range keys {
				keys[i] = fmt.Sprintf("key%04d", i)
				m.Put(tx, keys[i], i)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		var seq atomic.Uint64
		before := stm.ReadStats()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := seq.Add(1)
				base := (i * 2654435761) % nkeys
				if i%8 == 0 {
					_ = stm.Atomically(func(tx *stm.Tx) error {
						v, _ := m.Get(tx, keys[base])
						m.Put(tx, keys[base], v+1)
						return nil
					})
				} else {
					from := keys[base]
					_ = stm.Atomically(func(tx *stm.Tx) error {
						n, s := 0, 0
						m.Range(tx, from, "", func(_ string, v int) bool {
							s += v
							n++
							return n < scanLen
						})
						_ = s
						return nil
					})
				}
			}
		})
		d := stm.ReadStats().Sub(before)
		b.ReportMetric(d.AbortRatio(), "abort-ratio")
		if d.Commits > 0 {
			b.ReportMetric(float64(d.Extensions)/float64(d.Commits), "extensions/txn")
		}
	}
	b.Run("pipeline=pr1-gv1-noext", func(b *testing.B) { run(b, stm.GV1, false) })
	b.Run("pipeline=gv4-ext", func(b *testing.B) { run(b, stm.GV4, true) })
}

// BenchmarkE9NativeReservation is the native half of the E9 reservation
// scenario: multi-key read-modify-write across two transactional maps
// (customers and resources) in one atomic step, plus occasional two-table
// audits — the composability workload (STAMP vacation's shape) running on
// the adoptable containers.
func BenchmarkE9NativeReservation(b *testing.B) {
	const (
		customers = 128
		resources = 128
		probes    = 4
	)
	cust := stm.NewMap[int](64)
	res := stm.NewOrderedMap[int]()
	ckeys := make([]string, customers)
	rkeys := make([]string, resources)
	if err := stm.Atomically(func(tx *stm.Tx) error {
		for i := range ckeys {
			ckeys[i] = fmt.Sprintf("cust%03d", i)
			cust.Put(tx, ckeys[i], 0)
		}
		for i := range rkeys {
			rkeys[i] = fmt.Sprintf("res%03d", i)
			res.Put(tx, rkeys[i], 0)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Uint64
	before := stm.ReadStats()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			c := ckeys[(i*2654435761)%customers]
			base := (i * 40503) % resources
			if i%16 == 0 {
				// Audit: ordered scan of a resource window plus the customer.
				_ = stm.Atomically(func(tx *stm.Tx) error {
					_, _ = cust.Get(tx, c)
					n := 0
					res.Range(tx, rkeys[base], "", func(string, int) bool {
						n++
						return n < 16
					})
					return nil
				})
				continue
			}
			// Reservation: probe an ordered run of resources, book the
			// least-loaded one, charge the customer — atomically.
			_ = stm.Atomically(func(tx *stm.Tx) error {
				best, bestLoad := "", int(^uint(0)>>1)
				for j := 0; j < probes; j++ {
					k := rkeys[(base+uint64(j))%resources]
					v, _ := res.Get(tx, k)
					if v < bestLoad {
						best, bestLoad = k, v
					}
				}
				res.Put(tx, best, bestLoad+1)
				bal, _ := cust.Get(tx, c)
				cust.Put(tx, c, bal+1)
				return nil
			})
		}
	})
	d := stm.ReadStats().Sub(before)
	b.ReportMetric(d.AbortRatio(), "abort-ratio")
	if d.Commits > 0 {
		b.ReportMetric(float64(d.Extensions)/float64(d.Commits), "extensions/txn")
	}
}

// BenchmarkE10Scenarios regenerates experiment E10 (read-mostly serving)
// on the simulator: Zipf hot-key gets and ordered scans racing a small
// writer pool, per TM, with the TL2 read-only mode ablated (declared vs
// undeclared read transactions).
func BenchmarkE10Scenarios(b *testing.B) {
	for _, name := range append(append([]string{}, tmNames...), "tl2:ext", "tl2:gv6+ext") {
		name := name
		for _, declare := range []bool{false, true} {
			declare := declare
			if declare && name != "tl2" && !strings.HasPrefix(name, "tl2:") {
				continue // only the TL2 family implements the RO hint; ro=true elsewhere would re-measure ro=false
			}
			b.Run(fmt.Sprintf("tm=%s/ro=%v", name, declare), func(b *testing.B) {
				cfg := exp.DefaultE10Config()
				cfg.DeclareRO = declare
				var last exp.E10Row
				for i := 0; i < b.N; i++ {
					row, err := exp.RunE10(name, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = row
				}
				b.ReportMetric(last.AbortRatio, "abort-ratio")
				b.ReportMetric(last.StepsPerTxn, "steps/txn")
			})
		}
	}
}

// BenchmarkE10NativeServing is the native read-mostly serving scenario —
// the workload the read-only fast path exists for: Zipf hot-key gets over
// an stm.Map and ordered scans over an stm.OrderedMap, racing a small
// writer pool that churns the same hot keys. The path=ro sub-benchmark
// runs every read transaction through AtomicallyRO (no read-set logging,
// no commit validation); path=default runs the identical workload through
// Atomically. Compare ns/op, allocs/op and the abort-ratio metric between
// the two, and the ro-commit-fraction metric for how much of the workload
// actually rode the fast path.
func BenchmarkE10NativeServing(b *testing.B) {
	const (
		mkeys   = 1024 // hash-map serving table
		okeys   = 512  // ordered index
		scanLen = 16
		tabBits = 13 // 8192-entry precomputed Zipf index table
	)
	// Inverse-transform Zipf (s = 1.07) sampled into a lookup table with a
	// deterministic LCG, so the hot loop costs one mask and one load.
	cdf := make([]float64, mkeys)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), 1.07)
		cdf[i] = total
	}
	zipf := make([]uint32, 1<<tabBits)
	rng := uint64(1)
	for i := range zipf {
		rng = rng*6364136223846793005 + 1442695040888963407
		u := float64(rng>>11) / (1 << 53) * total
		zipf[i] = uint32(sort.SearchFloat64s(cdf, u))
	}
	run := func(b *testing.B, readTx func(func(tx *stm.Tx) error) error) {
		m := stm.NewMap[int](256)
		om := stm.NewOrderedMap[int]()
		mk := make([]string, mkeys)
		ok := make([]string, okeys)
		if err := stm.Atomically(func(tx *stm.Tx) error {
			for i := range mk {
				mk[i] = fmt.Sprintf("key%04d", i)
				m.Put(tx, mk[i], i)
			}
			for i := range ok {
				ok[i] = fmt.Sprintf("okey%03d", i)
				om.Put(tx, ok[i], i)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		var seq atomic.Uint64
		before := stm.ReadStats()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := seq.Add(1)
				hot := int(zipf[(i*2654435761)&(1<<tabBits-1)])
				switch {
				case i%16 == 0:
					// Writer pool (~6%): point RMW on a hot key, alternating
					// between the serving map and the ordered index.
					if i%32 == 0 {
						_ = stm.Atomically(func(tx *stm.Tx) error {
							v, _ := m.Get(tx, mk[hot])
							m.Put(tx, mk[hot], v+1)
							return nil
						})
					} else {
						k := ok[hot%okeys]
						_ = stm.Atomically(func(tx *stm.Tx) error {
							v, _ := om.Get(tx, k)
							om.Put(tx, k, v+1)
							return nil
						})
					}
				case i%4 == 1:
					// Ordered scan (~23% of traffic): a consistent window over
					// the index, the long-read-set serving query.
					from := ok[hot%okeys]
					_ = readTx(func(tx *stm.Tx) error {
						n, s := 0, 0
						om.Range(tx, from, "", func(_ string, v int) bool {
							s += v
							n++
							return n < scanLen
						})
						_ = s
						return nil
					})
				default:
					// Hot-key multi-get (~70%): the dominant serving lookup.
					k1, k2, k3 := mk[hot], mk[int(zipf[(i*40503+1)&(1<<tabBits-1)])], mk[(hot+1)%mkeys]
					_ = readTx(func(tx *stm.Tx) error {
						s := 0
						for _, k := range [...]string{k1, k2, k3} {
							if v, present := m.Get(tx, k); present {
								s += v
							}
						}
						_ = s
						return nil
					})
				}
			}
		})
		d := stm.ReadStats().Sub(before)
		b.ReportMetric(d.AbortRatio(), "abort-ratio")
		if d.Commits > 0 {
			b.ReportMetric(float64(d.ROCommits)/float64(d.Commits), "ro-commit-fraction")
			b.ReportMetric(float64(d.Extensions)/float64(d.Commits), "extensions/txn")
		}
	}
	b.Run("path=default", func(b *testing.B) { run(b, stm.Atomically) })
	b.Run("path=ro", func(b *testing.B) { run(b, stm.AtomicallyRO) })
}

// BenchmarkE11Scenarios regenerates experiment E11 (the long-scan/HTAP
// scenario) on the simulator: long ordered scans and multi-key aggregates
// racing a writer pool, per TM, reporting read-side aborts, scan steps
// and live space as custom metrics — the time/space trade in one table.
func BenchmarkE11Scenarios(b *testing.B) {
	for _, name := range append(append([]string{}, tmNames...), "tl2:ext", "tl2:gv6+ext") {
		name := name
		b.Run("tm="+name, func(b *testing.B) {
			var last exp.E11Row
			for i := 0; i < b.N; i++ {
				row, err := exp.RunE11(name, exp.DefaultE11Config())
				if err != nil {
					b.Fatal(err)
				}
				last = row
			}
			b.ReportMetric(last.AbortRatio, "abort-ratio")
			b.ReportMetric(float64(last.ReadAborts), "read-aborts")
			b.ReportMetric(last.ScanSteps, "scan-steps/txn")
			b.ReportMetric(float64(last.Space), "space")
		})
	}
}

// BenchmarkE11NativeScan is the native half of E11 and the acceptance
// benchmark of the mvstm engine: long scans over a shared table racing a
// pool of background point writers, identical across three pipelines —
// stm Atomically (full read-set logging + commit validation), stm
// AtomicallyRO (zero-validation certified reads, abort/replay on churn),
// and mvstm AtomicallyRO (pinned-snapshot chain reads: no certification,
// no aborts, structurally). The read-aborts/op metric counts scan
// attempts beyond the first — exactly 0 for mvstm — and writer-commits/op
// the background writers' commits per scan (the engine's commit delta
// minus the scans, each of which commits once): the scanners and the
// writers share the Ps, so a cell's ns/op reads only beside how much
// writer work it ran alongside. The mvstm cells also report the GC
// evidence: versions reclaimed per scan, and chain-hwm-peak, the
// engine-lifetime chain-length high-water mark
// (mvstm.Stats.ChainHWM is a monotone process-wide maximum, so the value
// is the peak up to and including the cell, not a per-cell reading; its
// bound — a small multiple of the retention plus whatever growth pinned
// scans force — is the acceptance signal).
func BenchmarkE11NativeScan(b *testing.B) {
	const nkeys = 512
	runSTM := func(b *testing.B, scanLen, writers int, scanTx func(func(*stm.Tx) error) error) {
		vars := make([]*stm.Var[int], nkeys)
		for i := range vars {
			vars[i] = stm.NewVar(i)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := uint64(w)*2654435761 + 1
				for {
					select {
					case <-stop:
						return
					default:
					}
					rng = rng*6364136223846793005 + 1442695040888963407
					v := vars[rng%nkeys]
					_ = stm.Atomically(func(tx *stm.Tx) error {
						v.Set(tx, v.Get(tx)+1)
						return nil
					})
				}
			}()
		}
		var attempts, scans atomic.Uint64
		before := stm.ReadStats()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var n uint64
			for pb.Next() {
				n++
				start := int((n * 2654435761) % nkeys)
				_ = scanTx(func(tx *stm.Tx) error {
					attempts.Add(1)
					s := 0
					for j := 0; j < scanLen; j++ {
						s += vars[(start+j)%nkeys].Get(tx)
					}
					_ = s
					return nil
				})
			}
			scans.Add(n)
		})
		b.StopTimer()
		d := stm.ReadStats().Sub(before)
		close(stop)
		wg.Wait()
		b.ReportMetric(float64(attempts.Load()-scans.Load())/float64(scans.Load()), "read-aborts/op")
		b.ReportMetric(float64(d.Commits-scans.Load())/float64(scans.Load()), "writer-commits/op")
	}
	runMVStm := func(b *testing.B, scanLen, writers int) {
		vars := make([]*mvstm.Var[int], nkeys)
		for i := range vars {
			vars[i] = mvstm.NewVar(i)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := uint64(w)*2654435761 + 1
				for {
					select {
					case <-stop:
						return
					default:
					}
					rng = rng*6364136223846793005 + 1442695040888963407
					v := vars[rng%nkeys]
					_ = mvstm.Atomically(func(tx *mvstm.Tx) error {
						v.Set(tx, v.Get(tx)+1)
						return nil
					})
				}
			}()
		}
		var attempts, scans atomic.Uint64
		before := mvstm.ReadStats()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var n uint64
			for pb.Next() {
				n++
				start := int((n * 2654435761) % nkeys)
				_ = mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
					attempts.Add(1)
					s := 0
					for j := 0; j < scanLen; j++ {
						s += vars[(start+j)%nkeys].Get(tx)
					}
					_ = s
					return nil
				})
			}
			scans.Add(n)
		})
		b.StopTimer()
		d := mvstm.ReadStats().Sub(before)
		close(stop)
		wg.Wait()
		b.ReportMetric(float64(attempts.Load()-scans.Load())/float64(scans.Load()), "read-aborts/op")
		b.ReportMetric(float64(d.Commits-scans.Load())/float64(scans.Load()), "writer-commits/op")
		b.ReportMetric(float64(d.VersionsReclaimed)/float64(scans.Load()), "reclaimed/op")
		b.ReportMetric(float64(d.ChainHWM), "chain-hwm-peak")
		b.ReportMetric(d.MeanChainWalk(), "chain-walk/read")
	}
	for _, scanLen := range []int{64, 256} {
		for _, writers := range []int{1, 4} {
			prefix := fmt.Sprintf("scan=%d/writers=%d/", scanLen, writers)
			b.Run(prefix+"engine=stm/path=default", func(b *testing.B) { runSTM(b, scanLen, writers, stm.Atomically) })
			b.Run(prefix+"engine=stm/path=ro", func(b *testing.B) { runSTM(b, scanLen, writers, stm.AtomicallyRO) })
			b.Run(prefix+"engine=mvstm/path=snapshot", func(b *testing.B) { runMVStm(b, scanLen, writers) })
		}
	}
}

// BenchmarkE8NativeCounter measures the native stm package: contended
// read-modify-write transactions (the workload whose validation cost
// Theorem 3 bounds).
func BenchmarkE8NativeCounter(b *testing.B) {
	ctr := stm.NewVar(0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = stm.Atomically(func(tx *stm.Tx) error {
				ctr.Set(tx, ctr.Get(tx)+1)
				return nil
			})
		}
	})
}

// BenchmarkE8NativeReadOnly measures invisible-read scaling: read-only
// transactions over disjoint-ish hot data.
func BenchmarkE8NativeReadOnly(b *testing.B) {
	const vars = 64
	vs := make([]*stm.Var[int], vars)
	for i := range vs {
		vs[i] = stm.NewVar(i)
	}
	for _, m := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("readset=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					_ = stm.Atomically(func(tx *stm.Tx) error {
						s := 0
						for i := 0; i < m; i++ {
							s += vs[i].Get(tx)
						}
						_ = s
						return nil
					})
				}
			})
		})
	}
}

// BenchmarkE8NativeBank measures mixed transfer transactions across many
// accounts (low conflict probability, the DAP-friendly regime).
func BenchmarkE8NativeBank(b *testing.B) {
	const accounts = 256
	vs := make([]*stm.Var[int], accounts)
	for i := range vs {
		vs[i] = stm.NewVar(1000)
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			from := vs[(i*2654435761)%accounts]
			to := vs[(i*40503+17)%accounts]
			if from == to {
				continue
			}
			_ = stm.Atomically(func(tx *stm.Tx) error {
				f := from.Get(tx)
				from.Set(tx, f-1)
				to.Set(tx, to.Get(tx)+1)
				return nil
			})
		}
	})
}

// BenchmarkE8ClockStrategies is the commit-pipeline ablation: identical
// contended workloads under each clock strategy × timestamp-extension
// configuration. strategy=gv1/ext=off is the PR 1 pipeline (unconditional
// clock.Add, abort on stale read version); strategy=gv4/ext=on is the
// current default. Custom metrics report the abort ratio and extensions
// per committed transaction from the engine's striped counters.
func BenchmarkE8ClockStrategies(b *testing.B) {
	type variant struct {
		name  string
		strat stm.ClockStrategy
		ext   bool
	}
	variants := []variant{
		{"strategy=gv1/ext=off", stm.GV1, false},
		{"strategy=gv1/ext=on", stm.GV1, true},
		{"strategy=gv4/ext=on", stm.GV4, true},
		{"strategy=gv6/ext=on", stm.GV6, true},
		{"strategy=gv7/ext=on", stm.GV7, true},
		{"strategy=tictoc", stm.TicToc, true},
	}
	// Enable-before-select: GV6/GV7 refuse selection while extension is
	// off. Every cell creates its Vars after selecting the pipeline, which
	// is what makes the tictoc rows safe (TicToc reinterprets the lock-word
	// payload and must never see versioned payloads).
	set := func(v variant) {
		if v.ext {
			stm.SetTimestampExtension(true)
			stm.SetClockStrategy(v.strat)
		} else {
			stm.SetClockStrategy(v.strat)
			stm.SetTimestampExtension(v.ext)
		}
	}
	defer stm.SetClockStrategy(stm.GV4)
	defer stm.SetTimestampExtension(true)
	for _, v := range variants {
		b.Run(v.name+"/workload=counter", func(b *testing.B) {
			set(v)
			ctr := stm.NewVar(0)
			before := stm.ReadStats()
			b.ReportAllocs()
			b.SetParallelism(4)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					_ = stm.Atomically(func(tx *stm.Tx) error {
						ctr.Set(tx, ctr.Get(tx)+1)
						return nil
					})
				}
			})
			d := stm.ReadStats().Sub(before)
			b.ReportMetric(d.AbortRatio(), "abort-ratio")
			if d.Commits > 0 {
				b.ReportMetric(float64(d.Extensions)/float64(d.Commits), "extensions/txn")
			}
		})
		b.Run(v.name+"/workload=bank", func(b *testing.B) {
			set(v)
			const accounts = 256
			vs := make([]*stm.Var[int], accounts)
			for i := range vs {
				vs[i] = stm.NewVar(1000)
			}
			var seq atomic.Uint64
			before := stm.ReadStats()
			b.ReportAllocs()
			b.SetParallelism(4)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					from := vs[(i*2654435761)%accounts]
					to := vs[(i*40503+17)%accounts]
					if from == to {
						continue
					}
					if i%10 == 0 {
						_ = stm.Atomically(func(tx *stm.Tx) error {
							s := 0
							for j := uint64(0); j < 8; j++ {
								s += vs[(i+j)%accounts].Get(tx)
							}
							_ = s
							return nil
						})
					} else {
						_ = stm.Atomically(func(tx *stm.Tx) error {
							f := from.Get(tx)
							from.Set(tx, f-1)
							to.Set(tx, to.Get(tx)+1)
							return nil
						})
					}
				}
			})
			d := stm.ReadStats().Sub(before)
			b.ReportMetric(d.AbortRatio(), "abort-ratio")
			if d.Commits > 0 {
				b.ReportMetric(float64(d.Extensions)/float64(d.Commits), "extensions/txn")
			}
		})
	}
}

// BenchmarkE8EngineCompare runs identical workloads on the two native
// engines (TL2 in repro/stm, NOrec in repro/stm/norecstm) — the ablation of
// DESIGN.md's E8 row carried into native code: same invisible-read scaling
// for read-only work, different write-side costs (per-variable locks vs.
// one global sequence lock).
func BenchmarkE8EngineCompare(b *testing.B) {
	b.Run("engine=tl2/readonly", func(b *testing.B) {
		vars := make([]*stm.Var[int], 16)
		for i := range vars {
			vars[i] = stm.NewVar(i)
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				_ = stm.Atomically(func(tx *stm.Tx) error {
					s := 0
					for _, v := range vars {
						s += v.Get(tx)
					}
					_ = s
					return nil
				})
			}
		})
	})
	b.Run("engine=norec/readonly", func(b *testing.B) {
		vars := make([]*norecstm.Var[int], 16)
		for i := range vars {
			vars[i] = norecstm.NewVar(i)
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
					s := 0
					for _, v := range vars {
						s += v.Get(tx)
					}
					_ = s
					return nil
				})
			}
		})
	})
	b.Run("engine=tl2/disjoint-writes", func(b *testing.B) {
		vars := make([]*stm.Var[int], 64)
		for i := range vars {
			vars[i] = stm.NewVar(0)
		}
		var seq atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				v := vars[seq.Add(1)%64]
				_ = stm.Atomically(func(tx *stm.Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				})
			}
		})
	})
	b.Run("engine=norec/disjoint-writes", func(b *testing.B) {
		vars := make([]*norecstm.Var[int], 64)
		for i := range vars {
			vars[i] = norecstm.NewVar(0)
		}
		var seq atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				v := vars[seq.Add(1)%64]
				_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				})
			}
		})
	})
}
