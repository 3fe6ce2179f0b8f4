package exp

import (
	"math"
	"sort"
	"strings"

	"repro/internal/memory"
	"repro/internal/tm"
)

// E10 is the read-mostly serving scenario: the workload shape of a
// production read-path (a cache/index tier answering point lookups and
// small ordered scans) with a small writer pool churning underneath. It is
// the experiment the read-only fast path exists for — the paper's
// progressive-TM cost bounds are dominated by what readers pay, and a
// serving tier is almost all readers:
//
//   - Hot-key gets: most transactions read a handful of Zipf-distributed
//     keys (a few hot keys absorb most traffic, the classic serving skew).
//   - Ordered scans: a minority of read transactions scan a contiguous
//     window of ScanLen t-objects (the simulator's stand-in for an ordered
//     Range over stm.OrderedMap).
//   - Writers: a WriteRatio fraction do a Zipf-keyed point
//     read-modify-write, so the hot keys the readers love are exactly the
//     ones that move.
//
// With DeclareRO set, read transactions are declared read-only via
// tm.ReadOnlyHinter, so TMs with a zero-validation RO mode (TL2 and its
// clock variants) run them with no read-set logging and extension
// restricted to the empty-read-set re-begin. The ablation against the
// undeclared rows isolates what the RO mode trades: under tl2:ext a
// mid-scan commit costs an O(|read set|) revalidation, under RO mode it
// costs an abort and a replay. The native counterparts (BenchmarkE10* at
// the repository root, BenchmarkROFastPath in stm) measure the same shape
// for wall-clock time and allocations, where the RO path's missing
// read-set bookkeeping actually shows up.
type E10Row struct {
	TM          string
	ROHint      bool // read transactions were declared read-only (and the TM applied it)
	Procs       int
	Commits     int
	Aborts      int
	AbortRatio  float64
	TotalSteps  uint64
	StepsPerTxn float64
}

// E10Config parameterizes the read-mostly serving scenario.
type E10Config struct {
	Procs       int
	TxnsPerProc int     // committed transactions each process must complete
	Objects     int     // t-objects (keys)
	GetKeys     int     // keys read by a hot-key get transaction
	ScanLen     int     // contiguous objects per ordered scan
	ZipfS       float64 // Zipf skew of the hot-key distribution (> 1)
	WriteRatio  float64 // fraction of transactions that are point RMWs
	ScanRatio   float64 // fraction of *read* transactions that are scans
	DeclareRO   bool    // declare read transactions via tm.ReadOnlyHinter
	Seed        int64
}

// DefaultE10Config is the configuration used by benchmarks and tmbench.
func DefaultE10Config() E10Config {
	return E10Config{
		Procs:       8,
		TxnsPerProc: 12,
		Objects:     32,
		GetKeys:     3,
		ScanLen:     8,
		ZipfS:       1.1,
		WriteRatio:  0.1,
		ScanRatio:   0.25,
		DeclareRO:   true,
		Seed:        42,
	}
}

// zipfTable is a precomputed Zipf CDF over [0, n) for inverse-transform
// sampling with the harness's deterministic splitMix rng.
type zipfTable []float64

func newZipfTable(n int, s float64) zipfTable {
	cdf := make(zipfTable, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// sample draws a Zipf-distributed index from rng by inverse transform.
func (z zipfTable) sample(rng *splitMix) int {
	u := float64(rng.next()>>11) / (1 << 53)
	return min(sort.SearchFloat64s(z, u), len(z)-1)
}

// RunE10 runs the read-mostly serving scenario for one TM. As in E5/E9,
// every process retries each transaction until it commits, so Commits is
// fixed by the config and Aborts measures wasted attempts. The returned
// row's ROHint reports whether the read-only declaration was both
// requested and actually applied by the TM.
func RunE10(name string, cfg E10Config) (E10Row, error) {
	r, err := runServing("e10", name, servingMix{
		procs: cfg.Procs, txnsPerProc: cfg.TxnsPerProc, objects: cfg.Objects,
		getKeys: cfg.GetKeys, scanLen: cfg.ScanLen, writeRatio: cfg.WriteRatio, scanRatio: cfg.ScanRatio,
		declareRO: cfg.DeclareRO, seed: cfg.Seed, seedMul: 69621,
		pick: newZipfTable(cfg.Objects, cfg.ZipfS).sample, // hot keys: readers and writers collide on them
	})
	if err != nil {
		return E10Row{}, err
	}
	all := r.all()
	return E10Row{
		TM: name, ROHint: r.roHint, Procs: cfg.Procs,
		Commits: all.commits, Aborts: all.aborts, AbortRatio: all.abortRatio(),
		TotalSteps: r.steps, StepsPerTxn: perCommit(r.steps, all.commits),
	}, nil
}

// servingMix is the workload E10 and E11 share: a pool of point-RMW
// writers under read transactions that are either an ordered scan of a
// contiguous window or a multi-key get, every process replaying each
// pre-drawn transaction until it commits. The experiments differ in the
// sizes, in how keys are picked, and in what they report.
type servingMix struct {
	procs, txnsPerProc, objects int
	getKeys, scanLen            int
	writeRatio, scanRatio       float64 // scanRatio is of the read transactions
	declareRO                   bool
	seed                        int64
	seedMul                     uint64
	pick                        func(rng *splitMix) int // the key distribution
}

// servingResult is a serving run's outcome by transaction class.
type servingResult struct {
	writes, scans, gets tally
	roHint              bool // a read transaction declared itself read-only and the TM applied it
	steps               uint64
	space               int
}

func (r servingResult) all() tally {
	return tally{
		commits: r.writes.commits + r.scans.commits + r.gets.commits,
		aborts:  r.writes.aborts + r.scans.aborts + r.gets.aborts,
	}
}

func runServing(label, name string, m servingMix) (servingResult, error) {
	sc, err := newScenario(label+" "+name, name, m.procs, m.objects, m.seed, false)
	if err != nil {
		return servingResult{}, err
	}
	var r servingResult
	for i := 0; i < m.procs; i++ {
		sc.spawn(i, m.seedMul, func(p *memory.Proc, rng *splitMix) {
			for n := 0; n < m.txnsPerProc; n++ {
				// Pre-draw the transaction: the closures touch only drawn
				// indices, so a retry replays it exactly.
				var class *tally
				var body func(tm.Txn) error
				switch roll := float64(rng.next()%1000) / 1000; {
				case roll < m.writeRatio:
					x := m.pick(rng)
					class, body = &r.writes, rmw(x, rng.next()%100)
				case roll < m.writeRatio+(1-m.writeRatio)*m.scanRatio:
					class, body = &r.scans, readAll(window(m.pick(rng), m.scanLen, m.objects))
				default:
					keys := make([]int, m.getKeys)
					for j := range keys {
						keys[j] = m.pick(rng)
					}
					class, body = &r.gets, readAll(keys)
				}
				if m.declareRO && class != &r.writes {
					read := body
					body = func(tx tm.Txn) error {
						if tm.DeclareReadOnly(tx) {
							r.roHint = true
						}
						return read(tx)
					}
				}
				sc.retry(p, class, nil, body)
			}
		})
	}
	if err := sc.run(); err != nil {
		return servingResult{}, err
	}
	r.steps, r.space = sc.mem.TotalSteps(), sc.space()
	return r, nil
}

func init() {
	registerPerTM(Experiment{Name: "e10", Artifact: "Read-mostly serving", Native: "BenchmarkE10Native", Uses: "-tms -seed",
		Title: "E10 — read-mostly serving: Zipf hot-key gets + ordered scans vs a writer pool"},
		withVariants, []string{"tm", "ro", "commits", "aborts", "abort-ratio", "steps/txn"},
		func(t *Table, p Params, name string) error {
			cfg := DefaultE10Config()
			cfg.Seed = p.Seed
			// The TL2 family (explicitly requested variants included) is
			// swept undeclared and declared, so the table shows what the
			// zero-validation RO mode trades: extension revalidations for
			// abort/replay.
			declare := []bool{false}
			if name == "tl2" || strings.HasPrefix(name, "tl2:") {
				declare = []bool{false, true}
			}
			for _, cfg.DeclareRO = range declare {
				row, err := RunE10(name, cfg)
				if err != nil {
					return err
				}
				t.Add(row.TM, row.ROHint, row.Commits, row.Aborts, row.AbortRatio, row.StepsPerTxn)
			}
			return nil
		})
}
