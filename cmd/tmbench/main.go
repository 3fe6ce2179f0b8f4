// Command tmbench regenerates the experiment tables of DESIGN.md's
// per-experiment index from the command line.
//
// Usage:
//
//	tmbench -exp e1 [-tms irtm,tl2] [-ms 4,8,16,32] [-adversary]
//	tmbench -exp e2 [-tms irtm,tl2] [-ms 4,8,16,32] [-adversary]
//	tmbench -exp e3 [-locks lm:irtm,mcs] [-models cc-wb,dsm] [-ns 2,4,8] [-k 4] [-seed 42]
//	tmbench -exp e4 [-locks lm:irtm] [-models cc-wb] [-ns 2,8,32] [-k 4]
//	tmbench -exp e6 [-ms 4,8,16,32]
//	tmbench -exp e7 [-tms irtm] [-seed 42]
//	tmbench -exp e8 [-workers 8] [-dur 100ms] [-clock gv1,gv4+ext,gv7+ext,tictoc]
//	tmbench -exp e9 [-tms irtm,tl2] [-seed 42]
//	tmbench -exp e10 [-tms irtm,tl2] [-seed 42]
//	tmbench -exp e11 [-tms irtm,tl2,mvtm,mvtm-gc] [-seed 42]
//	tmbench -exp e12 [-tms irtm,tl2,mvtm-gc] [-seed 42]
//	tmbench -exp e13 [-tms irtm,tl2,mvtm] [-seed 42]
//	tmbench -exp e14 [-tms irtm,tl2,dstm] [-seed 42]
//	tmbench -exp e15 [-tms irtm,tl2,sgltm] [-seed 42]
//	tmbench -exp all        # every table with default parameters
//
// An unknown -exp or -clock value exits non-zero and lists the valid
// names.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	ptm "repro"
	"repro/internal/enginekit"
	"repro/internal/exp"
	"repro/stm"
	"repro/stm/norecstm"
)

func main() {
	var (
		expName   = flag.String("exp", "all", "experiment: e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, or all")
		workers   = flag.Int("workers", 8, "goroutines for the native e8 ablation")
		dur       = flag.Duration("dur", 100*time.Millisecond, "wall-clock duration per e8 cell")
		clocks    = flag.String("clock", strings.Join(validClockSpecs, ","), "comma-separated native commit-pipeline specs for e8")
		tms       = flag.String("tms", strings.Join(ptm.Algorithms(), ","), "comma-separated TM algorithms")
		locks     = flag.String("locks", strings.Join(ptm.Locks(), ","), "comma-separated lock algorithms")
		models    = flag.String("models", strings.Join(ptm.CacheModels(), ","), "comma-separated cache models")
		ms        = flag.String("ms", "4,8,16,32,64", "comma-separated read-set sizes")
		ns        = flag.String("ns", "2,4,8,16,32", "comma-separated process counts")
		k         = flag.Int("k", 4, "acquisitions per process (e3/e4)")
		seed      = flag.Int64("seed", 42, "scheduling seed")
		adversary = flag.Bool("adversary", false, "run e1/e2 against the Lemma-2 adversary")
	)
	flag.Parse()

	cfg := config{
		tms:     split(*tms),
		locks:   split(*locks),
		models:  split(*models),
		ms:      ints(*ms),
		ns:      ints(*ns),
		k:       *k,
		seed:    *seed,
		adv:     *adversary,
		workers: *workers,
		dur:     *dur,
		clocks:  split(*clocks),
	}
	// Fail fast on a bad -clock spec regardless of -exp: a fat-fingered
	// pipeline name must not surface only after the earlier tables ran.
	for _, spec := range cfg.clocks {
		if _, ok := e8Variants[spec]; !ok {
			fmt.Fprintf(os.Stderr, "tmbench: unknown clock spec %q (valid: %s)\n",
				spec, strings.Join(validClockSpecs, ", "))
			os.Exit(1)
		}
	}
	var err error
	switch *expName {
	case "e1":
		err = runE1(cfg)
	case "e2":
		err = runE2(cfg)
	case "e3":
		err = runE3(cfg)
	case "e4":
		err = runE4(cfg)
	case "e5":
		err = runE5(cfg)
	case "e6":
		err = runE6(cfg)
	case "e7":
		err = runE7(cfg)
	case "e8":
		err = runE8(cfg)
	case "e9":
		err = runE9(cfg)
	case "e10":
		err = runE10(cfg)
	case "e11":
		err = runE11(cfg)
	case "e12":
		err = runE12(cfg)
	case "e13":
		err = runE13(cfg)
	case "e14":
		err = runE14(cfg)
	case "e15":
		err = runE15(cfg)
	case "class":
		err = runClass(cfg)
	case "mc":
		err = runMC(cfg)
	case "all":
		solo, adv := cfg, cfg
		solo.adv, adv.adv = false, true
		steps := []func() error{
			func() error { return runClass(cfg) },
			func() error { return runE1(solo) },
			func() error { return runE1(adv) },
			func() error { return runE2(solo) },
			func() error { return runE2(adv) },
			func() error { return runE3(cfg) },
			func() error { return runE4(cfg) },
			func() error { return runE5(cfg) },
			func() error { return runE6(cfg) },
			func() error { return runE7(cfg) },
			func() error { return runE8(cfg) },
			func() error { return runE9(cfg) },
			func() error { return runE10(cfg) },
			func() error { return runE11(cfg) },
			func() error { return runE12(cfg) },
			func() error { return runE13(cfg) },
			func() error { return runE14(cfg) },
			func() error { return runE15(cfg) },
		}
		for _, f := range steps {
			if err = f(); err != nil {
				break
			}
		}
	default:
		// Exit non-zero with the valid list: a fat-fingered -exp must not
		// look like a successful (empty) run.
		err = fmt.Errorf("unknown experiment %q (valid: %s)", *expName, strings.Join(validExperiments, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmbench:", err)
		os.Exit(1)
	}
}

// validExperiments lists every -exp value main dispatches on, for the
// unknown-experiment error.
var validExperiments = []string{
	"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
	"e13", "e14", "e15",
	"class", "mc", "all",
}

type config struct {
	tms, locks, models []string
	ms, ns             []int
	k                  int
	seed               int64
	adv                bool
	workers            int
	dur                time.Duration
	clocks             []string
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func ints(s string) []int {
	var out []int
	for _, p := range split(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: bad integer %q\n", p)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func modeLabel(adv bool) string {
	if adv {
		return "adversary"
	}
	return "solo"
}

// expandTL2 expands a requested TM list for the clock-ablation tables:
// "tl2" pulls in the full clock-variant sweep at its position, and
// duplicates (e.g. a variant requested explicitly alongside "tl2")
// collapse. Shared by the E5/E9/E10 sweeps so the variant axis cannot
// drift between tables.
func expandTL2(tms []string) []string {
	seen := map[string]bool{}
	var out []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, name := range tms {
		add(name)
		if name == "tl2" {
			for _, variant := range ptm.ClockVariants() {
				add(variant)
			}
		}
	}
	return out
}

func runE1(c config) error {
	t := ptm.Table{
		Title:  fmt.Sprintf("E1 (Theorem 3(1)) — reader steps, %s", modeLabel(c.adv)),
		Header: []string{"tm", "m", "attempts", "total-steps", "last-read-steps", "m(m-1)/2"},
	}
	for _, name := range c.tms {
		rows, err := ptm.RunE1(name, c.ms, c.adv)
		if err != nil {
			if c.adv {
				fmt.Fprintf(os.Stderr, "tmbench: skipping %s: %v\n", name, err)
				continue
			}
			return err
		}
		for _, r := range rows {
			t.Add(r.TM, r.M, r.Attempts, r.TotalSteps, r.LastReadSteps, uint64(r.M)*uint64(r.M-1)/2)
		}
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

func runE2(c config) error {
	t := ptm.Table{
		Title:  fmt.Sprintf("E2 (Theorem 3(2)) — distinct base objects in last read + tryC, %s", modeLabel(c.adv)),
		Header: []string{"tm", "m", "distinct-objects", "bound(m-1)"},
	}
	for _, name := range c.tms {
		rows, err := ptm.RunE2(name, c.ms, c.adv)
		if err != nil {
			if c.adv {
				fmt.Fprintf(os.Stderr, "tmbench: skipping %s: %v\n", name, err)
				continue
			}
			return err
		}
		for _, r := range rows {
			t.Add(r.TM, r.M, r.DistinctObjs, r.Bound)
		}
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

func runE3(c config) error {
	for _, model := range c.models {
		t := ptm.Table{
			Title:  fmt.Sprintf("E3 (Theorem 9) — RMRs, model=%s, k=%d", model, c.k),
			Header: []string{"lock", "n", "total-rmrs", "rmrs/acq", "nk·log2(n)", "violations"},
		}
		for _, lock := range c.locks {
			rows, err := ptm.RunE3(lock, model, c.ns, c.k, c.seed)
			if err != nil {
				return err
			}
			for _, r := range rows {
				t.Add(r.Lock, r.N, r.TotalRMRs, r.PerAcq, r.NLogN, r.Violations)
			}
		}
		ptm.PrintTable(os.Stdout, &t)
	}
	return nil
}

func runE4(c config) error {
	for _, model := range c.models {
		t := ptm.Table{
			Title:  fmt.Sprintf("E4 (Theorem 7) — L(M) RMR split, model=%s, k=%d", model, c.k),
			Header: []string{"lock", "n", "tm-rmrs", "handoff-rmrs", "handoff-rmrs/acq"},
		}
		for _, lock := range c.locks {
			if !strings.HasPrefix(lock, "lm:") {
				continue
			}
			rows, err := ptm.RunE4(lock, model, c.ns, c.k, c.seed)
			if err != nil {
				return err
			}
			for _, r := range rows {
				t.Add(r.Lock, r.N, r.TMRMRs, r.HandoffRMRs, r.HandoffPerAcq)
			}
		}
		ptm.PrintTable(os.Stdout, &t)
	}
	return nil
}

// runMC runs the exhaustive (bounded-preemption) mutual-exclusion model
// check for each lock, two processes, one acquisition each.
func runMC(c config) error {
	t := ptm.Table{
		Title:  "MC — exhaustive mutual-exclusion check (n=2, k=1, ≤2 preemptions)",
		Header: []string{"lock", "runs", "truncated", "exhausted", "violation"},
	}
	for _, lockName := range c.locks {
		lockName := lockName
		build := func() (*ptm.Scheduler, func() error) {
			mem := ptm.NewMemory(2, "")
			lock, err := ptm.NewLock(lockName, mem)
			if err != nil {
				panic(err)
			}
			scratch := mem.Alloc("cs.scratch")
			inCS := 0
			s := ptm.NewScheduler(mem)
			for i := 0; i < 2; i++ {
				s.Go(i, func(p *ptm.Proc) {
					lock.Enter(p)
					inCS++
					if inCS > 1 {
						panic("mutual exclusion violated")
					}
					p.Read(scratch)
					inCS--
					lock.Exit(p)
				})
			}
			return s, func() error { return nil }
		}
		res, err := ptm.Explore(build, ptm.ExploreOpts{MaxPreemptions: 2, MaxRuns: 60_000})
		violation := "none"
		if err != nil {
			violation = err.Error()
			if len(violation) > 48 {
				violation = violation[:48] + "…"
			}
		}
		t.Add(lockName, res.Runs, res.Truncated, res.Exhausted, violation)
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

func runClass(c config) error {
	t := ptm.Table{
		Title: "TM taxonomy — measured class membership (✗ = counterexample found)",
		Header: []string{"tm", "weak-dap", "inv-reads", "weak-inv-reads",
			"progressive", "strong-1item", "opaque", "declared"},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "✗"
	}
	for _, name := range c.tms {
		row, err := exp.Classify(name, 6)
		if err != nil {
			return err
		}
		t.Add(row.TM, mark(row.WeakDAP), mark(row.InvisibleReads), mark(row.WeakInvisibleReads),
			mark(row.Progressive), mark(row.StrongSingleItem), mark(row.Opaque), row.Declared.String())
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

func runE5(c config) error {
	t := ptm.Table{
		Title:  "E5 — contention sweep: abort ratio and steps per committed txn",
		Header: []string{"tm", "write-ratio", "commits", "aborts", "abort-ratio", "steps/txn", "base-objects"},
	}
	cfg := exp.DefaultE5Config()
	cfg.Seed = c.seed
	// expandTL2 inserts the clock-strategy axis (the GV4/GV6 / timestamp-
	// extension variants) right after the base tl2 row.
	for _, name := range expandTL2(c.tms) {
		rows, err := exp.RunE5(name, cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			t.Add(r.TM, r.WriteRatio, r.Commits, r.Aborts, r.AbortRatio, r.StepsPerTxn, r.Space)
		}
		if name == "dstm" || name == "vrtm" {
			// The contention-management ablation: the same sweep with
			// exponential backoff between retries.
			bcfg := cfg
			bcfg.Backoff = true
			rows, err := exp.RunE5(name, bcfg)
			if err != nil {
				return err
			}
			for _, r := range rows {
				t.Add(r.TM+"+backoff", r.WriteRatio, r.Commits, r.Aborts, r.AbortRatio, r.StepsPerTxn, r.Space)
			}
		}
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

// e8Variant is one native commit-pipeline configuration the -clock flag
// can request for E8.
type e8Variant struct {
	label string // table row label
	strat stm.ClockStrategy
	ext   bool
}

// validClockSpecs lists every -clock spec, in default sweep order;
// e8Variants resolves each to its engine configuration. The gv1 row with
// extension off is the PR 1 pipeline; gv7+ext is the batched-block
// allocator; tictoc abandons the global clock for per-access timestamp
// intervals (its "ext/revals" column counts interval advances).
var validClockSpecs = []string{"gv1", "gv1+ext", "gv4+ext", "gv6+ext", "gv7+ext", "tictoc"}

var e8Variants = map[string]e8Variant{
	"gv1":     {"tl2/gv1", stm.GV1, false},
	"gv1+ext": {"tl2/gv1+ext", stm.GV1, true},
	"gv4+ext": {"tl2/gv4+ext", stm.GV4, true},
	"gv6+ext": {"tl2/gv6+ext", stm.GV6, true},
	"gv7+ext": {"tl2/gv7+ext", stm.GV7, true},
	"tictoc":  {"tictoc", stm.TicToc, true},
}

// setPipeline applies one variant's knobs in the order the cross-knob
// guards allow: GV6/GV7 refuse to be selected while extension is off, and
// extension refuses to go off while GV6/GV7 is selected, so the enabling
// knob always moves first.
func setPipeline(v e8Variant) {
	if v.ext {
		stm.SetTimestampExtension(true)
		stm.SetClockStrategy(v.strat)
	} else {
		stm.SetClockStrategy(v.strat)
		stm.SetTimestampExtension(false)
	}
}

// runE8 measures the native engines for wall-clock throughput: the
// commit-pipeline ablation across clock strategies (-clock selects the
// rows), against NOrec, on a contended-counter and a bank-transfer
// workload. Each cell's Vars are created after its pipeline is selected,
// which is what makes the tictoc row safe: TicToc reinterprets the
// lock-word payload and must never see versioned payloads.
func runE8(c config) error {
	t := ptm.Table{
		Title: fmt.Sprintf("E8 — native commit pipeline: clock strategy × extension (%d goroutines, %v/cell; ext-or-revalidations in last column)",
			c.workers, c.dur),
		Header: []string{"engine", "workload", "txns/sec", "commits", "aborts", "abort-ratio", "ext/revals"},
	}
	defer stm.SetClockStrategy(stm.GV4)
	defer stm.SetTimestampExtension(true)
	for _, spec := range c.clocks {
		v := e8Variants[spec] // validated in main
		setPipeline(v)
		for _, wl := range []string{"counter", "bank"} {
			e8Cell(&t, "stm", v.label, wl,
				func() time.Duration { return e8DriveTL2(wl, c.workers, c.dur) },
				func() uint64 { return stm.ReadStats().Extensions })
		}
	}
	for _, wl := range []string{"counter", "bank"} {
		e8Cell(&t, "norecstm", "norec", wl,
			func() time.Duration { return e8DriveNorec(wl, c.workers, c.dur) },
			func() uint64 { return norecstm.ReadStats().Revalidations })
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

// e8Cell drives one E8 cell and adds its row. The shared columns are the
// delta of the engine kit's common snapshot; the last column is the
// engine's own extension or revalidation counter, which only its
// ReadStats carries.
func e8Cell(t *ptm.Table, engine, label, wl string, drive func() time.Duration, last func() uint64) {
	k := enginekit.ByName(engine)
	before, lastBefore := k.Common(), last()
	elapsed := drive()
	d := k.Common().Sub(before)
	t.Add(label, wl, float64(d.Commits)/elapsed.Seconds(),
		d.Commits, d.Aborts, d.AbortRatio(), last()-lastBefore)
}

// e8DriveTL2 runs the named workload on the repro/stm engine for roughly
// the given duration and returns the exact elapsed wall time.
func e8DriveTL2(workload string, workers int, d time.Duration) time.Duration {
	const accounts = 256
	vars := make([]*stm.Var[int], accounts)
	for i := range vars {
		vars[i] = stm.NewVar(1000)
	}
	ctr := stm.NewVar(0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 1
			for n := 0; time.Now().Before(deadline); n++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				switch workload {
				case "counter":
					_ = stm.Atomically(func(tx *stm.Tx) error {
						ctr.Set(tx, ctr.Get(tx)+1)
						return nil
					})
				default: // bank: 90% two-account transfers, 10% 8-account audits
					from := int(rng>>33) % accounts
					to := (from + 1 + int(rng>>13)%(accounts-1)) % accounts
					if n%10 == 0 {
						_ = stm.Atomically(func(tx *stm.Tx) error {
							s := 0
							for j := 0; j < 8; j++ {
								s += vars[(from+j)%accounts].Get(tx)
							}
							_ = s
							return nil
						})
					} else {
						_ = stm.Atomically(func(tx *stm.Tx) error {
							f := vars[from].Get(tx)
							vars[from].Set(tx, f-1)
							vars[to].Set(tx, vars[to].Get(tx)+1)
							return nil
						})
					}
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// e8DriveNorec is e8DriveTL2 for the repro/stm/norecstm engine.
func e8DriveNorec(workload string, workers int, d time.Duration) time.Duration {
	const accounts = 256
	vars := make([]*norecstm.Var[int], accounts)
	for i := range vars {
		vars[i] = norecstm.NewVar(1000)
	}
	ctr := norecstm.NewVar(0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 1
			for n := 0; time.Now().Before(deadline); n++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				switch workload {
				case "counter":
					_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
						ctr.Set(tx, ctr.Get(tx)+1)
						return nil
					})
				default:
					from := int(rng>>33) % accounts
					to := (from + 1 + int(rng>>13)%(accounts-1)) % accounts
					if n%10 == 0 {
						_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
							s := 0
							for j := 0; j < 8; j++ {
								s += vars[(from+j)%accounts].Get(tx)
							}
							_ = s
							return nil
						})
					} else {
						_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
							f := vars[from].Get(tx)
							vars[from].Set(tx, f-1)
							vars[to].Set(tx, vars[to].Get(tx)+1)
							return nil
						})
					}
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// runE9 prints the STAMP-style scenario suite (index-scan, reservation)
// for every requested TM, with the TL2 clock-strategy variants swept after
// the base tl2 row, as in E5.
func runE9(c config) error {
	t := ptm.Table{
		Title:  "E9 — scenario suite: ordered-index scans and two-table reservations",
		Header: []string{"tm", "scenario", "commits", "aborts", "abort-ratio", "steps/txn"},
	}
	cfg := exp.DefaultE9Config()
	cfg.Seed = c.seed
	for _, name := range expandTL2(c.tms) {
		rows, err := ptm.RunE9(name, cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			t.Add(r.TM, r.Scenario, r.Commits, r.Aborts, r.AbortRatio, r.StepsPerTxn)
		}
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

// runE10 prints the read-mostly serving scenario (Zipf hot-key gets and
// ordered scans racing a small writer pool) for every requested TM. The
// TL2 family is swept twice — with and without the read-only declaration —
// so the table shows what the zero-validation RO mode trades: extension
// revalidations for abort/replay.
func runE10(c config) error {
	t := ptm.Table{
		Title:  "E10 — read-mostly serving: Zipf hot-key gets + ordered scans vs a writer pool",
		Header: []string{"tm", "ro", "commits", "aborts", "abort-ratio", "steps/txn"},
	}
	cfg := exp.DefaultE10Config()
	cfg.Seed = c.seed
	add := func(name string, declare bool) error {
		rcfg := cfg
		rcfg.DeclareRO = declare
		row, err := ptm.RunE10(name, rcfg)
		if err != nil {
			return err
		}
		t.Add(row.TM, row.ROHint, row.Commits, row.Aborts, row.AbortRatio, row.StepsPerTxn)
		return nil
	}
	// Every TL2-family name is swept both undeclared and declared —
	// including explicitly requested variants like "-tms tl2:gv6+ext".
	for _, name := range expandTL2(c.tms) {
		if err := add(name, false); err != nil {
			return err
		}
		if name == "tl2" || strings.HasPrefix(name, "tl2:") {
			if err := add(name, true); err != nil {
				return err
			}
		}
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

// runE11 prints the long-scan/HTAP scenario (long ordered scans and
// multi-key aggregates racing a writer pool) for every requested TM — the
// table where the multi-version rows (mvtm, mvtm-gc) show zero read-side
// aborts while the single-version TMs pay validation steps or
// abort/replay, and the space column shows what that costs. The TL2
// clock variants are swept after the base tl2 row, as in E5/E9/E10.
func runE11(c config) error {
	t := ptm.Table{
		Title:  "E11 — HTAP long scans: ordered scans + multi-key aggregates vs a writer pool",
		Header: []string{"tm", "ro", "commits", "aborts", "read-aborts", "abort-ratio", "steps/txn", "scan-steps", "space"},
	}
	cfg := exp.DefaultE11Config()
	cfg.Seed = c.seed
	for _, name := range expandTL2(c.tms) {
		row, err := ptm.RunE11(name, cfg)
		if err != nil {
			return err
		}
		t.Add(row.TM, row.ROHint, row.Commits, row.Aborts, row.ReadAborts,
			row.AbortRatio, row.StepsPerTxn, row.ScanSteps, row.Space)
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

// runE12 prints the hostile-tenant scenario twice per TM: one unmetered
// row (hostile full-table scans retried to completion) and one metered
// row (each scan charged per step against a grant of half a scan, so
// every hostile attempt is refused). Reading a row pair left to right:
// the victim columns show what the tenants cost the writer pool, the
// hostile columns show the tenants' own outcome flipping from "commits
// everything" to "refused everywhere", and hostile-steps shows the load
// the budget sheds. The TL2 clock variants are swept after the base tl2
// row, as in E5/E9–E11.
func runE12(c config) error {
	t := ptm.Table{
		Title: "E12 — hostile tenants: unbounded scans vs point writers, unmetered then metered",
		Header: []string{"tm", "metered", "victim-commits", "victim-aborts", "victim-steps/txn",
			"hostile-commits", "hostile-refused", "hostile-steps", "space"},
	}
	cfg := exp.DefaultE12Config()
	cfg.Seed = c.seed
	for _, name := range expandTL2(c.tms) {
		for _, budget := range []uint64{0, cfg.StepBudget} {
			run := cfg
			run.StepBudget = budget
			row, err := ptm.RunE12(name, run)
			if err != nil {
				return err
			}
			t.Add(row.TM, row.Metered, row.VictimCommits, row.VictimAborts, row.VictimStepsPerTxn,
				row.HostileCommits, row.HostileBudgetAborts, row.HostileSteps, row.Space)
		}
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

// runE13 prints the graph-routing scenario twice per TM: one unmetered
// row (routes retried or replanned to resolution) and one metered row
// (each attempt charged against a step grant sized for a short route, so
// long routes are refused mid-path). Routed + replanned + refused always
// equals the route quota; claimed-cells prices the committed write sets.
// The TL2 clock variants are swept after the base tl2 row, as in E5/E9–E12.
func runE13(c config) error {
	t := ptm.Table{
		Title: "E13 — graph routing: long speculative paths, write sets as large as read sets",
		Header: []string{"tm", "metered", "routed", "replanned", "refused", "aborts",
			"claimed-cells", "steps/route", "space"},
	}
	cfg := exp.DefaultE13Config()
	cfg.Seed = c.seed
	// The metered grant covers roughly one grid side of reads+writes: long
	// L-paths charge out, short ones fit.
	metered := cfg
	metered.StepBudget = uint64(cfg.GridW)
	for _, name := range expandTL2(c.tms) {
		for _, run := range []exp.E13Config{cfg, metered} {
			row, err := ptm.RunE13(name, run)
			if err != nil {
				return err
			}
			t.Add(row.TM, row.Metered, row.Routed, row.Replanned, row.Refused,
				row.Aborts, row.ClaimedCells, row.StepsPerTxn, row.Space)
		}
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

// runE14 prints the clustering scenario for every requested TM: K shared
// centroid accumulators take the whole assignment stream, so the
// abort-ratio column is the contention-management story (dstm's mutual
// aborts vs tl2's lazy locking vs sgltm's serialization), and recenters
// counts the full-width reader passes racing the stream. The TL2 clock
// variants are swept after the base tl2 row, as in E5/E9–E13.
func runE14(c config) error {
	t := ptm.Table{
		Title:  "E14 — clustering: high-contention point RMWs on K shared accumulators",
		Header: []string{"tm", "centroids", "commits", "aborts", "abort-ratio", "recenters", "steps/txn", "space"},
	}
	cfg := exp.DefaultE14Config()
	cfg.Seed = c.seed
	for _, name := range expandTL2(c.tms) {
		row, err := ptm.RunE14(name, cfg)
		if err != nil {
			return err
		}
		t.Add(row.TM, row.Centroids, row.Commits, row.Aborts, row.AbortRatio,
			row.Recenters, row.StepsPerTxn, row.Space)
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

// runE15 prints the producer/consumer pipeline for every requested TM: a
// queue much smaller than the item flow, so the full-polls and
// empty-polls columns price the backpressure and starvation probing each
// TM's serialization order produces (the simulator has no Retry; the
// native stm.Queue benchmark blocks instead). The TL2 clock variants are
// swept after the base tl2 row, as in E5/E9–E14.
func runE15(c config) error {
	t := ptm.Table{
		Title: "E15 — pipeline: producers/consumers over a bounded transactional queue",
		Header: []string{"tm", "prod", "cons", "produced", "consumed", "full-polls",
			"empty-polls", "aborts", "steps/item", "space"},
	}
	cfg := exp.DefaultE15Config()
	cfg.Seed = c.seed
	for _, name := range expandTL2(c.tms) {
		row, err := ptm.RunE15(name, cfg)
		if err != nil {
			return err
		}
		t.Add(row.TM, row.Producers, row.Consumers, row.Produced, row.Consumed,
			row.FullPolls, row.EmptyPolls, row.Aborts, row.StepsPerItem, row.Space)
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

func runE6(c config) error {
	rows, err := ptm.RunE6(c.ms)
	if err != nil {
		return err
	}
	t := ptm.Table{
		Title:  "E6 (Section 6) — irtm tightness vs m(m-1)/2 + 3m",
		Header: []string{"m", "measured-steps", "formula", "match"},
	}
	for _, r := range rows {
		t.Add(r.M, r.Measured, r.Formula, r.Measured == r.Formula)
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}

func runE7(c config) error {
	t := ptm.Table{
		Title:  "E7 — randomized contention: progress and correctness checks",
		Header: []string{"tm", "committed", "aborted", "progress-viol", "strong-viol", "opaque", "strict-ser"},
	}
	for _, name := range c.tms {
		row, err := ptm.RunE7(name, exp.E7Config{
			Procs: 4, TxnsPerProc: 4, Objects: 4, OpsPerTxn: 3,
			WriteRatio: 0.5, Seed: c.seed, CheckOpacity: true,
		})
		if err != nil {
			return err
		}
		t.Add(row.TM, row.Committed, row.Aborted, row.ProgressViolations, row.StrongViolations, row.Opaque, row.StrictSerializable)
	}
	ptm.PrintTable(os.Stdout, &t)
	return nil
}
