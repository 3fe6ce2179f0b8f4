package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/enginekit"
	"repro/internal/exp"
	"repro/stm"
	"repro/stm/norecstm"
)

// E8 is registered here and not in internal/exp because it alone drives
// the native engines, for wall-clock throughput: the commit-pipeline
// ablation across clock strategies (-clock selects the rows), against
// NOrec, on a contended-counter and a bank-transfer workload.
var (
	e8Workers = flag.Int("workers", 8, "goroutines for the native e8 ablation")
	e8Dur     = flag.Duration("dur", 100*time.Millisecond, "wall-clock duration per e8 cell")
	e8Clocks  = flag.String("clock", strings.Join(validClockSpecs, ","), "comma-separated native commit-pipeline specs for e8")
)

func init() {
	e := exp.Experiment{Name: "e8", Artifact: "Native engines", Native: "BenchmarkE8", Uses: "-workers -dur -clock",
		Title: "E8 — native commit pipeline: clock strategy × extension"}
	e.Run = func(w io.Writer, _ exp.Params) error { return runE8(w, e.Title) }
	exp.Register(e)
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

func runE8(w io.Writer, title string) error {
	t := exp.Table{
		Title:  fmt.Sprintf("%s (%d goroutines, %v/cell; ext-or-revalidations in last column)", title, *e8Workers, *e8Dur),
		Header: []string{"engine", "workload", "txns/sec", "commits", "aborts", "abort-ratio", "ext/revals"},
	}
	// cell drives one workload on one engine and adds its row. The shared
	// columns are the delta of the engine kit's common snapshot; the last
	// is the engine's own extension or revalidation counter, which only
	// its ReadStats carries. Each cell's Vars are created at the call,
	// after its pipeline is selected, which is what makes the tictoc row
	// safe: TicToc reinterprets the lock-word payload and must never see
	// versioned payloads.
	cell := func(engine, label, wl string, txns e8Txns, last func() uint64) {
		k := enginekit.ByName(engine)
		before, lastBefore := k.Common(), last()
		elapsed := e8Drive(txns, wl, *e8Workers, *e8Dur)
		d := k.Common().Sub(before)
		t.Add(label, wl, float64(d.Commits)/elapsed.Seconds(),
			d.Commits, d.Aborts, d.AbortRatio(), last()-lastBefore)
	}
	defer stm.SetClockStrategy(stm.GV4)
	defer stm.SetTimestampExtension(true)
	for _, spec := range split(*e8Clocks) {
		v := e8Variants[spec] // validated in main
		setPipeline(v)
		for _, wl := range []string{"counter", "bank"} {
			cell("stm", v.label, wl, e8STM(), func() uint64 { return stm.ReadStats().Extensions })
		}
	}
	for _, wl := range []string{"counter", "bank"} {
		cell("norecstm", "norec", wl, e8Norec(), func() uint64 { return norecstm.ReadStats().Revalidations })
	}
	t.Print(w)
	return nil
}

const e8Accounts = 256

// e8Txns is the three transaction shapes of the E8 workloads over one
// engine's own Vars: a counter increment, a two-account transfer and an
// eight-account audit.
type e8Txns struct {
	incr     func()
	transfer func(from, to int)
	audit    func(from int)
}

func e8STM() e8Txns {
	vars := make([]*stm.Var[int], e8Accounts)
	for i := range vars {
		vars[i] = stm.NewVar(1000)
	}
	ctr := stm.NewVar(0)
	return e8Txns{
		incr: func() {
			_ = stm.Atomically(func(tx *stm.Tx) error {
				ctr.Set(tx, ctr.Get(tx)+1)
				return nil
			})
		},
		transfer: func(from, to int) {
			_ = stm.Atomically(func(tx *stm.Tx) error {
				vars[from].Set(tx, vars[from].Get(tx)-1)
				vars[to].Set(tx, vars[to].Get(tx)+1)
				return nil
			})
		},
		audit: func(from int) {
			_ = stm.Atomically(func(tx *stm.Tx) error {
				for j := 0; j < 8; j++ {
					_ = vars[(from+j)%e8Accounts].Get(tx)
				}
				return nil
			})
		},
	}
}

func e8Norec() e8Txns {
	vars := make([]*norecstm.Var[int], e8Accounts)
	for i := range vars {
		vars[i] = norecstm.NewVar(1000)
	}
	ctr := norecstm.NewVar(0)
	return e8Txns{
		incr: func() {
			_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
				ctr.Set(tx, ctr.Get(tx)+1)
				return nil
			})
		},
		transfer: func(from, to int) {
			_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
				vars[from].Set(tx, vars[from].Get(tx)-1)
				vars[to].Set(tx, vars[to].Get(tx)+1)
				return nil
			})
		},
		audit: func(from int) {
			_ = norecstm.Atomically(func(tx *norecstm.Tx) error {
				for j := 0; j < 8; j++ {
					_ = vars[(from+j)%e8Accounts].Get(tx)
				}
				return nil
			})
		},
	}
}

// e8Drive runs the named workload for roughly the given duration and
// returns the exact elapsed wall time. The bank workload is 90%
// transfers, 10% audits.
func e8Drive(txns e8Txns, workload string, workers int, d time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 1
			for n := 0; time.Now().Before(deadline); n++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				from := int(rng>>33) % e8Accounts
				switch {
				case workload == "counter":
					txns.incr()
				case n%10 == 0:
					txns.audit(from)
				default:
					txns.transfer(from, (from+1+int(rng>>13)%(e8Accounts-1))%e8Accounts)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
