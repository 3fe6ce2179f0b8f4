package exp

import (
	"repro/internal/check"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/tmreg"
)

// ClassRow is one row of the TM taxonomy table: each algorithm's measured
// membership in the paper's TM classes, next to what it declares. This is
// the reproduction of the paper's implicit "where does each TM sit in the
// hypothesis space" map (Sections 2–3 and the related-work discussion).
type ClassRow struct {
	TM       string
	Declared tm.Props

	// Measured verdicts (true = the property held in every probe run).
	WeakDAP            bool
	InvisibleReads     bool
	WeakInvisibleReads bool
	Progressive        bool
	StrongSingleItem   bool
	Opaque             bool
}

// Classify probes one TM with targeted workloads and reports measured
// class membership. Probes are small and seeded, so the verdicts are
// reproducible; a measured "true" is evidence, not proof (these are
// finite tests of universally quantified properties), but a measured
// "false" is a definitive counterexample.
func Classify(name string, seeds int) (ClassRow, error) {
	probe, err := tmreg.New(name, memory.New(1, nil), 1)
	if err != nil {
		return ClassRow{}, err
	}
	row := ClassRow{
		TM:                 name,
		Declared:           probe.Props(),
		WeakDAP:            true,
		InvisibleReads:     true,
		WeakInvisibleReads: true,
		Progressive:        true,
		StrongSingleItem:   true,
		Opaque:             true,
	}
	// Probe 1: solo read-only transaction → weak invisible reads. Two
	// sequential update transactions first stagger the objects' commit
	// timestamps: timestamp-interval TMs (TicToc) read invisibly from
	// quiescence, where every validity window is [0,0], but must extend a
	// window in place — a CAS during a t-read — once a solo reader crosses
	// objects committed at different times. Reading from quiescence alone
	// would under-measure exactly the class this probe classifies.
	{
		mem := memory.New(1, nil)
		rec := tm.Record(tmreg.MustNew(name, mem, 4))
		p := mem.Proc(0)
		for i := 0; i < 2; i++ {
			if err := tm.Atomically(rec, p, func(w tm.Txn) error {
				v, err := w.Read(0)
				if err != nil {
					return err
				}
				return w.Write(0, v+1)
			}); err != nil {
				return row, err
			}
		}
		tx := rec.Begin(p)
		for x := 0; x < 4; x++ {
			if _, err := tx.Read(x); err != nil {
				return row, err
			}
		}
		if err := tx.Commit(); err != nil {
			return row, err
		}
		h := rec.History()
		if len(check.WeakInvisibleReads(h)) > 0 {
			row.WeakInvisibleReads = false
		}
		if len(check.InvisibleReads(h)) > 0 {
			row.InvisibleReads = false
		}
	}

	// Probe 2: concurrent disjoint writers → weak DAP; concurrent
	// read-only transactions → strong invisible reads; random contention →
	// progressiveness, strong progressiveness, opacity.
	for seed := int64(1); seed <= int64(seeds); seed++ {
		h, err := runDisjointProbe(name, seed)
		if err != nil {
			return row, err
		}
		if len(check.WeakDAP(h)) > 0 {
			row.WeakDAP = false
		}
		if len(check.InvisibleReads(h)) > 0 {
			row.InvisibleReads = false
		}

		h2, err := runContentionProbe(name, seed)
		if err != nil {
			return row, err
		}
		if len(check.Progressive(h2)) > 0 {
			row.Progressive = false
		}
		if len(check.StronglyProgressive(h2)) > 0 {
			row.StrongSingleItem = false
		}
		if !check.Opaque(h2).OK {
			row.Opaque = false
		}
	}
	return row, nil
}

// runDisjointProbe: two processes, disjoint data sets, one reader process —
// the workload in which weak-DAP and invisible-read violations surface.
func runDisjointProbe(name string, seed int64) (*tm.History, error) {
	mem := memory.New(3, nil)
	rec := tm.Record(tmreg.MustNew(name, mem, 8))
	s := sched.New(mem)
	for i := 0; i < 2; i++ {
		lo := i * 6
		s.Go(i, func(p *memory.Proc) {
			for n := 0; n < 2; n++ {
				_ = tm.Atomically(rec, p, func(tx tm.Txn) error {
					if _, err := tx.Read(lo); err != nil {
						return err
					}
					return tx.Write(lo+1, uint64(n))
				})
			}
		})
	}
	s.Go(2, func(p *memory.Proc) { // read-only over a third disjoint region
		for n := 0; n < 2; n++ {
			tx := rec.Begin(p)
			ok := true
			for _, x := range []int{3, 4} {
				if _, err := tx.Read(x); err != nil {
					ok = false
					break
				}
			}
			if ok {
				_ = tx.Commit()
			} else {
				tx.Abort()
			}
		}
	})
	if err := s.Run(sched.NewRandom(seed)); err != nil {
		return nil, err
	}
	return rec.History(), nil
}

// runContentionProbe: everyone hammers one item (single attempts) — the
// workload for progressiveness, Definition 1 and opacity checking.
func runContentionProbe(name string, seed int64) (*tm.History, error) {
	mem := memory.New(3, nil)
	rec := tm.Record(tmreg.MustNew(name, mem, 2))
	s := sched.New(mem)
	for i := 0; i < 3; i++ {
		i := i
		s.Go(i, func(p *memory.Proc) {
			for n := 0; n < 2; n++ {
				tx := rec.Begin(p)
				ok := true
				if v, err := tx.Read(0); err != nil {
					ok = false
				} else if i%2 == 0 {
					ok = tx.Write(0, v+1) == nil
				}
				if ok {
					_ = tx.Commit()
				} else {
					tx.Abort()
				}
			}
		})
	}
	if err := s.Run(sched.NewRandom(seed)); err != nil {
		return nil, err
	}
	return rec.History(), nil
}

func init() {
	registerPerTM(Experiment{Name: "class", Artifact: "The hypothesis space (Sections 2–3)", Uses: "-tms",
		Title: "TM taxonomy — measured class membership (✗ = counterexample found)"},
		asRequested, []string{"tm", "weak-dap", "inv-reads", "weak-inv-reads",
			"progressive", "strong-1item", "opaque", "declared"},
		func(t *Table, p Params, name string) error {
			mark := func(b bool) string {
				if b {
					return "yes"
				}
				return "✗"
			}
			row, err := Classify(name, 6)
			if err != nil {
				return err
			}
			t.Add(row.TM, mark(row.WeakDAP), mark(row.InvisibleReads), mark(row.WeakInvisibleReads),
				mark(row.Progressive), mark(row.StrongSingleItem), mark(row.Opaque), row.Declared.String())
			return nil
		})
}
