package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/check"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/tmreg"
)

// E7Row summarizes a randomized concurrent run of one TM against the
// paper's progress and correctness definitions: how many transactions
// committed/aborted, and how many violations each checker found. For a TM
// whose Props claim a property, the corresponding violation count must be
// zero; ablations are *expected* to show non-zero counts for the properties
// they give up.
type E7Row struct {
	TM                 string
	Procs              int
	TxnsPerProc        int
	Objects            int
	Seed               int64
	Committed, Aborted int
	ProgressViolations int
	StrongViolations   int
	OpacityChecked     bool // exhaustive check is run only on small histories
	Opaque             bool
	StrictSerializable bool
}

// E7Config parameterizes the randomized workload.
type E7Config struct {
	Procs        int
	TxnsPerProc  int
	Objects      int
	OpsPerTxn    int
	WriteRatio   float64 // probability an op is a write
	Seed         int64
	CheckOpacity bool // run the exhaustive serialization search (small runs only)
}

// RunE7 executes the randomized workload under seeded random scheduling,
// records the history, and applies every checker from internal/check.
func RunE7(name string, cfg E7Config) (E7Row, error) {
	_, h, err := driveE7(name, cfg)
	if err != nil {
		return E7Row{}, err
	}
	row := E7Row{
		TM: name, Procs: cfg.Procs, TxnsPerProc: cfg.TxnsPerProc,
		Objects: cfg.Objects, Seed: cfg.Seed,
	}
	for _, t := range h.Txns {
		switch t.Status {
		case tm.TxnCommitted:
			row.Committed++
		case tm.TxnAborted:
			row.Aborted++
		}
	}
	row.ProgressViolations = len(check.Progressive(h))
	row.StrongViolations = len(check.StronglyProgressive(h))
	if cfg.CheckOpacity {
		row.OpacityChecked = true
		row.Opaque = check.Opaque(h).OK
		row.StrictSerializable = check.StrictlySerializable(h).OK
	}
	return row, nil
}

// driveE7 runs the workload and returns the recorded history with the
// memory it ran on (whose object names the trace microscope resolves).
func driveE7(name string, cfg E7Config) (*memory.Memory, *tm.History, error) {
	mem := memory.New(cfg.Procs, nil)
	base, err := tmreg.New(name, mem, cfg.Objects)
	if err != nil {
		return nil, nil, err
	}
	rec := tm.Record(base)
	s := sched.New(mem)
	for i := 0; i < cfg.Procs; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		s.Go(i, func(p *memory.Proc) {
			for t := 0; t < cfg.TxnsPerProc; t++ {
				tx := rec.Begin(p)
				dead := false
				for o := 0; o < cfg.OpsPerTxn; o++ {
					x := rng.Intn(cfg.Objects)
					if rng.Float64() < cfg.WriteRatio {
						if tx.Write(x, uint64(rng.Intn(1000))) != nil {
							dead = true
							break
						}
					} else if _, err := tx.Read(x); err != nil {
						dead = true
						break
					}
				}
				if dead {
					tx.Abort()
					continue
				}
				_ = tx.Commit() // abort is a legitimate outcome here
			}
		})
	}
	if err := s.Run(sched.NewRandom(cfg.Seed)); err != nil {
		return nil, nil, fmt.Errorf("exp: e7 %s: %w", name, err)
	}
	return mem, rec.History(), nil
}

func init() {
	registerPerTM(Experiment{Name: "e7", Artifact: "Progress conditions", Uses: "-tms -seed",
		Title: "E7 — randomized contention: progress and correctness checks"},
		asRequested, []string{"tm", "committed", "aborted", "progress-viol", "strong-viol", "opaque", "strict-ser"},
		func(t *Table, p Params, name string) error {
			row, err := RunE7(name, E7Config{
				Procs: 4, TxnsPerProc: 4, Objects: 4, OpsPerTxn: 3,
				WriteRatio: 0.5, Seed: p.Seed, CheckOpacity: true,
			})
			if err != nil {
				return err
			}
			t.Add(row.TM, row.Committed, row.Aborted, row.ProgressViolations, row.StrongViolations, row.Opaque, row.StrictSerializable)
			return nil
		})
}
