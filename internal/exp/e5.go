package exp

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/tm"
)

// E5Row is one cell of the contention-sweep ablation (experiment E5): a
// fixed randomized workload executed to completion on one TM, reporting
// how many transaction attempts aborted and how many steps each committed
// transaction cost. Reading the table across TMs shows the design
// trade-offs the paper formalizes: invisible-read validation (irtm, dstm)
// pays steps; global-clock TMs (tl2, tml) pay spurious aborts; visible
// reads (vrtm) pay writer aborts; blocking (sgltm) pays no aborts but
// serializes everything; multi-versioning (mvtm) pays space.
type E5Row struct {
	TM          string
	Procs       int
	WriteRatio  float64
	Commits     int
	Aborts      int
	AbortRatio  float64
	TotalSteps  uint64
	StepsPerTxn float64 // steps per committed transaction
	Space       int     // base objects allocated (multi-version TMs grow)
}

// E5Config parameterizes the sweep workload.
type E5Config struct {
	Procs       int
	TxnsPerProc int // committed transactions each process must complete
	Objects     int
	OpsPerTxn   int
	WriteRatios []float64
	Seed        int64

	// Backoff enables exponential randomized backoff between retries: after
	// the a-th consecutive abort a process spins on a private base object
	// for up to 2^min(a,8) steps before retrying. This is the classic
	// contention-management fix for the livelock-prone aggressive policies
	// (visible in dstm's numbers without it), and the spins are real
	// accounted steps, so the table shows what the remedy costs.
	Backoff bool
}

// DefaultE5Config is the sweep used by benchmarks and tmbench.
func DefaultE5Config() E5Config {
	return E5Config{
		Procs:       8,
		TxnsPerProc: 20,
		Objects:     16,
		OpsPerTxn:   4,
		WriteRatios: []float64{0.0, 0.2, 0.5, 0.9},
		Seed:        42,
	}
}

// RunE5 runs the sweep for one TM. Every process retries each transaction
// until it commits (unlike E7, which records single attempts), so Commits
// is fixed by the config and Aborts measures wasted attempts.
func RunE5(name string, cfg E5Config) ([]E5Row, error) {
	var rows []E5Row
	for _, wr := range cfg.WriteRatios {
		sc, err := newScenario(fmt.Sprintf("e5 %s wr=%.1f", name, wr), name, cfg.Procs, cfg.Objects, cfg.Seed, true)
		if err != nil {
			return nil, err
		}
		var t tally
		for i := 0; i < cfg.Procs; i++ {
			sc.spawn(i, 912367, func(p *memory.Proc, rng *splitMix) {
				for n := 0; n < cfg.TxnsPerProc; n++ {
					// Pre-draw the operation mix so retries replay the same
					// transaction (as a real retry loop would).
					ops := make([]wlOp, cfg.OpsPerTxn)
					for o := range ops {
						ops[o] = wlOp{
							x:     int(rng.next() % uint64(cfg.Objects)),
							write: float64(rng.next()%1000)/1000 < wr,
							v:     rng.next() % 1000,
						}
					}
					var pace *pacer
					if cfg.Backoff {
						pace = sc.pacer(p, rng)
					}
					sc.retry(p, &t, pace, func(tx tm.Txn) error {
						for _, op := range ops {
							if op.write {
								if err := tx.Write(op.x, op.v); err != nil {
									return err
								}
							} else if _, err := tx.Read(op.x); err != nil {
								return err
							}
						}
						return nil
					})
				}
			})
		}
		if err := sc.run(); err != nil {
			return nil, err
		}
		steps := sc.mem.TotalSteps()
		rows = append(rows, E5Row{
			TM: name, Procs: cfg.Procs, WriteRatio: wr,
			Commits: t.commits, Aborts: t.aborts, AbortRatio: t.abortRatio(),
			TotalSteps: steps, StepsPerTxn: perCommit(steps, t.commits),
			Space: sc.space(),
		})
	}
	return rows, nil
}

type wlOp struct {
	x     int
	write bool
	v     uint64
}

func init() {
	registerPerTM(Experiment{Name: "e5", Artifact: "Design ablation", Uses: "-tms -seed",
		Title: "E5 — contention sweep: abort ratio and steps per committed txn"},
		withVariants, []string{"tm", "write-ratio", "commits", "aborts", "abort-ratio", "steps/txn", "base-objects"},
		func(t *Table, p Params, name string) error {
			cfg := DefaultE5Config()
			cfg.Seed = p.Seed
			backoffs := []bool{false}
			if name == "dstm" || name == "vrtm" {
				// The contention-management ablation: the same sweep
				// again with exponential backoff between retries.
				backoffs = []bool{false, true}
			}
			for _, cfg.Backoff = range backoffs {
				rows, err := RunE5(name, cfg)
				if err != nil {
					return err
				}
				for _, r := range rows {
					if cfg.Backoff {
						r.TM += "+backoff"
					}
					t.Add(r.TM, r.WriteRatio, r.Commits, r.Aborts, r.AbortRatio, r.StepsPerTxn, r.Space)
				}
			}
			return nil
		})
}
