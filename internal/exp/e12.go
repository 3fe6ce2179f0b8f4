package exp

// E12 is the hostile-tenant scenario: a pool of well-behaved point
// writers (the victims) shares a TM with tenants that issue unbounded
// full-table scans. Without metering, a hostile scan is free to occupy
// the TM for as many steps as the table is long — and on a blocking TM
// it does so while holding the global lock, starving every victim.
// Metering models the library's work budgets at the harness level: a
// hostile attempt is charged per simulated step and refused
// (budget-aborted, not retried) once it exceeds its grant, which is
// exactly the contract repro/stm's BudgetPolicy enforces natively
// (ErrOutOfBudget). The interesting columns are the victims' cost per
// committed transaction and the hostiles' outcome split: with a budget
// below the scan length, every hostile scan is refused and the victims'
// step bill collapses back toward the no-scanner baseline. The native
// counterpart is BenchmarkE12HostileTenant (repro/stm and
// repro/stm/mvstm under a real BudgetPolicy and admission controller).

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/tm"
	"repro/stm/budget"
)

// E12Row is one TM's hostile-tenant measurement.
type E12Row struct {
	TM       string
	Metered  bool // a step budget was enforced on hostile tenants
	Procs    int
	Hostiles int
	// Victim columns: commits is fixed by the config (every victim retries
	// until it commits); aborts and steps/txn measure what the hostile
	// tenants cost them.
	VictimCommits     int
	VictimAborts      int
	VictimStepsPerTxn float64
	// Hostile columns: unmetered hostiles retry scans to completion;
	// metered hostiles get one attempt per scan and are refused
	// (BudgetAborts) when the grant runs out mid-scan.
	HostileCommits      int
	HostileAborts       int
	HostileBudgetAborts int
	HostileSteps        uint64
	Space               int
}

// E12Config parameterizes the hostile-tenant scenario.
type E12Config struct {
	Procs       int // total processes; the first Hostiles of them are hostile
	Hostiles    int
	TxnsPerProc int    // committed point RMWs each victim must complete
	HostileTxns int    // scans each hostile tenant issues
	Objects     int    // table size; a hostile scan reads all of it
	StepBudget  uint64 // per-attempt step grant for hostile scans; 0 = unmetered
	Seed        int64
}

// DefaultE12Config is the configuration used by tmbench and the tests:
// the budget is set to half a scan's unavoidable step count, so under
// metering every hostile scan is refused partway — the hostile tenants
// are priced out while the victims run to completion.
func DefaultE12Config() E12Config {
	return E12Config{
		Procs:       8,
		Hostiles:    2,
		TxnsPerProc: 16,
		HostileTxns: 8,
		Objects:     32,
		StepBudget:  16,
		Seed:        42,
	}
}

// RunE12 runs the hostile-tenant scenario for one TM. Victims retry each
// point RMW until it commits, so VictimCommits is fixed by the config.
// Hostile behavior depends on metering: with StepBudget == 0 each scan
// retries until it commits (the tenant gets everything it asks for);
// with StepBudget > 0 each scan gets a single attempt charged per
// simulated step, is aborted the moment the grant is exceeded, and is
// not retried — the admission-control half of the native design, where a
// refused tenant's retry would be throttled rather than replayed for
// free.
func RunE12(name string, cfg E12Config) (E12Row, error) {
	if cfg.Hostiles > cfg.Procs {
		return E12Row{}, fmt.Errorf("exp: e12: Hostiles %d > Procs %d", cfg.Hostiles, cfg.Procs)
	}
	sc, err := newScenario("e12 "+name, name, cfg.Procs, cfg.Objects, cfg.Seed, false)
	if err != nil {
		return E12Row{}, err
	}
	var victim, hostile tally
	refused := 0
	for i := 0; i < cfg.Procs; i++ {
		sc.spawn(i, 69621, func(p *memory.Proc, rng *splitMix) {
			if i >= cfg.Hostiles {
				for n := 0; n < cfg.TxnsPerProc; n++ {
					x := int(rng.next() % uint64(cfg.Objects))
					delta := rng.next() % 100
					sc.retry(p, &victim, nil, rmw(x, delta))
				}
				return
			}
			for n := 0; n < cfg.HostileTxns; n++ {
				start := int(rng.next() % uint64(cfg.Objects))
				scan := func(tx tm.Txn) error {
					begun := p.Steps()
					var sum uint64
					for j := 0; j < cfg.Objects; j++ {
						v, err := tx.Read((start + j) % cfg.Objects)
						if err != nil {
							return err
						}
						sum += v
						if cfg.StepBudget > 0 && p.Steps()-begun > cfg.StepBudget {
							return budget.ErrOutOfBudget
						}
					}
					_ = sum
					return nil
				}
				if sc.retry(p, &hostile, nil, scan, budget.ErrOutOfBudget) != nil {
					refused++ // charged out, not retried
				}
			}
		})
	}
	if err := sc.run(); err != nil {
		return E12Row{}, err
	}
	return E12Row{
		TM: name, Metered: cfg.StepBudget > 0,
		Procs: cfg.Procs, Hostiles: cfg.Hostiles,
		VictimCommits: victim.commits, VictimAborts: victim.aborts,
		VictimStepsPerTxn: perCommit(sc.steps(cfg.Hostiles, cfg.Procs), victim.commits),
		HostileCommits:    hostile.commits, HostileAborts: hostile.aborts,
		HostileBudgetAborts: refused, HostileSteps: sc.steps(0, cfg.Hostiles),
		Space: sc.space(),
	}, nil
}

func init() {
	registerPerTM(Experiment{Name: "e12", Artifact: "Robustness ablation (metering)", Native: "BenchmarkE12Hostile", Uses: "-tms -seed",
		Title: "E12 — hostile tenants: unbounded scans vs point writers, unmetered then metered"},
		withVariants, []string{"tm", "metered", "victim-commits", "victim-aborts", "victim-steps/txn",
			"hostile-commits", "hostile-refused", "hostile-steps", "space"},
		func(t *Table, p Params, name string) error {
			cfg := DefaultE12Config()
			cfg.Seed = p.Seed
			// One unmetered row (hostile scans retried to completion),
			// then one metered at the default grant of half a scan, so
			// every hostile attempt is refused.
			for _, cfg.StepBudget = range []uint64{0, DefaultE12Config().StepBudget} {
				row, err := RunE12(name, cfg)
				if err != nil {
					return err
				}
				t.Add(row.TM, row.Metered, row.VictimCommits, row.VictimAborts, row.VictimStepsPerTxn,
					row.HostileCommits, row.HostileBudgetAborts, row.HostileSteps, row.Space)
			}
			return nil
		})
}
