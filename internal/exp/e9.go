package exp

import (
	"repro/internal/memory"
	"repro/internal/tm"
)

// E9 is the STAMP-style scenario suite: mixed workloads whose read sets are
// long and structured, unlike the flat counters and transfers of E5/E7.
// Two scenarios are modeled on the simulator's t-object array (the native
// counterparts run on stm.OrderedMap / stm.Map — see BenchmarkE9* and
// DESIGN.md's E9 row):
//
//   - "index-scan": an ordered index under a read-mostly mix. Most
//     transactions scan a contiguous run of ScanLen t-objects (the
//     simulator's stand-in for an ordered Range over a skiplist: a long,
//     ordered, pointer-chasing read set), the rest do a point
//     read-modify-write racing the scans. Invisible-read TMs pay Theorem
//     3's incremental-validation cost on every scan; the clock-strategy/
//     extension variants show whether a mid-scan commit aborts the scan or
//     merely revalidates it.
//
//   - "reservation": the STAMP vacation shape, a multi-key read-modify-
//     write across two tables. The object space is split into customers
//     (first half) and resources (second half); a transaction reads a
//     customer, probes K resources for availability, then books one —
//     writing both tables — or cancels, reading both. Mid-size read sets
//     with two-table write sets: the conflict pattern neither a counter
//     nor a single map exercises.
type E9Row struct {
	TM          string
	Scenario    string
	Procs       int
	Commits     int
	Aborts      int
	AbortRatio  float64
	TotalSteps  uint64
	StepsPerTxn float64
}

// E9Config parameterizes the scenario suite.
type E9Config struct {
	Procs       int
	TxnsPerProc int // committed transactions each process must complete
	Objects     int // t-objects per scenario (the reservation tables split it)
	ScanLen     int // contiguous objects per index scan
	Probes      int // resources probed per reservation
	WriteRatio  float64
	Seed        int64
}

// DefaultE9Config is the suite used by benchmarks and tmbench.
func DefaultE9Config() E9Config {
	return E9Config{
		Procs:       8,
		TxnsPerProc: 12,
		Objects:     32,
		ScanLen:     8,
		Probes:      4,
		WriteRatio:  0.25,
		Seed:        42,
	}
}

// E9Scenarios lists the scenario names in table order.
func E9Scenarios() []string { return []string{"index-scan", "reservation"} }

// RunE9 runs every scenario of the suite for one TM. Like E5, every
// process retries each transaction until it commits, so Commits is fixed
// by the config and Aborts measures wasted attempts.
func RunE9(name string, cfg E9Config) ([]E9Row, error) {
	var rows []E9Row
	for _, scenario := range E9Scenarios() {
		row, err := runE9Scenario(name, scenario, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runE9Scenario executes one scenario to completion on one TM under seeded
// random scheduling.
func runE9Scenario(name, scenario string, cfg E9Config) (E9Row, error) {
	sc, err := newScenario("e9 "+name+"/"+scenario, name, cfg.Procs, cfg.Objects, cfg.Seed, false)
	if err != nil {
		return E9Row{}, err
	}
	var t tally
	for i := 0; i < cfg.Procs; i++ {
		sc.spawn(i, 48271, func(p *memory.Proc, rng *splitMix) {
			for n := 0; n < cfg.TxnsPerProc; n++ {
				// Pre-draw the transaction so retries replay it exactly.
				sc.retry(p, &t, nil, drawE9Txn(scenario, cfg, rng))
			}
		})
	}
	if err := sc.run(); err != nil {
		return E9Row{}, err
	}
	steps := sc.mem.TotalSteps()
	return E9Row{
		TM: name, Scenario: scenario, Procs: cfg.Procs,
		Commits: t.commits, Aborts: t.aborts, AbortRatio: t.abortRatio(),
		TotalSteps: steps, StepsPerTxn: perCommit(steps, t.commits),
	}, nil
}

// drawE9Txn draws one transaction body for the scenario from rng. The
// returned closure touches only pre-drawn indices, so re-running it after
// an abort replays the same transaction, as a real retry loop would.
func drawE9Txn(scenario string, cfg E9Config, rng *splitMix) func(tm.Txn) error {
	switch scenario {
	case "index-scan":
		if float64(rng.next()%1000)/1000 < cfg.WriteRatio {
			// Point update racing the scans.
			x := int(rng.next() % uint64(cfg.Objects))
			delta := rng.next() % 100
			return rmw(x, delta)
		}
		// Ordered scan of a contiguous window: the long read set.
		start := int(rng.next() % uint64(cfg.Objects))
		return readAll(window(start, cfg.ScanLen, cfg.Objects))
	case "reservation":
		half := cfg.Objects / 2
		customer := int(rng.next() % uint64(half))
		probes := make([]int, cfg.Probes)
		for j := range probes {
			probes[j] = half + int(rng.next()%uint64(half))
		}
		cancel := rng.next()%10 == 0
		return func(tx tm.Txn) error {
			bal, err := tx.Read(customer)
			if err != nil {
				return err
			}
			// Probe the resources in index order (the ordered-map idiom),
			// remembering the best available one.
			best, bestAvail := -1, uint64(0)
			for _, r := range probes {
				avail, err := tx.Read(r)
				if err != nil {
					return err
				}
				if best == -1 || avail > bestAvail {
					best, bestAvail = r, avail
				}
			}
			if cancel {
				return nil // read-only audit of both tables
			}
			// Book: write both tables in one atomic step.
			if err := tx.Write(best, bestAvail+1); err != nil {
				return err
			}
			return tx.Write(customer, bal+1)
		}
	default:
		panic("exp: unknown e9 scenario " + scenario)
	}
}

func init() {
	registerPerTM(Experiment{Name: "e9", Artifact: "Scenario suite (STAMP-style)", Native: "BenchmarkE9Native", Uses: "-tms -seed",
		Title: "E9 — scenario suite: ordered-index scans and two-table reservations"},
		withVariants, []string{"tm", "scenario", "commits", "aborts", "abort-ratio", "steps/txn"},
		func(t *Table, p Params, name string) error {
			cfg := DefaultE9Config()
			cfg.Seed = p.Seed
			rows, err := RunE9(name, cfg)
			if err != nil {
				return err
			}
			for _, r := range rows {
				t.Add(r.TM, r.Scenario, r.Commits, r.Aborts, r.AbortRatio, r.StepsPerTxn)
			}
			return nil
		})
}
