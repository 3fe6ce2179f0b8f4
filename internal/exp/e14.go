package exp

// E14 is the clustering scenario, the STAMP kmeans shape: a stream of
// points assigned to a small number of centroids, each assignment a tiny
// read-modify-write on the point's centroid accumulator (sum and count),
// with a periodic "recenter" pass reading every accumulator and
// publishing the new means. The contention profile inverts E13's:
// transactions are as small as the E5 counter's, but K accumulators
// shared by every process make the conflict probability a config knob
// (K small → nearly every pair of concurrent assignments collides), and
// the recenter pass is a full-width reader racing them — the shape where
// contention management, not validation cost, dominates. The native
// counterpart is BenchmarkE14Clustering (repro/stm and repro/stm/norecstm
// over centroid Var pairs).
//
// Object layout: centroid c owns three objects — sum (3c), count (3c+1),
// mean (3c+2, written by recenter passes only).

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/tm"
)

// E14Row is one TM's clustering measurement.
type E14Row struct {
	TM          string
	Procs       int
	Centroids   int
	Commits     int
	Aborts      int
	AbortRatio  float64
	Recenters   int
	StepsPerTxn float64
	Space       int
}

// E14Config parameterizes the clustering scenario.
type E14Config struct {
	Procs         int
	Centroids     int // K; Objects = 3K
	PointsPerProc int // assignments each process must commit
	RecenterEvery int // a recenter pass after every n assignments (0 = never)
	Seed          int64
}

// DefaultE14Config is the configuration used by tmbench and the tests:
// four centroids shared by six processes put most concurrent assignment
// pairs in conflict. Six is deliberate: under dstm's attacker-wins
// contention management the full-width recenter read set is invalidated
// by every assignment commit, and at eight processes the quiet window a
// recenter needs never opens — the run exceeds the scheduler step limit
// instead of terminating with a big abort count. Six keeps every
// registered TM terminating while the abort column still blows up
// (dstm: ~7000 aborts for ~100 commits).
func DefaultE14Config() E14Config {
	return E14Config{
		Procs:         6,
		Centroids:     4,
		PointsPerProc: 16,
		RecenterEvery: 8,
		Seed:          42,
	}
}

// RunE14 runs the clustering scenario for one TM. Every process retries
// each assignment until it commits (quota-retry, as in E5/E9–E13), so
// Commits is fixed by the config and Aborts measures contention waste.
func RunE14(name string, cfg E14Config) (E14Row, error) {
	// Paced retries: with K accumulators shared by every process, an
	// aggressive contention manager mutually aborts concurrent assignments
	// forever without spacing them out.
	sc, err := newScenario("e14 "+name, name, cfg.Procs, 3*cfg.Centroids, cfg.Seed, true)
	if err != nil {
		return E14Row{}, err
	}
	var t tally
	recenters := 0
	recenter := func(tx tm.Txn) error {
		for k := 0; k < cfg.Centroids; k++ {
			sum, err := tx.Read(3 * k)
			if err != nil {
				return err
			}
			cnt, err := tx.Read(3*k + 1)
			if err != nil {
				return err
			}
			mean := uint64(0)
			if cnt > 0 {
				mean = sum / cnt
			}
			if err := tx.Write(3*k+2, mean); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < cfg.Procs; i++ {
		sc.spawn(i, 48271, func(p *memory.Proc, rng *splitMix) {
			for n := 0; n < cfg.PointsPerProc; n++ {
				// The point's value and its centroid assignment; the modulo
				// stands in for nearest-centroid, preserving what matters
				// (every process hits every accumulator).
				v := rng.next()%1000 + 1
				c := int(v) % cfg.Centroids
				sc.retry(p, &t, sc.pacer(p, rng), func(tx tm.Txn) error {
					sum, err := tx.Read(3 * c)
					if err != nil {
						return err
					}
					cnt, err := tx.Read(3*c + 1)
					if err != nil {
						return err
					}
					if err := tx.Write(3*c, sum+v); err != nil {
						return err
					}
					return tx.Write(3*c+1, cnt+1)
				})
				if cfg.RecenterEvery > 0 && (n+1)%cfg.RecenterEvery == 0 {
					sc.retry(p, &t, sc.pacer(p, rng), recenter)
					recenters++
				}
			}
		})
	}
	if err := sc.run(); err != nil {
		return E14Row{}, err
	}
	row := E14Row{
		TM: name, Procs: cfg.Procs, Centroids: cfg.Centroids,
		Commits: t.commits, Aborts: t.aborts, AbortRatio: t.abortRatio(),
		Recenters: recenters, StepsPerTxn: perCommit(sc.mem.TotalSteps(), t.commits),
		Space: sc.space(),
	}
	// Verification pass: the total assignment count across centroids must
	// equal the points committed — a lost RMW under contention would show
	// up here.
	var totalCnt uint64
	err = sc.verify(func(tx tm.Txn) error {
		totalCnt = 0
		for k := 0; k < cfg.Centroids; k++ {
			cnt, err := tx.Read(3*k + 1)
			if err != nil {
				return err
			}
			totalCnt += cnt
		}
		return nil
	})
	if err != nil {
		return E14Row{}, err
	}
	if want := uint64(cfg.Procs) * uint64(cfg.PointsPerProc); totalCnt != want {
		return E14Row{}, fmt.Errorf("exp: e14 %s: %d assignments recorded, want %d — an update was lost", name, totalCnt, want)
	}
	return row, nil
}

func init() {
	registerPerTM(Experiment{Name: "e14", Artifact: "Clustering (STAMP kmeans shape)", Native: "BenchmarkE14Clustering", Uses: "-tms -seed",
		Title: "E14 — clustering: high-contention point RMWs on K shared accumulators"},
		withVariants, []string{"tm", "centroids", "commits", "aborts", "abort-ratio", "recenters", "steps/txn", "space"},
		func(t *Table, p Params, name string) error {
			cfg := DefaultE14Config()
			cfg.Seed = p.Seed
			row, err := RunE14(name, cfg)
			if err != nil {
				return err
			}
			t.Add(row.TM, row.Centroids, row.Commits, row.Aborts, row.AbortRatio,
				row.Recenters, row.StepsPerTxn, row.Space)
			return nil
		})
}
