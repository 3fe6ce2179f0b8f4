package exp

// E13 is the graph-routing scenario, the STAMP labyrinth shape: routers
// claim paths through a shared grid by reading a long speculative run of
// cells and then writing every one of them — transactions whose write
// sets are as large as their read sets, unlike anything in E5–E12 (point
// RMWs, scans with tiny write sets). Two behaviors are under test:
//
//   - Write-set scaling. A route over k cells buffers k writes and locks
//     k objects at commit; on the native engines this is the write-set
//     promotion path (sorted slice → map past the threshold), and on the
//     simulator it is the largest wv/tryC footprint the E-series
//     produces.
//
//   - Budget charging on write-heavy work. E12's hostile scans are
//     read-only; a metered router is charged for reads AND buffered
//     writes, so StepBudget below a route's unavoidable step count must
//     refuse the route (ErrOutOfBudget), which the E13 table's metered
//     rows demonstrate.
//
// Routing conflicts are real: two routers whose paths cross must
// serialize, and the loser either aborts (optimistic TMs) and replays, or
// finds the cell occupied on replay and replans a different pair. The
// native counterpart is BenchmarkE13GraphRouting (repro/stm and
// repro/stm/mvstm over a Var grid).

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/tm"
	"repro/stm/budget"
)

// E13Row is one TM's routing measurement.
type E13Row struct {
	TM      string
	Metered bool
	Procs   int
	// Routed counts committed routes; Replanned counts routes abandoned
	// because a cell on the path was already claimed (the router redraws a
	// new pair, STAMP-labyrinth style); Refused counts metered attempts
	// charged out mid-route.
	Routed       int
	Replanned    int
	Refused      int
	Aborts       int
	ClaimedCells int // total cells written by committed routes
	StepsPerTxn  float64
	Space        int
}

// E13Config parameterizes the routing scenario.
type E13Config struct {
	Procs         int
	GridW, GridH  int    // the grid; Objects = GridW*GridH cells
	RoutesPerProc int    // routes each router must resolve (commit or replan out)
	MaxReplans    int    // pair redraws before a route counts as Replanned
	StepBudget    uint64 // per-attempt step grant; 0 = unmetered
	Seed          int64
}

// DefaultE13Config is the configuration used by tmbench and the tests:
// paths average half a grid side each way, so write sets run an order of
// magnitude past the point-RMW scenarios'.
func DefaultE13Config() E13Config {
	return E13Config{
		Procs:         8,
		GridW:         16,
		GridH:         16,
		RoutesPerProc: 6,
		MaxReplans:    8,
		Seed:          42,
	}
}

// e13Path returns the L-shaped cell path from (sx,sy) to (dx,dy): along
// the row first, then the column — the deterministic stand-in for
// labyrinth's breadth-first expansion, preserving what matters here (path
// length scales with grid distance, and crossing paths share cells).
func e13Path(w int, sx, sy, dx, dy int) []int {
	var cells []int
	step := func(a, b int) int {
		if a < b {
			return 1
		}
		return -1
	}
	x, y := sx, sy
	cells = append(cells, y*w+x)
	for x != dx {
		x += step(x, dx)
		cells = append(cells, y*w+x)
	}
	for y != dy {
		y += step(y, dy)
		cells = append(cells, y*w+x)
	}
	return cells
}

// errE13Occupied aborts a routing attempt from inside the transaction
// body when a path cell is already claimed: the route must be replanned,
// not retried.
var errE13Occupied = fmt.Errorf("e13: path cell occupied")

// RunE13 runs the routing scenario for one TM. Each router resolves
// RoutesPerProc routes: draw a pair, read the path, and either claim
// every cell (write its router id) or — if a cell is taken — redraw, up
// to MaxReplans times. Conflict aborts replay the same pair (quota-retry,
// as in E5/E9–E12); metered attempts that exceed the grant are refused
// and the route abandoned, as in E12.
func RunE13(name string, cfg E13Config) (E13Row, error) {
	objects := cfg.GridW * cfg.GridH
	// Paced retries: long crossing routes under an aggressive contention
	// manager can mutually abort forever without spacing them out.
	sc, err := newScenario("e13 "+name, name, cfg.Procs, objects, cfg.Seed, true)
	if err != nil {
		return E13Row{}, err
	}
	var t tally // commits = routed
	var replanned, refused, claimed int
	for i := 0; i < cfg.Procs; i++ {
		sc.spawn(i, 69621, func(p *memory.Proc, rng *splitMix) {
			id := uint64(i + 1) // 0 marks a free cell
			for n := 0; n < cfg.RoutesPerProc; n++ {
			draw:
				for attempt := 0; ; attempt++ {
					if attempt > cfg.MaxReplans {
						replanned++
						break
					}
					sx, sy := int(rng.next()%uint64(cfg.GridW)), int(rng.next()%uint64(cfg.GridH))
					dx, dy := int(rng.next()%uint64(cfg.GridW)), int(rng.next()%uint64(cfg.GridH))
					path := e13Path(cfg.GridW, sx, sy, dx, dy)
					route := func(tx tm.Txn) error {
						begun := p.Steps()
						for _, c := range path {
							v, err := tx.Read(c)
							if err != nil {
								return err
							}
							if v != 0 {
								return errE13Occupied
							}
							if cfg.StepBudget > 0 && p.Steps()-begun > cfg.StepBudget {
								return budget.ErrOutOfBudget
							}
						}
						for _, c := range path {
							if err := tx.Write(c, id); err != nil {
								return err
							}
							if cfg.StepBudget > 0 && p.Steps()-begun > cfg.StepBudget {
								return budget.ErrOutOfBudget
							}
						}
						return nil
					}
					// A conflict abort replays the same pair inside retry.
					switch sc.retry(p, &t, sc.pacer(p, rng), route, errE13Occupied, budget.ErrOutOfBudget) {
					case errE13Occupied:
						continue // redraw a new pair
					case budget.ErrOutOfBudget:
						refused++ // charged out: route abandoned, not retried
					default:
						claimed += len(path)
					}
					break draw
				}
			}
		})
	}
	if err := sc.run(); err != nil {
		return E13Row{}, err
	}
	row := E13Row{
		TM: name, Metered: cfg.StepBudget > 0, Procs: cfg.Procs,
		Routed: t.commits, Replanned: replanned, Refused: refused,
		Aborts: t.aborts, ClaimedCells: claimed,
		StepsPerTxn: perCommit(sc.mem.TotalSteps(), t.commits),
		Space:       sc.space(),
	}
	// Verification pass: committed routes hold disjoint cells, abandoned
	// ones hold none — so the occupied-cell count must equal the cells the
	// committed routes claimed.
	occupied := 0
	err = sc.verify(func(tx tm.Txn) error {
		occupied = 0
		for c := 0; c < objects; c++ {
			v, err := tx.Read(c)
			if err != nil {
				return err
			}
			if v != 0 {
				occupied++
			}
		}
		return nil
	})
	if err != nil {
		return E13Row{}, err
	}
	if occupied != claimed {
		return E13Row{}, fmt.Errorf("exp: e13 %s: %d occupied cells, want the %d claimed by committed routes", name, occupied, claimed)
	}
	return row, nil
}

func init() {
	registerPerTM(Experiment{Name: "e13", Artifact: "Graph routing (STAMP labyrinth shape)", Native: "BenchmarkE13GraphRouting", Uses: "-tms -seed",
		Title: "E13 — graph routing: long speculative paths, write sets as large as read sets"},
		withVariants, []string{"tm", "metered", "routed", "replanned", "refused", "aborts",
			"claimed-cells", "steps/route", "space"},
		func(t *Table, p Params, name string) error {
			cfg := DefaultE13Config()
			cfg.Seed = p.Seed
			// One unmetered row, then one metered at a grant of roughly one
			// grid side of reads+writes: long L-paths charge out, short
			// ones fit. Routed + replanned + refused is always the quota.
			for _, cfg.StepBudget = range []uint64{0, uint64(cfg.GridW)} {
				row, err := RunE13(name, cfg)
				if err != nil {
					return err
				}
				t.Add(row.TM, row.Metered, row.Routed, row.Replanned, row.Refused,
					row.Aborts, row.ClaimedCells, row.StepsPerTxn, row.Space)
			}
			return nil
		})
}
