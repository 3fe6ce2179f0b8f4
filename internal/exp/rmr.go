package exp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/memory"
	"repro/internal/mutex"
	"repro/internal/sched"
	"repro/internal/tmreg"
)

// classicLocks are the spin-lock baselines of the RMR experiments.
var classicLocks = map[string]func(*memory.Memory) mutex.Lock{
	"tas":        func(m *memory.Memory) mutex.Lock { return mutex.NewTAS(m) },
	"ttas":       func(m *memory.Memory) mutex.Lock { return mutex.NewTTAS(m) },
	"ticket":     func(m *memory.Memory) mutex.Lock { return mutex.NewTicket(m) },
	"anderson":   func(m *memory.Memory) mutex.Lock { return mutex.NewAnderson(m) },
	"mcs":        func(m *memory.Memory) mutex.Lock { return mutex.NewMCS(m) },
	"clh":        func(m *memory.Memory) mutex.Lock { return mutex.NewCLH(m) },
	"bakery":     func(m *memory.Memory) mutex.Lock { return mutex.NewBakery(m) },
	"tournament": func(m *memory.Memory) mutex.Lock { return mutex.NewTournament(m) },
	"llsc":       func(m *memory.Memory) mutex.Lock { return mutex.NewLLSC(m) },
}

// LockNames returns the mutex algorithms available to the RMR experiments:
// the classic baselines plus L(M) over every strongly progressive TM.
func LockNames() []string {
	names := []string{"lm:irtm", "lm:norec", "lm:sgltm"}
	for name := range classicLocks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewLock builds the named mutual-exclusion object over mem. Names are
// those of LockNames; "lm:<tm>" builds Algorithm 1 over the named TM with a
// single t-object.
func NewLock(name string, mem *memory.Memory) (mutex.Lock, error) {
	if tmName, ok := strings.CutPrefix(name, "lm:"); ok {
		tmi, err := tmreg.New(tmName, mem, 1)
		if err != nil {
			return nil, err
		}
		return mutex.NewLM(mem, tmi), nil
	}
	if build, ok := classicLocks[name]; ok {
		return build(mem), nil
	}
	return nil, fmt.Errorf("exp: unknown lock %q (known: %v)", name, LockNames())
}

// E3Row is one measurement of experiment E3 (Theorem 9): total RMRs when n
// processes each acquire the critical section k times, under one cache
// model. NLogN is the reference series n·log2(n)·k the lower bound is
// stated against.
type E3Row struct {
	Lock       string
	Model      string
	N, K       int
	TotalRMRs  uint64
	PerAcq     float64
	TotalSteps uint64
	NLogN      float64
	Violations int // mutual-exclusion violations observed (must be 0)
}

// RunE3 runs the contended-acquisition workload for each n in ns under the
// named cache model and seeded random scheduling.
func RunE3(lockName, modelName string, ns []int, k int, seed int64) ([]E3Row, error) {
	var rows []E3Row
	for _, n := range ns {
		res, err := runMutexWorkload(lockName, modelName, n, k, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E3Row{
			Lock: lockName, Model: modelName, N: n, K: k,
			TotalRMRs:  res.mem.TotalRMRs(),
			PerAcq:     float64(res.mem.TotalRMRs()) / float64(n*k),
			TotalSteps: res.mem.TotalSteps(),
			NLogN:      float64(n*k) * math.Log2(float64(max(n, 2))),
			Violations: res.violations,
		})
	}
	return rows, nil
}

// E4Row is one measurement of experiment E4 (Theorem 7): how L(M)'s RMR
// cost splits between the substrate TM's t-operations and the Entry/Exit
// hand-off code. The theorem claims the hand-off part is O(1) per
// acquisition.
type E4Row struct {
	Lock          string
	Model         string
	N, K          int
	TMRMRs        uint64  // RMRs inside M
	HandoffRMRs   uint64  // RMRs outside M (Entry/Exit bookkeeping + spin)
	HandoffPerAcq float64 // the quantity Theorem 7 bounds by O(1)
}

// RunE4 measures the TM-vs-hand-off RMR split of an lm:* lock.
func RunE4(lockName, modelName string, ns []int, k int, seed int64) ([]E4Row, error) {
	if !strings.HasPrefix(lockName, "lm:") {
		return nil, fmt.Errorf("exp: E4 applies to lm:* locks, got %q", lockName)
	}
	var rows []E4Row
	for _, n := range ns {
		res, err := runMutexWorkload(lockName, modelName, n, k, seed)
		if err != nil {
			return nil, err
		}
		if res.violations != 0 {
			return nil, fmt.Errorf("exp: %s violated mutual exclusion %d times", lockName, res.violations)
		}
		lm := res.lock.(*mutex.LM)
		var tmRMRs uint64
		for i := 0; i < n; i++ {
			tmRMRs += lm.TMRMRs(i)
		}
		handoff := res.mem.TotalRMRs() - tmRMRs
		rows = append(rows, E4Row{
			Lock: lockName, Model: modelName, N: n, K: k,
			TMRMRs: tmRMRs, HandoffRMRs: handoff,
			HandoffPerAcq: float64(handoff) / float64(n*k),
		})
	}
	return rows, nil
}

type mutexResult struct {
	lock       mutex.Lock
	mem        *memory.Memory // holds the per-process step and RMR counters
	violations int
}

// runMutexWorkload has every one of n processes acquire and release the
// lock k times under seeded random scheduling, checking mutual exclusion
// inside the critical section (the scratch-object accesses inside the CS
// give the scheduler interleaving points that would expose violations).
func runMutexWorkload(lockName, modelName string, n, k int, seed int64) (mutexResult, error) {
	model := memory.ModelByName(modelName)
	if model == nil {
		return mutexResult{}, fmt.Errorf("exp: unknown cache model %q", modelName)
	}
	mem := memory.New(n, model)
	lock, err := NewLock(lockName, mem)
	if err != nil {
		return mutexResult{}, err
	}
	scratch := mem.Alloc("cs.scratch")
	inCS := 0
	violations := 0
	s := sched.New(mem)
	for i := 0; i < n; i++ {
		s.Go(i, func(p *memory.Proc) {
			for j := 0; j < k; j++ {
				lock.Enter(p)
				inCS++
				if inCS > 1 {
					violations++
				}
				p.Write(scratch, uint64(p.ID())) // interleaving point inside CS
				if got := p.Read(scratch); got != uint64(p.ID()) {
					violations++ // another process ran inside our CS
				}
				inCS--
				lock.Exit(p)
			}
		})
	}
	if err := s.Run(sched.NewRandom(seed)); err != nil {
		return mutexResult{}, fmt.Errorf("exp: %s n=%d: %w", lockName, n, err)
	}
	return mutexResult{lock: lock, mem: mem, violations: violations}, nil
}

// perModel prints one table per cache model, with the rows add appends
// for each lock in turn.
func perModel(w io.Writer, e Experiment, p Params, header []string, add func(t *Table, lock, model string) error) error {
	for _, model := range p.Models {
		title := fmt.Sprintf("%s, model=%s, k=%d", e.Title, model, p.K)
		err := perTM(w, title, header, p.Locks, func(t *Table, lock string) error { return add(t, lock, model) })
		if err != nil {
			return err
		}
	}
	return nil
}

func init() {
	e3 := Experiment{Name: "e3", Artifact: "Theorem 9", Uses: "-locks -models -ns -k -seed",
		Title: "E3 (Theorem 9) — RMRs"}
	e3.Run = func(w io.Writer, p Params) error {
		header := []string{"lock", "n", "total-rmrs", "rmrs/acq", "nk·log2(n)", "violations"}
		return perModel(w, e3, p, header, func(t *Table, lock, model string) error {
			rows, err := RunE3(lock, model, p.Ns, p.K, p.Seed)
			for _, r := range rows {
				t.Add(r.Lock, r.N, r.TotalRMRs, r.PerAcq, r.NLogN, r.Violations)
			}
			return err
		})
	}
	Register(e3)

	e4 := Experiment{Name: "e4", Artifact: "Theorem 7", Uses: "-locks -models -ns -k -seed",
		Title: "E4 (Theorem 7) — L(M) RMR split"}
	e4.Run = func(w io.Writer, p Params) error {
		// The split exists only for Algorithm 1's locks; the classic ones
		// in a default -locks list are passed over, but a list with no
		// lm:* lock at all would print empty tables and look like a run.
		lms := lmLocks(p.Locks)
		if len(lms) == 0 {
			return fmt.Errorf("exp: e4 measures lm:* locks and %v has none (valid: %s)",
				p.Locks, strings.Join(lmLocks(LockNames()), ", "))
		}
		p.Locks = lms
		header := []string{"lock", "n", "tm-rmrs", "handoff-rmrs", "handoff-rmrs/acq"}
		return perModel(w, e4, p, header, func(t *Table, lock, model string) error {
			rows, err := RunE4(lock, model, p.Ns, p.K, p.Seed)
			for _, r := range rows {
				t.Add(r.Lock, r.N, r.TMRMRs, r.HandoffRMRs, r.HandoffPerAcq)
			}
			return err
		})
	}
	Register(e4)

	// rmr is the microscope behind E3's aggregates: one contended
	// execution per lock, model and n, broken down by process.
	Register(Experiment{Name: "rmr", Artifact: "E3/E4, one execution", Uses: "-locks -models -ns -k -seed", OnDemand: true,
		Title: "RMR — per-process steps and RMRs of one contended execution",
		Run: func(w io.Writer, p Params) error {
			for _, lock := range p.Locks {
				for _, model := range p.Models {
					for _, n := range p.Ns {
						if err := rmrBreakdown(w, lock, model, n, p.K, p.Seed); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}})

	// mc model-checks mutual exclusion exhaustively within a preemption
	// bound: two processes, one acquisition each.
	mc := Experiment{Name: "mc", Artifact: "Mutual exclusion of every lock", Uses: "-locks", OnDemand: true,
		Title: "MC — exhaustive mutual-exclusion check (n=2, k=1, ≤2 preemptions)"}
	mc.Run = func(w io.Writer, p Params) error {
		header := []string{"lock", "runs", "truncated", "exhausted", "violation"}
		return perTM(w, mc.Title, header, p.Locks, modelCheck)
	}
	Register(mc)
}

func lmLocks(names []string) (lms []string) {
	for _, l := range names {
		if strings.HasPrefix(l, "lm:") {
			lms = append(lms, l)
		}
	}
	return lms
}

func rmrBreakdown(w io.Writer, lockName, modelName string, n, k int, seed int64) error {
	res, err := runMutexWorkload(lockName, modelName, n, k, seed)
	if err != nil {
		return err
	}
	t := Table{
		Title:  fmt.Sprintf("RMR — lock=%s model=%s n=%d k=%d seed=%d", lockName, modelName, n, k, seed),
		Header: []string{"proc", "steps", "rmrs", "rmrs/acq"},
	}
	lm, isLM := res.lock.(*mutex.LM)
	if isLM {
		t.Header = append(t.Header, "tm-rmrs", "handoff-rmrs")
	}
	for i := 0; i < n; i++ {
		p := res.mem.Proc(i)
		cells := []any{i, p.Steps(), p.RMRs(), float64(p.RMRs()) / float64(k)}
		if isLM {
			cells = append(cells, lm.TMRMRs(i), p.RMRs()-lm.TMRMRs(i))
		}
		t.Add(cells...)
	}
	t.Print(w)
	total := res.mem.TotalRMRs()
	fmt.Fprintf(w, "total: steps=%d rmrs=%d (%.2f rmrs/acquisition over %d acquisitions, %d violations)\n\n",
		res.mem.TotalSteps(), total, float64(total)/float64(n*k), n*k, res.violations)
	return nil
}

func modelCheck(t *Table, lockName string) error {
	if _, err := NewLock(lockName, memory.New(2, nil)); err != nil {
		return err
	}
	build := func() (*sched.Scheduler, func() error) {
		mem := memory.New(2, nil)
		lock, _ := NewLock(lockName, mem) // name checked above
		scratch := mem.Alloc("cs.scratch")
		inCS := 0
		s := sched.New(mem)
		for i := 0; i < 2; i++ {
			s.Go(i, func(p *memory.Proc) {
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
	res, err := sched.Explore(build, sched.ExploreOpts{MaxPreemptions: 2, MaxRuns: 60_000})
	violation := "none"
	if err != nil {
		violation = err.Error()
		if len(violation) > 48 {
			violation = violation[:48] + "…"
		}
	}
	t.Add(lockName, res.Runs, res.Truncated, res.Exhausted, violation)
	return nil
}
