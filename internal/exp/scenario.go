package exp

import (
	"errors"
	"fmt"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/tmreg"
)

// scenario is the scaffolding the quota-retry experiments (E5, E9–E15)
// share: one TM over a fresh memory, a seeded scheduler, one private
// scratch object per process where the scenario paces its retries, and
// the loop that replays a pre-drawn transaction until it commits.
type scenario struct {
	label   string // error prefix: "e9 tl2/index-scan"
	seed    int64
	mem     *memory.Memory
	tm      tm.TM
	s       *sched.Scheduler
	scratch []*memory.Obj // per-process pacer objects; nil unless built paced
}

// newScenario builds the named TM over objects t-objects for procs
// processes; paced, it also allocates the per-process scratch objects
// (which the Space columns then count).
func newScenario(label, tmName string, procs, objects int, seed int64, paced bool) (*scenario, error) {
	mem := memory.New(procs, nil)
	tmi, err := tmreg.New(tmName, mem, objects)
	if err != nil {
		return nil, err
	}
	sc := &scenario{label: label, seed: seed, mem: mem, tm: tmi}
	if paced {
		sc.scratch = make([]*memory.Obj, procs)
		for i := range sc.scratch {
			sc.scratch[i] = mem.AllocAt(fmt.Sprintf("backoff[%d]", i), i)
		}
	}
	sc.s = sched.New(mem)
	return sc, nil
}

// spawn starts process i on body with its own rng, seeded from the
// scenario seed, the experiment's multiplier and the process index.
func (sc *scenario) spawn(i int, mul uint64, body func(p *memory.Proc, rng *splitMix)) {
	rng := newSplitMix(uint64(sc.seed)*mul + uint64(i+1))
	sc.s.Go(i, func(p *memory.Proc) { body(p, rng) })
}

// run schedules the spawned processes to completion under the seeded
// random policy.
func (sc *scenario) run() error {
	if err := sc.s.Run(sched.NewRandom(sc.seed)); err != nil {
		return fmt.Errorf("exp: %s: %w", sc.label, err)
	}
	return nil
}

// tally counts one class of a scenario's transactions: those committed,
// the aborted attempts wasted on the way, and the steps of the committed
// attempts alone.
type tally struct {
	commits, aborts int
	useful          uint64
}

func (t tally) abortRatio() float64 {
	if t.commits+t.aborts == 0 {
		return 0
	}
	return float64(t.aborts) / float64(t.commits+t.aborts)
}

// perCommit is steps per n committed units, 0 when nothing committed.
func perCommit(steps uint64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(steps) / float64(n)
}

// retry runs body as a transaction of p until it commits, counting the
// commit and every aborted attempt in t, and waiting on pace (when
// non-nil) after each abort. A body error listed in expected ends the
// loop uncounted and is returned for the caller to classify; any other
// is a harness bug and panics out through the scheduler.
func (sc *scenario) retry(p *memory.Proc, t *tally, pace *pacer, body func(tm.Txn) error, expected ...error) error {
	for {
		begun := p.Steps()
		committed, err := tm.Once(sc.tm, p, body)
		if err != nil {
			for _, e := range expected {
				if errors.Is(err, e) {
					return err
				}
			}
			panic(err)
		}
		if committed {
			t.commits++
			t.useful += p.Steps() - begun
			return nil
		}
		t.aborts++
		if pace != nil {
			pace.wait()
		}
	}
}

// rmw is the point read-modify-write x += delta.
func rmw(x int, delta uint64) func(tm.Txn) error {
	return func(tx tm.Txn) error {
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		return tx.Write(x, v+delta)
	}
}

// readAll reads xs in order in one transaction: a scan window, or the
// scattered keys of a multi-get.
func readAll(xs []int) func(tm.Txn) error {
	return func(tx tm.Txn) error {
		for _, x := range xs {
			if _, err := tx.Read(x); err != nil {
				return err
			}
		}
		return nil
	}
}

// window is the n consecutive object indices from start, wrapping at
// objects: the simulator's stand-in for an ordered range scan.
func window(start, n, objects int) []int {
	xs := make([]int, n)
	for j := range xs {
		xs[j] = (start + j) % objects
	}
	return xs
}

// pacer spaces out one process's retries and polls, the classic
// contention-management fix: after the n-th failure in a row the process
// spins a random number of reads, up to 2^min(n,8), on its private scratch
// object. Without it an aggressive contention manager (dstm's, in E5's
// unpaced rows) mutually aborts forever, and an unpaced probe stream is
// itself a conflict source under visible reads. The spins are accounted
// steps, so a paced run pays for its waiting. A streak ends where the
// caller takes a fresh pacer or zeroes failures.
type pacer struct {
	p        *memory.Proc
	scratch  *memory.Obj
	rng      *splitMix
	failures int
}

func (sc *scenario) pacer(p *memory.Proc, rng *splitMix) *pacer {
	return &pacer{p: p, scratch: sc.scratch[p.ID()], rng: rng}
}

func (b *pacer) wait() {
	b.failures++
	spins := int(b.rng.next() % (uint64(1) << uint(min(b.failures, 8))))
	for i := 0; i < spins; i++ {
		b.p.Read(b.scratch)
	}
}

// verify runs one more transaction, on process 0 after the workload has
// drained, for the scenarios that cross-check their final state.
func (sc *scenario) verify(read func(tm.Txn) error) error {
	sc.s.Go(0, func(p *memory.Proc) { sc.retry(p, new(tally), nil, read) })
	if err := sc.s.Run(sched.NewRandom(sc.seed + 1)); err != nil {
		return fmt.Errorf("exp: %s verification: %w", sc.label, err)
	}
	return nil
}

// space is the scenario's live base objects: allocated arena slots never
// shrink, so for a multi-version TM the dead version nodes (3 objects
// each) are subtracted and the GC ablation shows in the Space columns.
func (sc *scenario) space() int {
	n := sc.mem.NumObjs()
	if mv, ok := sc.tm.(interface {
		LiveVersions() int
		Versions() int
	}); ok {
		n += 3 * (mv.LiveVersions() - mv.Versions())
	}
	return n
}

// steps sums the steps of processes lo..hi-1.
func (sc *scenario) steps(lo, hi int) (n uint64) {
	for i := lo; i < hi; i++ {
		n += sc.mem.Proc(i).Steps()
	}
	return n
}

// splitMix is the same tiny PRNG used by the conformance suite, duplicated
// here so exp does not import a test-only package.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
