package mvstm_test

// Stalled-reader coverage for retired-chain recycling: a reader parked
// mid-pin freezes the epoch floor, so every chain the writers replace
// meanwhile waits on a retired list. Within the version budget the list
// must ride the stall out and pool every chain once the reader leaves;
// past it, the list must stay bounded and count what it drops. Both run
// on one P with the same descriptor for every commit, and are skipped
// under -race, where sync.Pool drops Puts (descriptors included) at
// random.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/stm/mvstm"
)

// stallReader pins a snapshot that reads v and parks it, returning once
// the reader is pinned. release unparks it, waits for it to finish and
// reports an error if its re-read of v moved; a test that fails before
// calling it releases the reader on cleanup, so no pin outlives the test.
func stallReader(t *testing.T, v *mvstm.Var[int]) (release func() error) {
	pinned, unpark, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
			first := v.Get(tx)
			close(pinned)
			<-unpark
			if again := v.Get(tx); again != first {
				return fmt.Errorf("pinned snapshot re-read %d, first read %d", again, first)
			}
			return nil
		})
	}()
	<-pinned
	var once sync.Once
	var err error
	release = func() error {
		once.Do(func() {
			close(unpark)
			err = <-done
		})
		return err
	}
	t.Cleanup(func() { _ = release() })
	return release
}

// TestStalledReaderPoolsEveryChain: 4,096 commits behind a parked reader
// retire 4,096 chains, four times what a chain-count cap of 1,024 kept.
// All of them must be pooled once the reader leaves, none dropped, and
// a later identical stall must then be served from the pool with no
// malloc at all. The pool hands each round's reader the descriptor the
// last round's writer used, so the two descriptors swap roles; the third
// stall is the first whose writer has already grown its retired slice.
func TestStalledReaderPoolsEveryChain(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC cycle empties the pools
	const commits, rounds = 4096, 3
	// Each round writes its own fresh Vars, so every round's builds and
	// retired chains are one-version chains of the same capacity class,
	// and the Vars are made up front: NewVar takes its chain from the
	// pool too.
	sets := make([][]*mvstm.Var[int], rounds)
	for r := range sets {
		sets[r] = make([]*mvstm.Var[int], commits)
		for i := range sets[r] {
			sets[r][i] = mvstm.NewVar(0)
		}
	}
	other := mvstm.NewVar(0)
	var vars []*mvstm.Var[int]
	var i int
	set := func(tx *mvstm.Tx) error {
		vars[i].Set(tx, i)
		return nil
	}
	bump := func(tx *mvstm.Tx) error {
		other.Set(tx, other.Get(tx)+1)
		return nil
	}
	for round := 1; round <= rounds; round++ {
		vars = sets[round-1]
		retired := 0 // each Var takes one commit: its current chain retires
		for _, v := range vars {
			retired += mvstm.ChainLen(v)
		}
		before := mvstm.ReadStats()
		release := stallReader(t, other)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i = range vars {
			if err := mvstm.Atomically(set); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		if err := release(); err != nil {
			t.Fatal(err)
		}
		// The first commit after the stall drains the list.
		if err := mvstm.Atomically(bump); err != nil {
			t.Fatal(err)
		}
		if err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
			if n := mvstm.RetiredStaleForTest(tx); n != 0 {
				return fmt.Errorf("retired slice still references %d drained chains", n)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		d := mvstm.ReadStats().Sub(before)
		if d.VersionsDropped != 0 || d.VersionsPooled < uint64(retired) {
			t.Fatalf("round %d: %d versions retired behind the stall, %d pooled and %d dropped after it",
				round, retired, d.VersionsPooled, d.VersionsDropped)
		}
		if mallocs := m1.Mallocs - m0.Mallocs; round == rounds && mallocs != 0 {
			t.Fatalf("third stall: %d mallocs over %d commits, want 0 (chains missed the pool)", mallocs, commits)
		}
	}
}

// TestStalledReaderRetiredBudget: behind a parked reader a hot Var's
// chain grows by one version per commit, and each commit retires the
// previous copy — Σ ≈ 2.1 M versions over 2,048 commits, twice the
// budget. The descriptor's retired list must never hold more than the
// budget, what it sheds must be counted as dropped, and the reader's
// snapshot and every later read must still see the right values.
func TestStalledReaderRetiredBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const commits = 2048
	hot := mvstm.NewVar(0)
	before := mvstm.ReadStats()
	release := stallReader(t, hot)
	retired, peak := 0, 0
	for k := 1; k <= commits; k++ {
		retired += mvstm.ChainLen(hot)
		if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
			peak = max(peak, mvstm.RetiredVersionsForTest(tx))
			hot.Set(tx, k)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	if peak > mvstm.RetireBudget {
		t.Errorf("retired list held %d versions, budget %d", peak, mvstm.RetireBudget)
	}
	var pending int
	var d mvstm.Stats
	if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
		if got := hot.Get(tx); got != commits {
			return fmt.Errorf("read %d after the stall, want %d", got, commits)
		}
		hot.Set(tx, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		if n := mvstm.RetiredStaleForTest(tx); n != 0 {
			return fmt.Errorf("retired slice still references %d drained or dropped chains", n)
		}
		pending = mvstm.RetiredVersionsForTest(tx)
		d = mvstm.ReadStats().Sub(before)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if d.VersionsDropped == 0 {
		t.Errorf("%d versions retired behind the stall, none dropped (budget %d)", retired, mvstm.RetireBudget)
	}
	if got := d.VersionsPooled + d.VersionsDropped + uint64(pending); got < uint64(retired) {
		t.Errorf("%d versions retired, only %d pooled + %d dropped + %d pending",
			retired, d.VersionsPooled, d.VersionsDropped, pending)
	}
	if got := hot.Load(); got != 0 {
		t.Errorf("Load = %d after the last commit, want 0", got)
	}
}
