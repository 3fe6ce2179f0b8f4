package mvstm_test

// Coverage of the typed version chains: a version stores its value
// inline, a committed Set writes into a pooled chain build and allocates
// nothing, an OrElse rollback restores a value that lives in such a
// build, and Vars of different types — whose chains the descriptor
// carries as opaque handles — share one write set, one commit and one
// retire list.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/syncpoint"
	"repro/stm/mvstm"
)

// triple is a three-word value: wider than an interface's data word, so
// the untyped chain boxed it on every Set.
type triple struct{ a, b, c int64 }

func TestVersionIsOneObject(t *testing.T) {
	if got := mvstm.VersionSize[int64](); got != 16 {
		t.Errorf("a retained Var[int64] version takes %d bytes, want 16 (value and timestamp, no box)", got)
	}
	if got := mvstm.VersionSize[triple](); got != 32 {
		t.Errorf("a retained three-word version takes %d bytes, want 32", got)
	}
}

// swapAllocs reports the allocations of one committed transaction that
// reads two Vars and writes each the other's value, after enough of them
// that the chain pool serves every build.
func swapAllocs[T any](x, y T) (swap, get float64) {
	a, b := mvstm.NewVar(x), mvstm.NewVar(y)
	var p, q T
	swapFn := func(tx *mvstm.Tx) error {
		p, q = a.Get(tx), b.Get(tx)
		a.Set(tx, q)
		b.Set(tx, p)
		return nil
	}
	getFn := func(tx *mvstm.Tx) error { p, q = a.Get(tx), b.Get(tx); return nil }
	for i := 0; i < 200; i++ {
		_ = mvstm.Atomically(swapFn)
	}
	swap = testing.AllocsPerRun(200, func() { _ = mvstm.Atomically(swapFn) })
	get = testing.AllocsPerRun(200, func() { _ = mvstm.AtomicallyRO(getFn) })
	return swap, get
}

// TestTransferAllocatesNothing pins the steady-state write path: the
// values are not constants and lie outside the integers the runtime
// interns, so any conversion to an interface would show as an allocation.
func TestTransferAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	check := func(name string, swap, get float64) {
		if swap != 0 {
			t.Errorf("%s: %v allocations per committed two-Var transfer, want 0", name, swap)
		}
		if get != 0 {
			t.Errorf("%s: %v allocations per snapshot transaction of two Gets, want 0", name, get)
		}
	}
	swap, get := swapAllocs(int64(1)<<40, int64(1)<<41)
	check("Var[int64]", swap, get)
	swap, get = swapAllocs(fmt.Sprint("value ", 1), fmt.Sprint("value ", 2))
	check("Var[string]", swap, get)
	swap, get = swapAllocs(triple{1 << 40, 2, 3}, triple{4, 5, 1 << 41})
	check("Var[triple]", swap, get)
}

// TestOrElseRestoresOverwrittenWrite: a branch that overwrites a write
// buffered before it and then blocks must not leak the overwrite — the
// value lives in a chain build the save point's snapshot shares.
func TestOrElseRestoresOverwrittenWrite(t *testing.T) {
	// Past the promotion threshold the entry is found through the map index
	// instead of the sorted slice; both paths must copy on write.
	for _, extra := range []int{0, 30} {
		v, gate, wide := mvstm.NewVar(0), mvstm.NewVar(0), make([]*mvstm.Var[string], extra)
		for i := range wide {
			wide[i] = mvstm.NewVar("")
		}
		if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
			v.Set(tx, 1)
			for _, w := range wide {
				w.Set(tx, "pre")
			}
			return tx.OrElse(
				func(tx *mvstm.Tx) error {
					v.Set(tx, 2)
					for _, w := range wide {
						w.Set(tx, "branch")
					}
					if gate.Get(tx) == 0 {
						tx.Retry()
					}
					return nil
				},
				func(tx *mvstm.Tx) error {
					if got := v.Get(tx); got != 1 {
						t.Errorf("%d extra writes: fallback reads %d, want the pre-branch write 1", extra, got)
					}
					for _, w := range wide {
						if got := w.Get(tx); got != "pre" {
							t.Errorf("%d extra writes: fallback reads %q, want \"pre\"", extra, got)
						}
					}
					return nil
				},
			)
		}); err != nil {
			t.Fatal(err)
		}
		if got := v.Load(); got != 1 {
			t.Errorf("%d extra writes: committed %d, want 1", extra, got)
		}
		for _, w := range wide {
			if got := w.Load(); got != "pre" {
				t.Errorf("%d extra writes: committed %q, want \"pre\"", extra, got)
			}
		}
	}
}

// mixed is one record spread over four Vars of different types; every
// committed state has all four agree on n.
type mixed struct {
	num  *mvstm.Var[int64]
	str  *mvstm.Var[string]
	rec  *mvstm.Var[triple]
	list *mvstm.Var[[]int64]
}

func newMixed() mixed {
	return mixed{mvstm.NewVar(int64(0)), mvstm.NewVar("0"), mvstm.NewVar(triple{}), mvstm.NewVar([]int64{0})}
}

func (m mixed) set(tx *mvstm.Tx, n int64) {
	m.num.Set(tx, n)
	m.str.Set(tx, strconv.FormatInt(n, 10))
	m.rec.Set(tx, triple{n, 2 * n, 3 * n})
	m.list.Set(tx, []int64{n, n})
}

// get returns the record's n, or an error naming the disagreement.
func (m mixed) get(tx *mvstm.Tx) (int64, error) {
	n, s, r, l := m.num.Get(tx), m.str.Get(tx), m.rec.Get(tx), m.list.Get(tx)
	if s != strconv.FormatInt(n, 10) || r != (triple{n, 2 * n, 3 * n}) || len(l) == 0 || l[0] != n {
		return 0, fmt.Errorf("torn record: int64 %d, string %q, struct %v, slice %v", n, s, r, l)
	}
	return n, nil
}

// TestMixedTypesStress is the -race workhorse for heterogeneous write
// sets: narrow increments of hot records (sorted-slice write set, lock
// conflicts and failed validations, builds re-sized when a chain grew
// between Set and commit), wide transactions over every record (map
// promotion and the commit-time re-sort), user aborts and blocked OrElse
// branches (builds recycled without being published), and snapshot
// auditors checking that all four types of a record agree.
func TestMixedTypesStress(t *testing.T) {
	const records = 8 // × 4 Vars: a wide transaction writes 32 > writeSetMapThreshold
	recs := make([]mixed, records)
	for i := range recs {
		recs[i] = newMixed()
	}
	errAbort := errors.New("user abort")
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := recs[(w+i)%2] // two hot records
				err := mvstm.Atomically(func(tx *mvstm.Tx) error {
					n, err := r.get(tx)
					if err != nil {
						return err
					}
					switch i % 8 {
					case 5: // every record, one commit
						for _, o := range recs {
							on, err := o.get(tx)
							if err != nil {
								return err
							}
							o.set(tx, on+1)
						}
						return nil
					case 6: // writes buffered, then discarded
						r.set(tx, -1)
						return errAbort
					case 7: // a branch overwrites, blocks and is rolled back
						r.set(tx, n+1)
						return tx.OrElse(
							func(tx *mvstm.Tx) error { r.set(tx, -2); tx.Retry(); return nil },
							func(tx *mvstm.Tx) error { return nil },
						)
					}
					r.set(tx, n+1)
					return nil
				})
				if err != nil && err != errAbort {
					t.Error(err)
					return
				}
			}
		}()
	}
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
					for _, r := range recs {
						if n, err := r.get(tx); err != nil || n < 0 {
							return fmt.Errorf("audit: n=%d: %v", n, err)
						}
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every iteration but the user aborts (i%8 == 6) adds one to its hot
	// record, and the wide ones one to every record.
	var want [records]int64
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			switch i % 8 {
			case 5:
				for j := range want {
					want[j]++
				}
			case 6:
			default:
				want[(w+i)%2]++
			}
		}
	}
	_ = mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		for j, r := range recs {
			if n, err := r.get(tx); err != nil || n != want[j] {
				t.Errorf("record %d: n=%d (err %v), want %d", j, n, err, want[j])
			}
		}
		return nil
	})
	if n := mvstm.ActivePins(); n != 0 {
		t.Fatalf("ActivePins = %d after quiescence, want 0", n)
	}
}

// TestRebuildUnderLockMixedTypes drives the one commit path contention
// alone reaches too rarely to count on: a foreign commit lands on every
// written Var after the builds are complete and before the locks are
// taken, so each build is redone under its lock from the chain now
// published. The writes are blind — nothing read, so nothing to
// invalidate — and both commits' versions must be on every chain.
func TestRebuildUnderLockMixedTypes(t *testing.T) {
	m := newMixed()
	landed := false
	mvstm.SetSyncHook(func(p syncpoint.Point) {
		if p != syncpoint.PreLock || landed {
			return
		}
		landed = true
		if err := mvstm.Atomically(func(tx *mvstm.Tx) error { m.set(tx, 7); return nil }); err != nil {
			t.Error(err)
		}
	}, func() int { return 0 })
	err := mvstm.Atomically(func(tx *mvstm.Tx) error { m.set(tx, 9); return nil })
	mvstm.SetSyncHook(nil, nil)
	if err != nil || !landed {
		t.Fatalf("outer commit: err %v, foreign commit landed %v", err, landed)
	}
	_ = mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		if n, err := m.get(tx); err != nil || n != 9 {
			t.Errorf("after both commits n=%d (err %v), want the outer commit's 9", n, err)
		}
		return nil
	})
	for name, got := range map[string]int{
		"int64": mvstm.ChainLen(m.num), "string": mvstm.ChainLen(m.str),
		"struct": mvstm.ChainLen(m.rec), "slice": mvstm.ChainLen(m.list),
	} {
		if got != 3 {
			t.Errorf("%s chain holds %d versions, want 3 (initial, foreign, outer)", name, got)
		}
	}
}

var transferSink int64

// BenchmarkMVTransfer is the steady-state cost of the engine's smallest
// update transaction — read two Var[int64], write both — on one goroutine;
// the Makefile's ZEROALLOC set holds it at 0 allocs/op.
func BenchmarkMVTransfer(b *testing.B) {
	from, to := mvstm.NewVar(int64(1)<<40), mvstm.NewVar(int64(1)<<40)
	xfer := func(tx *mvstm.Tx) error {
		from.Set(tx, from.Get(tx)-1)
		to.Set(tx, to.Get(tx)+1)
		return nil
	}
	b.ReportAllocs()
	for b.Loop() {
		_ = mvstm.Atomically(xfer)
	}
	transferSink = from.Load() + to.Load()
}
