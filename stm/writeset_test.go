package stm

import (
	"fmt"
	"sort"
	"testing"
)

// White-box tests for the write-set representation: the sorted-insert
// slice below writeSetMapThreshold, the map promotion above it, and the
// read-set duplicate suppression.

func TestWriteSetSortedInsertBelowThreshold(t *testing.T) {
	n := writeSetMapThreshold - 2
	vars := make([]*Var[int], n)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	// Write in a scrambled order; the slice must stay sorted by Var id with
	// no map allocated.
	err := Atomically(func(tx *Tx) error {
		for i := range vars {
			vars[(i*7+3)%n].Set(tx, (i*7+3)%n)
		}
		if tx.wmap != nil {
			t.Errorf("map index allocated for %d writes (threshold %d)", n, writeSetMapThreshold)
		}
		if len(tx.writes) != n {
			t.Errorf("write set has %d entries, want %d", len(tx.writes), n)
		}
		if !sort.SliceIsSorted(tx.writes, func(i, j int) bool {
			return tx.writes[i].v.id() < tx.writes[j].v.id()
		}) {
			t.Error("write set is not sorted by Var id")
		}
		// Read-own-write through the binary search.
		for i, v := range vars {
			if got := v.Get(tx); got != i {
				t.Errorf("read-own-write vars[%d] = %d, want %d", i, got, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vars {
		if got := v.Load(); got != i {
			t.Errorf("committed vars[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestWriteSetOverwriteInPlace(t *testing.T) {
	v := NewVar(0)
	w := NewVar(0)
	err := Atomically(func(tx *Tx) error {
		v.Set(tx, 1)
		w.Set(tx, 10)
		v.Set(tx, 2) // overwrite must not grow the write set
		if len(tx.writes) != 2 {
			t.Errorf("write set has %d entries after overwrite, want 2", len(tx.writes))
		}
		if got := v.Get(tx); got != 2 {
			t.Errorf("read-own-write after overwrite = %d, want 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Load(); got != 2 {
		t.Fatalf("committed %d, want 2", got)
	}
}

func TestWriteSetPromotionToMap(t *testing.T) {
	n := writeSetMapThreshold * 3
	vars := make([]*Var[int], n)
	for i := range vars {
		vars[i] = NewVar(-1)
	}
	err := Atomically(func(tx *Tx) error {
		for i, v := range vars {
			v.Set(tx, i)
			mapExpected := i+1 > writeSetMapThreshold
			if gotMap := tx.wmap != nil; gotMap != mapExpected {
				t.Errorf("after %d writes: map index present = %v, want %v", i+1, gotMap, mapExpected)
			}
		}
		// Read-own-write through the map, and overwrites update in place.
		for i, v := range vars {
			if got := v.Get(tx); got != i {
				t.Errorf("read-own-write vars[%d] = %d, want %d", i, got, i)
			}
		}
		vars[0].Set(tx, 12345)
		if len(tx.writes) != n {
			t.Errorf("write set has %d entries after post-promotion overwrite, want %d", len(tx.writes), n)
		}
		if got := vars[0].Get(tx); got != 12345 {
			t.Errorf("post-promotion overwrite read = %d, want 12345", got)
		}
		vars[0].Set(tx, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The commit sorts the promoted (unsorted-tail) write set and must
	// publish every value exactly once.
	for i, v := range vars {
		if got := v.Load(); got != i {
			t.Errorf("committed vars[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestReadSetSkipsRecentDuplicates(t *testing.T) {
	v := NewVar(7)
	err := Atomically(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if got := v.Get(tx); got != 7 {
				t.Errorf("Get = %d, want 7", got)
			}
		}
		if len(tx.reads) != 1 {
			t.Errorf("read set has %d entries after 10 reads of one Var, want 1", len(tx.reads))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPooledTxIsCleanAcrossCalls(t *testing.T) {
	// A transaction that errors out (aborted writes) must not leak its
	// buffered writes into a later transaction that reuses the descriptor.
	v := NewVar(1)
	sentinel := Atomically(func(tx *Tx) error {
		v.Set(tx, 99)
		return errSentinel
	})
	if sentinel != errSentinel {
		t.Fatalf("err = %v, want sentinel", sentinel)
	}
	err := Atomically(func(tx *Tx) error {
		if len(tx.writes) != 0 || len(tx.reads) != 0 {
			t.Errorf("recycled Tx not clean: %d writes, %d reads", len(tx.writes), len(tx.reads))
		}
		if got := v.Get(tx); got != 1 {
			t.Errorf("Get = %d, want 1 (aborted write leaked)", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type sentinelErr struct{}

func (sentinelErr) Error() string { return "sentinel" }

var errSentinel = sentinelErr{}

// TestWideTxKeepsItsSetsWarm pins the descriptor pool's retention rule.
// A 500-insert transaction into a 16k-key OrderedMap logs ~15k reads;
// release must hand the descriptor back with that array, so the next
// wide transaction appends into it instead of regrowing it from nil (the
// serving tier's preload is exactly this shape, one transaction per
// 500-put batch). The inserts themselves allocate nodes, which would
// drown the ~40 regrowth allocations in a count, so the insert
// transaction is checked by capacity and the allocation bound is put on
// a 500-lookup transaction of the same width, which must allocate nothing.
func TestWideTxKeepsItsSetsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	m := NewOrderedMap[int]()
	for lo := 0; lo < 16000; lo += 500 {
		_ = Atomically(func(tx *Tx) error {
			for i := lo; i < lo+500; i++ {
				m.Put(tx, fmt.Sprintf("k%06d", i), i)
			}
			return nil
		})
	}
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%06dx", i*32) // spread between the present keys
	}
	calls, width, regrown := 0, 0, 0
	insertThenDelete := func() {
		calls++
		_ = Atomically(func(tx *Tx) error {
			before := cap(tx.reads)
			for i, k := range keys {
				m.Put(tx, k, i)
			}
			// The first call warms whichever descriptor the pool hands out.
			if width = len(tx.reads); calls > 1 && cap(tx.reads) != before {
				regrown++
			}
			return nil
		})
		_ = Atomically(func(tx *Tx) error {
			for _, k := range keys {
				m.Delete(tx, k)
			}
			return nil
		})
	}
	// AllocsPerRun pins GOMAXPROCS to 1, so every call draws the
	// descriptor the previous one released.
	testing.AllocsPerRun(3, insertThenDelete)
	if width <= 4096 {
		t.Fatalf("insert transaction logged %d reads, want a read set wider than the old 4096-entry cut-off", width)
	}
	if regrown != 0 {
		t.Fatalf("%d of 3 warm 500-insert transactions regrew a %d-entry read set", regrown, width)
	}
	lookups := func() {
		_ = Atomically(func(tx *Tx) error {
			for _, k := range keys {
				m.Contains(tx, k)
			}
			return nil
		})
	}
	if allocs := testing.AllocsPerRun(5, lookups); allocs != 0 {
		t.Fatalf("warm 500-lookup transaction: %.0f allocs/run, want 0", allocs)
	}
}

// TestSetAllocatesOneBox pins the cost of a transactional write: the typed
// box Set allocates is the one commit publishes, so a committed Set is
// exactly one allocation whatever T is, and a Get none. (A string, or an
// int64 past the runtime's small-value cache, costs a second allocation
// when the value crosses the write set as an interface.) The writes that
// cost none are a container's link writes: a ref publishes the node
// pointer itself, so an OrderedMap insert or delete allocates nothing per
// link (TestLinkWritesAllocateNothing pins that side).
func TestSetAllocatesOneBox(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	s, n := NewVar("a"), NewVar(int64(0))
	str, num := fmt.Sprint("value ", 1), int64(1)<<40 // not constants: those convert to interfaces for free
	cells := []struct {
		name string
		want float64
		fn   func(tx *Tx) error
	}{
		{"Set on Var[string]", 1, func(tx *Tx) error { s.Set(tx, str); return nil }},
		{"Set on Var[int64]", 1, func(tx *Tx) error { n.Set(tx, num); return nil }},
		{"Get on both", 0, func(tx *Tx) error { str, num = s.Get(tx), n.Get(tx); return nil }},
	}
	for _, c := range cells {
		got := testing.AllocsPerRun(100, func() {
			if err := Atomically(c.fn); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations per committed transaction, want %v", c.name, got, c.want)
		}
	}
}
