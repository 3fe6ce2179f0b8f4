package stm

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"unsafe"
)

// TestTowerHeightDeterministic pins the no-math/rand contract of the
// skiplist: heights are a pure function of the key, within [1, omMaxLevel],
// and geometrically distributed enough that a real key population builds a
// usable skiplist (most keys at level 1, a vanishing tail of tall towers).
func TestTowerHeightDeterministic(t *testing.T) {
	counts := make([]int, omMaxLevel+1)
	const n = 4096
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		h1 := towerHeight(omHash(key))
		h2 := towerHeight(omHash(key))
		if h1 != h2 {
			t.Fatalf("height of %q not deterministic: %d vs %d", key, h1, h2)
		}
		if h1 < 1 || h1 > omMaxLevel {
			t.Fatalf("height of %q = %d outside [1,%d]", key, h1, omMaxLevel)
		}
		counts[h1]++
	}
	// p=1/2 geometric: about half the keys at height 1, a quarter at 2.
	if counts[1] < n/3 || counts[1] > 2*n/3 {
		t.Errorf("height-1 fraction %d/%d far from 1/2: hash mixing is broken", counts[1], n)
	}
	tall := 0
	for h := 6; h <= omMaxLevel; h++ {
		tall += counts[h]
	}
	if tall > n/8 {
		t.Errorf("%d/%d keys taller than 5 levels: hash mixing is broken", tall, n)
	}
}

// orderedMapFootprint stores n keys in serve_point's shapes ("user%09d" →
// "v<i>", 500 puts per transaction, as the benchmark preloads) and returns
// what each stored key costs on the heap, key and value strings included:
// the paper's base objects per data item, counted by the allocator.
func orderedMapFootprint(n int) (bytesPerKey, objectsPerKey float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewOrderedMap[string]()
	for lo := 0; lo < n; lo += 500 {
		_ = Atomically(func(tx *Tx) error {
			for i := lo; i < min(lo+500, n); i++ {
				m.Put(tx, fmt.Sprintf("user%09d", i), "v"+strconv.Itoa(i))
			}
			return nil
		})
	}
	runtime.GC() // twice: the first only moves the pooled descriptors' wide
	runtime.GC() // read sets to sync.Pool's victim cache
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n),
		float64(after.HeapObjects-before.HeapObjects) / float64(n)
}

// TestOrderedMapFootprint pins the layout DESIGN.md's "The ordered map"
// table counts: a 64 B node with the value Var inline, a tower of 24 B refs
// in one allocation, and no box behind a link. Putting a per-link box or a
// pointer slice back fails the per-key bounds; growing either struct fails
// the sizes.
func TestOrderedMapFootprint(t *testing.T) {
	if got := unsafe.Sizeof(omNode[string]{}); got != 64 {
		t.Errorf("sizeof(omNode[string]) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(ref[omNode[string]]{}); got != 24 {
		t.Errorf("sizeof(ref) = %d, want 24", got)
	}
	if raceEnabled || testing.Short() {
		t.Skip("heap accounting needs a plain build and 100,000 keys")
	}
	bytes, objects := orderedMapFootprint(100_000)
	t.Logf("%.1f B/key, %.2f objects/key", bytes, objects)
	// (5.01: the map's own head, stripes and the descriptor pool are a few
	// dozen objects over 100,000 keys.)
	if bytes > 165 || objects > 5.01 {
		t.Errorf("a stored key costs %.1f B in %.2f heap objects, want ≤ 165 B in ≤ 5", bytes, objects)
	}
}

// TestLinkWritesAllocateNothing pins the write half of the same count: a
// committed link Set allocates nothing (the node pointer is the snapshot),
// so a fresh-key Put is the node, its tower and the value box, and a Delete
// nothing — each plus the one box of the size stripe's Var[int] write.
func TestLinkWritesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	var r ref[omNode[int]]
	r.init(nil)
	n := &omNode[int]{key: "k"}
	if got := testing.AllocsPerRun(100, func() {
		_ = Atomically(func(tx *Tx) error { r.Set(tx, n); return nil })
	}); got != 0 {
		t.Errorf("link Set: %v allocations per committed transaction, want 0", got)
	}
	m := NewOrderedMap[int]()
	keys := make([]string, 101) // AllocsPerRun(100, f) calls f 101 times
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	i := 0
	put := func() {
		_ = Atomically(func(tx *Tx) error { m.Put(tx, keys[i], i); return nil })
		i++
	}
	if got := testing.AllocsPerRun(100, put); got != 4 {
		t.Errorf("fresh-key Put: %v allocations, want 4 (node, tower, value box, size-stripe box)", got)
	}
	i = 0
	del := func() {
		_ = Atomically(func(tx *Tx) error { m.Delete(tx, keys[i]); return nil })
		i++
	}
	if got := testing.AllocsPerRun(100, del); got != 1 {
		t.Errorf("Delete: %v allocations, want 1 (size-stripe box)", got)
	}
}
