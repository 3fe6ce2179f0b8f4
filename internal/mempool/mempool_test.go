package mempool

import (
	"sync"
	"testing"
)

// node is the test stand-in for a pooled object carrying a buffer.
type node struct {
	buf  []int
	used bool
}

func newNodePool() *ClassPool[node] {
	return NewClassPool(
		func(capacity int) *node { return &node{buf: make([]int, 0, capacity)} },
		func(n *node) int { return cap(n.buf) },
		func(n *node) { n.buf = n.buf[:0]; n.used = false },
	)
}

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 0}, {1, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16}, {100, 128}, {4096, 4096},
	}
	for _, c := range cases {
		p := newNodePool()
		got := p.Get(c.n)
		if cap(got.buf) != c.wantCap {
			t.Errorf("Get(%d): cap=%d, want %d", c.n, cap(got.buf), c.wantCap)
		}
	}
}

func TestRecycle(t *testing.T) {
	p := newNodePool()
	a := p.Get(8)
	a.used = true
	a.buf = a.buf[:3]
	p.Put(a)
	if a.used || len(a.buf) != 0 {
		t.Fatal("Put did not run the reset hook")
	}
	b := p.Get(8)
	if b != a && !raceEnabled {
		// sync.Pool may drop entries under GC pressure, but a same-goroutine
		// Put→Get with no GC in between must hit the per-P private slot.
		t.Fatalf("Get(8) after Put did not recycle: got %p, put %p", b, a)
	}
	if cap(b.buf) != 8 || b.used || len(b.buf) != 0 {
		t.Fatalf("Get(8) returned cap %d, len %d, used %v; want an empty class-8 node", cap(b.buf), len(b.buf), b.used)
	}
	// A smaller request maps to a different class and must not steal it.
	p.Put(b)
	if c := p.Get(2); cap(c.buf) != 4 {
		t.Errorf("Get(2) returned cap %d, want class cap 4", cap(c.buf))
	}
}

// TestShared: one pool per object type, the same pointer on every call,
// and a lookup that allocates nothing.
func TestShared(t *testing.T) {
	type other struct{ buf []int }
	builds := 0
	build := func() *ClassPool[node] { builds++; return newNodePool() }
	p := Shared(build)
	// (The registry is process-wide, so under -count the pool predates
	// this run and build never runs at all.)
	if q := Shared(build); q != p || builds > 1 {
		t.Fatalf("second Shared: pool %p (first %p) after %d builds, want the same pool built at most once", q, p, builds)
	}
	buildOther := func() *ClassPool[other] {
		return NewClassPool(func(c int) *other { return &other{buf: make([]int, 0, c)} },
			func(o *other) int { return cap(o.buf) }, nil)
	}
	o := Shared(buildOther)
	if any(o) == any(p) {
		t.Fatal("two object types share one pool")
	}
	// Alternating types defeats the last-resolved shortcut: both the
	// shortcut and the map load behind it must be allocation-free.
	if n := testing.AllocsPerRun(100, func() {
		if Shared(build) != p || Shared(buildOther) != o || Shared(buildOther) != o {
			t.Fatal("Shared returned another type's pool")
		}
	}); n != 0 {
		t.Errorf("Shared lookups allocate %v objects, want 0", n)
	}
}

// TestSharedConcurrent: goroutines resolving two object types at once —
// racing the first build and each other's last-resolved entry — all get
// their own type's one pool.
func TestSharedConcurrent(t *testing.T) {
	type a struct{ buf []int }
	type b struct{ buf []byte }
	buildA := func() *ClassPool[a] {
		return NewClassPool(func(c int) *a { return &a{buf: make([]int, 0, c)} }, func(x *a) int { return cap(x.buf) }, nil)
	}
	buildB := func() *ClassPool[b] {
		return NewClassPool(func(c int) *b { return &b{buf: make([]byte, 0, c)} }, func(x *b) int { return cap(x.buf) }, nil)
	}
	var wg sync.WaitGroup
	pas, pbs := make([]*ClassPool[a], 4), make([]*ClassPool[b], 4)
	for g := range pas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				pa, pb := Shared(buildA), Shared(buildB)
				if pas[g] == nil {
					pas[g], pbs[g] = pa, pb
				} else if pa != pas[g] || pb != pbs[g] {
					t.Error("Shared returned a different pool for the same type")
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range pas {
		if pas[g] != pas[0] || pbs[g] != pbs[0] {
			t.Fatal("goroutines resolved different pools for one type")
		}
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	p := newNodePool()
	big := p.Get(maxCap + 1)
	if cap(big.buf) != maxCap+1 {
		t.Fatalf("oversize Get: cap=%d, want exactly %d", cap(big.buf), maxCap+1)
	}
	big.used = true
	p.Put(big) // dropped to GC, but the reset hook must still run
	if big.used {
		t.Error("Put of an oversize object skipped the reset hook")
	}
	if again := p.Get(maxCap + 1); again == big {
		t.Error("oversize object was filed in the pool")
	}
}

func TestOffClassDropped(t *testing.T) {
	p := newNodePool()
	// cap 6 is not a class size: Put must drop it rather than file it
	// where a Get(8) would receive a too-small buffer.
	odd := &node{buf: make([]int, 0, 6)}
	p.Put(odd)
	if got := p.Get(8); got == odd {
		t.Error("off-class object was filed in the pool")
	}
}

func TestPutNil(t *testing.T) {
	p := newNodePool()
	p.Put(nil) // must be a no-op, not a panic in the reset hook
}
