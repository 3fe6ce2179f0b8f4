// Package mempool provides size-classed free lists for objects that
// carry a growable buffer — the allocation-recycling half of the mvstm
// commit pipeline (version chains and their overflow slices), shaped
// after the block pool in SNIPPETS.md snippet 2: capacity requests round
// up to a power-of-two class, each class fronts its own sync.Pool, and
// objects whose capacity no longer matches a class are dropped to the
// garbage collector instead of being filed in the wrong list.
//
// The pool is deliberately not a general allocator: Put is only sound
// once no goroutine can still reach the object. Callers that hand pooled
// memory to concurrent readers (as mvstm does with published version
// chains) must run their own quiescence protocol — epoch registration,
// grace periods — and only Put after it proves the object unreachable.
// Dropping an object on the floor is always safe (the GC reclaims it
// once the last reader lets go); Put is the optimization, not the
// requirement.
//
// Building with `-tags mempoolcheck` arms the checked mode: every Put is
// recorded in a live registry, a double Put panics with both call sites'
// stacks reachable from the panic, and Reset hooks are expected to
// poison the object so a use-after-Put read fails loudly instead of
// returning stale data. The race-focused CI step runs the mvstm suite
// under this tag.
package mempool

import (
	"sync"
	"sync/atomic"
)

// nClasses is the number of capacity classes: class 0 holds objects with
// no buffer (capacity 0), class i ≥ 1 holds capacity minCap<<(i-1).
const nClasses = 12

// minCap is the smallest non-zero class capacity.
const minCap = 4

// maxCap is the largest pooled capacity; larger requests are allocated
// directly and never pooled (a single giant object must not ride the
// free lists forever).
const maxCap = minCap << (nClasses - 2) // 4096

// ClassPool is a size-classed pool of *T objects. T carries a buffer
// whose capacity is fixed at construction (New) and reported by CapOf;
// Get rounds the requested capacity up to a class and Put files the
// object back under its class. The zero value is not usable; construct
// with NewClassPool.
type ClassPool[T any] struct {
	newFn   func(capacity int) *T
	capOf   func(*T) int
	resetFn func(*T)
	classes [nClasses]sync.Pool
}

// NewClassPool builds a pool from the three object hooks:
//
//   - newFn(capacity) allocates a fresh object with a buffer of exactly
//     the given capacity (a class size, or larger for oversize requests);
//   - capOf reports the object's buffer capacity, used to classify Put;
//   - reset (optional) is called on every Put before the object is filed,
//     and must drop references the object holds so pooled memory does not
//     pin user data; under -tags mempoolcheck it should also poison the
//     object so use-after-Put fails loudly.
func NewClassPool[T any](newFn func(capacity int) *T, capOf func(*T) int, reset func(*T)) *ClassPool[T] {
	if newFn == nil || capOf == nil {
		panic("mempool: NewClassPool requires new and capOf hooks")
	}
	return &ClassPool[T]{newFn: newFn, capOf: capOf, resetFn: reset}
}

// shared holds the process-wide pool of each object type, keyed by the
// typed nil pointer (*T)(nil) — a key built without reflection or
// allocation. The value is a *any holding that type's *ClassPool[T]; the
// indirection lets lastShared republish an entry without allocating.
var shared sync.Map

// lastShared is the entry Shared resolved most recently: a program pools
// few object types and constructs runs of one, so most lookups end at a
// pointer load and a type check instead of a map load.
var lastShared atomic.Pointer[any]

// Shared returns the one process-wide pool of T objects, building it with
// build on first use. Go has no generic package-level variables, so a
// generic package that pools per-instantiation objects (mvstm's chain[T])
// resolves its pool here once per object it constructs and keeps the
// pointer.
func Shared[T any](build func() *ClassPool[T]) *ClassPool[T] {
	if e := lastShared.Load(); e != nil {
		if p, ok := (*e).(*ClassPool[T]); ok {
			return p
		}
	}
	key := any((*T)(nil))
	e, ok := shared.Load(key)
	if !ok {
		box := any(build())
		e, _ = shared.LoadOrStore(key, &box)
	}
	lastShared.Store(e.(*any))
	return (*e.(*any)).(*ClassPool[T])
}

// classFor returns the class index whose capacity is the smallest that
// covers n, or -1 when n exceeds maxCap.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	if n > maxCap {
		return -1
	}
	c := minCap
	for i := 1; ; i++ {
		if n <= c {
			return i
		}
		c <<= 1
	}
}

// classCap returns the buffer capacity of a class.
func classCap(i int) int {
	if i == 0 {
		return 0
	}
	return minCap << (i - 1)
}

// Get returns an object whose buffer capacity is at least n: a recycled
// one from n's class when available, else a fresh allocation of the
// class capacity (or of exactly n for oversize requests, which bypass
// the pool entirely).
func (p *ClassPool[T]) Get(n int) *T {
	cls := classFor(n)
	if cls < 0 {
		return p.newFn(n)
	}
	if v, ok := p.classes[cls].Get().(*T); ok {
		checkGet(v)
		return v
	}
	return p.newFn(classCap(cls))
}

// Put recycles an object into its capacity class. Objects whose capacity
// is not an exact class size (oversize allocations, or foreign objects)
// are dropped to the GC — filing them would hand Get a buffer smaller or
// larger than its class promises. The reset hook runs first either way,
// so even a dropped object sheds its references.
func (p *ClassPool[T]) Put(x *T) {
	if x == nil {
		return
	}
	if p.resetFn != nil {
		p.resetFn(x)
	}
	c := p.capOf(x)
	cls := classFor(c)
	if cls < 0 || classCap(cls) != c {
		return // oversize or off-class: let the GC have it
	}
	checkPut(x)
	p.classes[cls].Put(x)
}
