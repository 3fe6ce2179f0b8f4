package stm

import (
	"math/bits"
	"sync/atomic"
)

// OrderedMap is a transactional ordered map: a skiplist of Vars keyed by
// string, iterated in lexicographic key order. It is the long-read-set
// stressor of the container family: a Range over k entries records O(k)
// read-set entries traversing pointer structure, which is exactly the
// regime where Theorem 3's validation cost — and the engine's timestamp
// extension — dominate, rather than the O(1) read sets of flat counters.
//
// Structure. Every node carries an immutable key, a Var holding the value
// (so point updates of a present key touch no links), and a tower of
// forward links, each a box-free ref, in one allocation. Links at different
// levels are distinct variables, so transactions conflict only on the links
// they actually cross (DESIGN.md, "The ordered map", counts the heap
// objects and loads). The element count is striped across several Vars
// (indexed by key hash), as in Map, so inserts and deletes of disjoint keys
// do not collide on a shared counter.
//
// Tower heights are deterministic: height(key) is derived from the key's
// hash, not from a random source, so there is no math/rand (and no shared
// PRNG state) in the hot path, re-inserting a deleted key rebuilds an
// identical tower, and the structure is history-independent — its shape
// depends only on the key set, never on insertion order or on how many
// times the workload inserted and deleted. Heights follow the usual p=1/2
// geometric, so searches are O(log n) expected.
//
// All methods taking a *Tx must run inside Atomically and compose with any
// other transactional operations. The Snapshot* methods take no
// transaction and never abort.
type OrderedMap[V any] struct {
	// head[i] points to the first node whose tower reaches level i.
	head  [omMaxLevel]ref[omNode[V]]
	sizes []*Var[int]
	// height is an upper bound on the tallest tower ever linked (raised
	// before a tall node can be published, never lowered). Descents start
	// here instead of at omMaxLevel: for realistically sized maps that
	// saves ~10 reads of permanently-nil head links per operation — pure
	// read-set weight that commit validation and every timestamp-extension
	// revalidation would otherwise have to walk. The hint is deliberately
	// racy and non-transactional: starting the descent at any level ≥ the
	// tallest published tower is correct, and a stale-high hint after an
	// aborted insert merely re-reads a few nil heads.
	height atomic.Int32
	// labelPrefix, when set, makes Put label each new key's value Var
	// prefix+key in the contention profiler's registry (see
	// EnableKeyLabels); nil = off, costing inserts one pointer load.
	labelPrefix atomic.Pointer[string]
}

// omNode is one skiplist node. key is immutable; val is a Var (embedded by
// value), so replacing the value of a present key conflicts only with
// readers of that key, not with the links around it; next is the tower,
// one allocation of height links, next[i] the forward pointer at level i.
type omNode[V any] struct {
	key  string
	val  Var[V]
	next []ref[omNode[V]]
}

// omMaxLevel caps tower heights; 2^omMaxLevel ≈ 1M entries keep the
// expected search depth logarithmic.
const omMaxLevel = 20

// omSizeStripes is the number of size-counter stripes (see Map).
const omSizeStripes = 16

// NewOrderedMap creates an empty transactional ordered map.
func NewOrderedMap[V any]() *OrderedMap[V] {
	m := &OrderedMap[V]{sizes: make([]*Var[int], omSizeStripes)}
	for i := range m.head {
		m.head[i].init(nil)
	}
	for i := range m.sizes {
		m.sizes[i] = NewVar(0)
	}
	m.height.Store(1)
	return m
}

// EnableKeyLabels makes every subsequent Put label the new key's value
// Var as prefix+key in the hot-Var registry, so contention profiles
// (SetContentionProfiler) report the map keys transactions fought over
// instead of anonymous Var ids. Keys inserted before the call stay
// unlabeled; enable at construction for full coverage. The off path
// costs inserts a single atomic pointer load.
func (m *OrderedMap[V]) EnableKeyLabels(prefix string) {
	m.labelPrefix.Store(&prefix)
}

// top returns the level count descents must cover: every published tower
// is at most this tall.
func (m *OrderedMap[V]) top() int { return int(m.height.Load()) }

// bumpHeight raises the descent bound to at least h. Called before the
// insert's links are even buffered, so the bound covers a tower strictly
// before commit can publish it.
func (m *OrderedMap[V]) bumpHeight(h int) {
	for {
		cur := m.height.Load()
		if int(cur) >= h || m.height.CompareAndSwap(cur, int32(h)) {
			return
		}
	}
}

// omHash is the same inline FNV-1a the Map uses (hashing must not
// allocate), widened to 64 bits and finalized with a splitmix64 round so
// the trailing bits towerHeight counts are well-mixed.
func omHash(key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return splitmix64(h)
}

// towerHeight derives the deterministic tower height from a key hash: one
// plus the number of trailing zero bits (geometric with p=1/2), capped at
// omMaxLevel.
func towerHeight(h uint64) int {
	t := 1 + bits.TrailingZeros64(h)
	if t > omMaxLevel {
		t = omMaxLevel
	}
	return t
}

// sizeStripeFor returns the size counter covering the given key hash.
func (m *OrderedMap[V]) sizeStripeFor(h uint64) *Var[int] {
	return m.sizes[h%uint64(len(m.sizes))]
}

// link returns node's link at level i, with node == nil standing for the
// head tower. The result points into the tower (or the map) itself.
func (m *OrderedMap[V]) link(node *omNode[V], i int) *ref[omNode[V]] {
	if node == nil {
		return &m.head[i]
	}
	return &node.next[i]
}

// findPreds walks the skiplist top-down inside tx, filling preds[i] with
// the link whose successor at level i is the first node with key ≥
// key. It returns that first level-0 node (nil if every key is smaller).
// The walk reads O(log n) expected links, all recorded in tx's read set, so
// a committed change to any crossed link aborts — or extends — the
// transaction like any other conflicting read. Descending a level is free:
// the predecessor node reached at level i has a tower of height > i, so
// its level i-1 pointer exists.
func (m *OrderedMap[V]) findPreds(tx *Tx, key string, preds *[omMaxLevel]*ref[omNode[V]]) *omNode[V] {
	var pred *omNode[V] // nil = head
	var next *omNode[V]
	for i := m.top() - 1; i >= 0; i-- {
		p := m.link(pred, i)
		n := p.Get(tx)
		for n != nil && n.key < key {
			pred = n
			p = &n.next[i]
			n = p.Get(tx)
		}
		preds[i] = p
		next = n
	}
	return next
}

// seek returns the first node with key ≥ key (nil if none); the cheap
// preds-free walk shared by Get, Floor-style lookups and Range.
func (m *OrderedMap[V]) seek(tx *Tx, key string) *omNode[V] {
	var pred *omNode[V]
	var next *omNode[V]
	for i := m.top() - 1; i >= 0; i-- {
		n := m.link(pred, i).Get(tx)
		for n != nil && n.key < key {
			pred = n
			n = n.next[i].Get(tx)
		}
		next = n
	}
	return next
}

// Get returns the value for key and whether it is present.
func (m *OrderedMap[V]) Get(tx *Tx, key string) (V, bool) {
	if n := m.seek(tx, key); n != nil && n.key == key {
		return n.val.Get(tx), true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present without reading its value — one
// fewer read-set entry than Get when the value is not needed.
func (m *OrderedMap[V]) Contains(tx *Tx, key string) bool {
	n := m.seek(tx, key)
	return n != nil && n.key == key
}

// Put inserts or replaces the value for key. Replacing writes only the
// node's value Var; inserting allocates the node (with its deterministic
// tower) and splices it under the transaction's links, all published
// atomically at commit.
func (m *OrderedMap[V]) Put(tx *Tx, key string, val V) {
	h := omHash(key)
	height := towerHeight(h)
	// Raise the descent bound first: findPreds must cover every level this
	// key's tower may link, and the bound must be in place before a commit
	// could publish the tower. (If the key turns out to be present, or the
	// transaction aborts, the stale-high bound is harmless.)
	m.bumpHeight(height)
	var preds [omMaxLevel]*ref[omNode[V]]
	n := m.findPreds(tx, key, &preds)
	if n != nil && n.key == key {
		n.val.Set(tx, val)
		return
	}
	node := &omNode[V]{key: key, next: make([]ref[omNode[V]], height)}
	node.val.init(val)
	tx.traceInit(&node.val)
	if p := m.labelPrefix.Load(); p != nil {
		// Label even if this insert later aborts: a re-run creates a fresh
		// node (and relabels), and a stale registry entry for an
		// unpublished Var can never be observed by the sketch.
		node.val.Label(*p + key)
	}
	for i := 0; i < height; i++ {
		// The successor at level i is whatever preds[i] pointed to when we
		// read it; preds[i] is in the read set, so if a concurrent commit
		// moves it the transaction cannot commit with the stale link.
		node.next[i].init(preds[i].Get(tx))
		tx.traceInit(&node.next[i])
		preds[i].Set(tx, node)
	}
	s := m.sizeStripeFor(h)
	s.Set(tx, s.Get(tx)+1)
}

// Delete removes key, reporting whether it was present. The node is
// unlinked at every level of its tower; concurrent readers either see it
// fully linked or fully gone.
func (m *OrderedMap[V]) Delete(tx *Tx, key string) bool {
	h := omHash(key)
	// Deterministic towers pay off here: the height this key's node has —
	// if present — is a pure function of the key, so the descent bound can
	// be raised to cover the whole tower before searching. Otherwise a
	// concurrently published tall node could be found by a walk that
	// started below its top, leaving preds unfilled at its upper levels.
	m.bumpHeight(towerHeight(h))
	var preds [omMaxLevel]*ref[omNode[V]]
	n := m.findPreds(tx, key, &preds)
	if n == nil || n.key != key {
		return false
	}
	for i := range n.next {
		// preds[i] necessarily points at n for every level of n's tower:
		// the walk covered the full tower height and stops at the first
		// node with key ≥ key per level, and keys are unique.
		preds[i].Set(tx, n.next[i].Get(tx))
	}
	s := m.sizeStripeFor(h)
	s.Set(tx, s.Get(tx)-1)
	return true
}

// Min returns the smallest key and its value; ok is false on an empty map.
func (m *OrderedMap[V]) Min(tx *Tx) (key string, val V, ok bool) {
	if n := m.head[0].Get(tx); n != nil {
		return n.key, n.val.Get(tx), true
	}
	return "", val, false
}

// Max returns the largest key and its value; ok is false on an empty map.
// The walk descends the towers, so it is O(log n) expected, not O(n).
func (m *OrderedMap[V]) Max(tx *Tx) (key string, val V, ok bool) {
	var pred *omNode[V]
	for i := m.top() - 1; i >= 0; i-- {
		for n := m.link(pred, i).Get(tx); n != nil; n = m.link(pred, i).Get(tx) {
			pred = n
		}
	}
	if pred == nil {
		return "", val, false
	}
	return pred.key, pred.val.Get(tx), true
}

// Range calls f in ascending key order for every entry with from ≤ key <
// to, stopping early if f returns false. An empty to means "no upper
// bound". The scan reads every visited link and value inside the
// transaction, so it is a fully consistent ordered snapshot — and a
// long-read-set workload: k visited entries cost O(k) read-set entries to
// validate at commit.
func (m *OrderedMap[V]) Range(tx *Tx, from, to string, f func(key string, val V) bool) {
	for n := m.seek(tx, from); n != nil; n = n.next[0].Get(tx) {
		if to != "" && n.key >= to {
			return
		}
		if !f(n.key, n.val.Get(tx)) {
			return
		}
	}
}

// Len returns the number of entries as one consistent snapshot (the sum of
// the size stripes). Like Map.Len it conflicts with concurrent inserts and
// deletes; prefer SnapshotLen in read-mostly paths that can tolerate a
// non-transactional answer.
func (m *OrderedMap[V]) Len(tx *Tx) int {
	n := 0
	for _, s := range m.sizes {
		n += s.Get(tx)
	}
	return n
}

// Keys returns all keys in ascending order, as one consistent snapshot.
func (m *OrderedMap[V]) Keys(tx *Tx) []string {
	var out []string
	m.Range(tx, "", "", func(k string, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// SnapshotLen returns the entry count without running a transaction: one
// atomic load per stripe. Each stripe is individually consistent but the
// sum is not a single atomic cut. It never aborts, blocks, or conflicts
// with writers.
func (m *OrderedMap[V]) SnapshotLen() int {
	n := 0
	for _, s := range m.sizes {
		n += s.Load()
	}
	return n
}

// snapSeek is seek for the non-transactional paths: each link is loaded
// as a consistent single-variable snapshot.
func (m *OrderedMap[V]) snapSeek(key string) *omNode[V] {
	var pred *omNode[V]
	var next *omNode[V]
	for i := m.top() - 1; i >= 0; i-- {
		n := m.link(pred, i).Load()
		for n != nil && n.key < key {
			pred = n
			n = n.next[i].Load()
		}
		next = n
	}
	return next
}

// SnapshotGet returns the value for key without running a transaction. The
// traversal reads each link as a consistent single-Var snapshot; it never
// conflicts with writers.
func (m *OrderedMap[V]) SnapshotGet(key string) (V, bool) {
	if n := m.snapSeek(key); n != nil && n.key == key {
		return n.val.Load(), true
	}
	var zero V
	return zero, false
}

// SnapshotRange calls f in ascending key order for every entry with from ≤
// key < to (empty to = unbounded) without running a transaction, stopping
// early if f returns false. Every link and value load is individually
// consistent and keys are always delivered in strictly increasing order,
// but the iteration as a whole is not atomic: entries inserted or deleted
// mid-scan may or may not be seen (the usual contract of concurrent map
// iteration). Use Range inside a transaction when a fully consistent view
// is required.
func (m *OrderedMap[V]) SnapshotRange(from, to string, f func(key string, val V) bool) {
	for n := m.snapSeek(from); n != nil; n = n.next[0].Load() {
		if to != "" && n.key >= to {
			return
		}
		if !f(n.key, n.val.Load()) {
			return
		}
	}
}
