package server

// Isolation of the router itself, below HTTP: every test races one
// writer against one reader on a Router and states an invariant that
// holds exactly when each request is a single transaction. All of them
// run on both engines at 1 and 4 shards, and each of them failed on stm
// at one shard count or the other before requests were one transaction
// each (the read-batch one on mvstm too).

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// isolationRouters runs f on a fresh router per engine and shard count.
func isolationRouters(t *testing.T, f func(t *testing.T, r *Router)) {
	for _, engine := range []string{"stm", "mvstm"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", engine, shards), func(t *testing.T) {
				r, err := NewRouter(shards, engine)
				if err != nil {
					t.Fatal(err)
				}
				f(t, r)
			})
		}
	}
}

// race runs write rounds times on one goroutine while read loops on
// another until the writer is done (and at least once after it).
func race(rounds int, write func(i int), read func()) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			write(i)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				read()
				return
			default:
				read()
			}
		}
	}()
	wg.Wait()
}

const (
	isoKeys    = 16
	isoInitial = 100
)

func isoKey(i int) string { return fmt.Sprintf("acct%02d", i%isoKeys) }

// fund stores isoInitial at every key in one batch.
func fund(t *testing.T, r *Router) {
	t.Helper()
	ops := make([]Op, isoKeys)
	for i := range ops {
		ops[i] = Op{Kind: "put", Key: isoKey(i), Value: strconv.Itoa(isoInitial)}
	}
	if _, err := r.Batch(ops); err != nil {
		t.Fatal(err)
	}
}

func mustBatch(t *testing.T, r *Router, ops []Op) []OpResult {
	res, err := r.Batch(ops)
	if err != nil {
		t.Error(err)
	}
	return res
}

// checkScanTotal scans everything and wants every key, in order, summing
// to the funded total.
func checkScanTotal(t *testing.T, r *Router) {
	kvs, err := r.Scan("", "", 0)
	if err != nil {
		t.Error(err)
		return
	}
	sum := 0
	for i, kv := range kvs {
		if kv.Key != isoKey(i) {
			t.Errorf("scan[%d] = %q, want %q", i, kv.Key, isoKey(i))
			return
		}
		n, _ := strconv.Atoi(kv.Value)
		sum += n
	}
	if len(kvs) != isoKeys || sum != isoKeys*isoInitial {
		t.Errorf("scan saw %d keys summing to %d, want %d summing to %d — half a batch was visible",
			len(kvs), sum, isoKeys, isoKeys*isoInitial)
	}
}

// TestScanConservation: two-key transfers against full scans. The pairs
// rotate, so at 4 shards some stay inside one shard and some cross.
func TestScanConservation(t *testing.T) {
	isolationRouters(t, func(t *testing.T, r *Router) {
		fund(t, r)
		race(3000, func(i int) {
			mustBatch(t, r, []Op{
				{Kind: "add", Key: isoKey(i), Delta: 1},
				{Kind: "add", Key: isoKey(i + 1 + i%5), Delta: -1},
			})
		}, func() {
			if !t.Failed() {
				checkScanTotal(t, r)
			}
		})
	})
}

// TestWideBatchConservation: 16-op transfer batches over every key
// against a 16-get read batch and a full scan.
func TestWideBatchConservation(t *testing.T) {
	isolationRouters(t, func(t *testing.T, r *Router) {
		fund(t, r)
		gets := make([]Op, isoKeys)
		for i := range gets {
			gets[i] = Op{Kind: "get", Key: isoKey(i)}
		}
		race(1000, func(i int) {
			ops := make([]Op, isoKeys)
			for j := range ops {
				ops[j] = Op{Kind: "add", Key: isoKey(i + j), Delta: int64(2*(j%2) - 1)}
			}
			mustBatch(t, r, ops)
		}, func() {
			if t.Failed() {
				return
			}
			sum := 0
			for _, res := range mustBatch(t, r, gets) {
				n, _ := strconv.Atoi(res.Value)
				sum += n
			}
			if sum != isoKeys*isoInitial {
				t.Errorf("read batch summed to %d, want %d — half a batch was visible", sum, isoKeys*isoInitial)
			}
			checkScanTotal(t, r)
		})
	})
}

// TestReadBatchRealTimeOrder: the writer stores round i at key a and,
// only after that request has returned, at key b. A read batch that sees
// b at round i must therefore see a at round i or later. The pair is
// chosen with a's shard below b's where there is more than one shard:
// reading shard by shard in id order is what saw a stale a beside a
// fresh b.
func TestReadBatchRealTimeOrder(t *testing.T) {
	isolationRouters(t, func(t *testing.T, r *Router) {
		a, b := "", ""
		for i := 0; a == ""; i++ {
			x, y := isoKey(i), isoKey(i+1)
			if r.NumShards() == 1 || r.ShardFor(x) < r.ShardFor(y) {
				a, b = x, y
			}
		}
		read := []Op{{Kind: "get", Key: a}, {Kind: "get", Key: b}}
		race(3000, func(i int) {
			mustBatch(t, r, []Op{{Kind: "put", Key: a, Value: strconv.Itoa(i)}})
			mustBatch(t, r, []Op{{Kind: "put", Key: b, Value: strconv.Itoa(i)}})
		}, func() {
			if t.Failed() {
				return
			}
			res := mustBatch(t, r, read)
			av, _ := strconv.Atoi(res[0].Value)
			bv, _ := strconv.Atoi(res[1].Value)
			if res[1].Found && av < bv {
				t.Errorf("read batch saw %s=%d beside %s=%d: the later write without the earlier one", a, av, b, bv)
			}
		})
	})
}

// TestGetRealTimeOrder: the writer stores round i at every key in one
// batch; the reader gets the first key and then, after that request has
// returned, the last. The second get can only see the same round or a
// later one. (A get that peeks at a Var outside any transaction can land
// between the two halves of a commit's publish loop, and did.)
func TestGetRealTimeOrder(t *testing.T) {
	isolationRouters(t, func(t *testing.T, r *Router) {
		fund(t, r) // creates the keys in index order, the order commits publish in
		get := func(key string) int {
			v, _, err := r.Get(key)
			if err != nil {
				t.Error(err)
			}
			n, _ := strconv.Atoi(v)
			return n
		}
		race(500, func(i int) {
			ops := make([]Op, isoKeys)
			for j := range ops {
				ops[j] = Op{Kind: "put", Key: isoKey(j), Value: strconv.Itoa(isoInitial + i)}
			}
			mustBatch(t, r, ops)
		}, func() {
			if t.Failed() {
				return
			}
			for j := 0; j < 20; j++ {
				if first, last := get(isoKey(0)), get(isoKey(isoKeys-1)); last < first {
					t.Errorf("get saw round %d at %s, then round %d at %s", first, isoKey(0), last, isoKey(isoKeys-1))
					return
				}
			}
		})
	})
}
