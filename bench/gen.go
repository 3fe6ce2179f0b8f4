package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
)

// The generator: every request a workload issues is built here from the
// seed, before the timed region, with its body already marshalled. The
// program under test receives only what this file produces.

const (
	clients    = 2   // closed-loop callers; nproc is 2
	zipfS      = 1.1 // key popularity skew
	batchOps   = 16  // ops per /batch request
	scanLimit  = 100 // KVs per /scan page
	libVars    = 8192
	libWindow  = 256 // Vars an audit reads
	libInitial = 100 // initial value of every Var
	libCycle   = 1 << 16
)

type kind uint8

const (
	kGet kind = iota
	kPut
	kBatch
	kScan
	numKinds
)

var (
	kindName   = [numKinds]string{"get", "put", "batch", "scan"}
	kindMethod = [numKinds]string{"GET", "POST", "POST", "GET"}
	kindPath   = [numKinds]string{"/get", "/put", "/batch", "/scan"}
)

// request is one generated HTTP request and what its reply is checked
// against.
type request struct {
	kind  kind
	query string   // URL query of a GET
	body  []byte   // pre-marshalled body of a POST
	idx   int      // key index of a get or put; first key of a scan
	batch []uint32 // key index of each op of a batch, in request order
	pre   *decoded // traced run only: the request below the codec
}

// decoded is a request as the router (ops, key) and the backends (split)
// receive it.
type decoded struct {
	key   string       // get, put: the key; scan: from
	shard int          // get: the owning shard
	ops   []Op         // put: one op; batch: all of them
	split []shardGroup // ops grouped by owning shard, ascending shard id
}

type shardGroup struct {
	shard int
	ops   []Op
}

// keyOf formats the i-th key; zero-padded so index order is key order.
func keyOf(i int) string { return fmt.Sprintf("user%09d", i) }

// keyIndex inverts keyOf without allocating; -1 for anything else.
func keyIndex[T string | []byte](k T) int {
	if len(k) != 13 || string(k[:4]) != "user" {
		return -1
	}
	n := 0
	for j := 4; j < len(k); j++ {
		c := k[j]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// serveSpec is the shape of one serve_* workload.
type serveSpec struct {
	keys     int
	cycle    int                  // requests per client before the stream repeats
	value    func(i int) string   // preloaded (and rewritten) value of key i
	next     func(g *gen) request // draws one request
	conserve bool                 // values are integers whose sum the batches conserve
}

type gen struct {
	r    *rand.Rand
	zipf *rand.Zipf
	spec *serveSpec
}

func newGen(seed int64, client int, spec *serveSpec) *gen {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	return &gen{r: r, zipf: rand.NewZipf(r, zipfS, 1, uint64(spec.keys-1)), spec: spec}
}

func (g *gen) get(i int) request {
	return request{kind: kGet, idx: i, query: "key=" + keyOf(i)}
}

func (g *gen) put(i int) request {
	body, _ := json.Marshal(map[string]string{"key": keyOf(i), "value": g.spec.value(i)}) // cannot fail: strings only
	return request{kind: kPut, idx: i, body: body}
}

func indexValue(i int) string { return "v" + strconv.Itoa(i) }

// servePoint: 90% Zipf point gets, 10% puts rewriting the same value.
func servePoint(smoke bool) *serveSpec {
	return &serveSpec{keys: scaled(100_000, smoke), cycle: scaled(1<<15, smoke), value: indexValue,
		next: func(g *gen) request {
			x, i := g.r.Float64(), int(g.zipf.Uint64())
			if x < 0.90 {
				return g.get(i)
			}
			return g.put(i)
		}}
}

// serveBatch: 95% 16-op transfer batches (8 pairs of -1/+1 on Zipf keys),
// 5% 16-get read-only batches.
func serveBatch(smoke bool) *serveSpec {
	return &serveSpec{keys: scaled(100_000, smoke), cycle: scaled(1<<12, smoke), conserve: true,
		value: func(int) string { return "100" },
		next: func(g *gen) request {
			write := g.r.Float64() < 0.95
			rq := request{kind: kBatch, batch: make([]uint32, batchOps)}
			ops := make([]Op, batchOps)
			for j := range ops {
				i := int(g.zipf.Uint64())
				rq.batch[j] = uint32(i)
				ops[j] = Op{Kind: "get", Key: keyOf(i)}
				if write {
					ops[j].Kind, ops[j].Delta = "add", int64(2*(j%2)-1)
				}
			}
			rq.body, _ = json.Marshal(map[string]any{"ops": ops}) // cannot fail: plain structs
			rq.pre = &decoded{ops: ops}
			return rq
		}}
}

// serveScan: 90% 100-KV pages from a uniform start with no upper bound,
// 10% puts rewriting values in the same keyspace.
func serveScan(smoke bool) *serveSpec {
	return &serveSpec{keys: scaled(20_000, smoke), cycle: scaled(1<<12, smoke), value: indexValue,
		next: func(g *gen) request {
			x, i := g.r.Float64(), g.r.Intn(g.spec.keys)
			if x < 0.90 {
				return request{kind: kScan, idx: i, query: "from=" + keyOf(i) + "&limit=" + strconv.Itoa(scanLimit)}
			}
			return g.put(i)
		}}
}

// scaled shrinks a size for -smoke runs.
func scaled(n int, smoke bool) int {
	if smoke {
		return n / 50
	}
	return n
}

// serveStreams draws every client's request stream. With predecode it
// also attaches the decoded form the deeper trace depths enter with;
// otherwise that form is dropped so it does not sit in the heap.
func serveStreams(spec *serveSpec, seed int64, predecode bool) [][]request {
	streams := make([][]request, clients)
	for c := range streams {
		g := newGen(seed, c, spec)
		streams[c] = make([]request, spec.cycle)
		for i := range streams[c] {
			rq := spec.next(g)
			if predecode {
				rq.pre = predecoded(rq, spec)
			} else {
				rq.pre = nil
			}
			streams[c][i] = rq
		}
	}
	return streams
}

func predecoded(rq request, spec *serveSpec) *decoded {
	d := rq.pre
	if d == nil {
		d = &decoded{key: keyOf(rq.idx)}
		d.shard = shardOf(d.key)
	}
	if rq.kind == kPut {
		d.ops = []Op{{Kind: "put", Key: d.key, Value: spec.value(rq.idx)}}
	}
	var groups [numShards][]Op
	for _, op := range d.ops {
		s := shardOf(op.Key)
		groups[s] = append(groups[s], op)
	}
	for s, ops := range groups {
		if len(ops) > 0 {
			d.split = append(d.split, shardGroup{shard: s, ops: ops})
		}
	}
	return d
}

// txn is one generated lib_* transaction: an audit of the window of
// libWindow Vars starting at a, or a transfer of 1 from Var a to Var b
// of one pair.
type txn struct {
	audit bool
	a, b  uint32
}

// libStreams draws every client's transaction stream: 80% transfers
// inside a Zipf-chosen pair, 20% audits of an aligned window.
func libStreams(seed int64) [][]txn {
	streams := make([][]txn, clients)
	for c := range streams {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		zipf := rand.NewZipf(r, zipfS, 1, libVars/2-1)
		streams[c] = make([]txn, libCycle)
		for i := range streams[c] {
			if r.Float64() < 0.80 {
				pair, dir := uint32(zipf.Uint64()), uint32(r.Intn(2))
				streams[c][i] = txn{a: 2*pair + dir, b: 2*pair + 1 - dir}
			} else {
				streams[c][i] = txn{audit: true, a: uint32(r.Intn(libVars/libWindow)) * libWindow}
			}
		}
	}
	return streams
}

// streamHash fingerprints everything the program will receive from a
// workload's generator at seed: the determinism tests compare it.
func streamHash(workload string, seed int64) (string, error) {
	h := sha256.New()
	w, ok := workloadByName(workload)
	if !ok {
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	if w.spec != nil {
		for _, stream := range serveStreams(w.spec(false), seed, false) {
			for _, rq := range stream {
				h.Write([]byte{byte(rq.kind)})
				h.Write([]byte(rq.query))
				h.Write(rq.body)
				h.Write([]byte{0})
			}
		}
	} else {
		for _, stream := range libStreams(seed) {
			for _, t := range stream {
				rec := [9]byte{}
				if t.audit {
					rec[0] = 1
				}
				binary.LittleEndian.PutUint32(rec[1:], t.a)
				binary.LittleEndian.PutUint32(rec[5:], t.b)
				h.Write(rec[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
