package main

import (
	"bytes"
	"net/http"
)

// An issuer is one closed-loop client's way into the program. The loops
// drive it in three steps so that only call is timed as the operation:
// prepare and verify are the load generator's own work.
type issuer interface {
	prepare(i int)  // stage the i-th operation of this client's stream
	call() error    // run it, entering the program
	verify() string // check the reply; "" when it is right
}

// outcome is why the staged operation failed, "" if it did not.
func outcome(is issuer, err error) string {
	if err != nil {
		return err.Error()
	}
	return is.verify()
}

// The serve_* workloads can enter the request path at four depths; the
// measured run uses the first only.
var depthLayers = []string{"transport", "server.handlers", "server.router", "server.backend"}

// stream is the cyclic request stream every serve issuer reads from.
type stream struct {
	spec *serveSpec
	reqs []request
	rq   *request // the staged request
}

func (s *stream) prepare(i int) { s.rq = &s.reqs[i%len(s.reqs)] }

// body is a request body that is rewound, not reallocated, per request.
type body struct{ bytes.Reader }

func (*body) Close() error { return nil }

// setTarget points the reusable req at the staged request.
func setTarget(req *http.Request, b *body, rq *request) {
	req.URL.RawQuery = rq.query
	if rq.body != nil {
		b.Reset(rq.body)
		req.Body = b
		req.ContentLength = int64(len(rq.body))
	}
}

func newRequests(base string) (reqs [numKinds]*http.Request) {
	for k := range reqs {
		req, err := http.NewRequest(kindMethod[k], base+kindPath[k], nil)
		if err != nil {
			panic(err) // the method and path tables are constants
		}
		if kindMethod[k] == "POST" {
			req.Header.Set("Content-Type", "application/json")
		}
		reqs[k] = req
	}
	return reqs
}

// httpDepth is depth 0: loopback HTTP over this client's one keep-alive
// connection.
type httpDepth struct {
	stream
	client  *http.Client
	targets [numKinds]*http.Request
	body    body
	status  int
	reply   bytes.Buffer
}

func newHTTPDepth(s stream, base string) *httpDepth {
	return &httpDepth{stream: s, targets: newRequests(base), client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (d *httpDepth) prepare(i int) {
	d.stream.prepare(i)
	setTarget(d.targets[d.rq.kind], &d.body, d.rq)
}

func (d *httpDepth) call() error {
	resp, err := d.client.Do(d.targets[d.rq.kind])
	if err != nil {
		return err
	}
	d.status = resp.StatusCode
	d.reply.Reset()
	_, err = d.reply.ReadFrom(resp.Body)
	resp.Body.Close()
	return err
}

func (d *httpDepth) verify() string {
	return checkReply(d.spec, d.rq, d.status, d.reply.Bytes())
}

func (d *httpDepth) close() { d.client.CloseIdleConnections() }

// recorder is the ResponseWriter depth 1 hands the handler: reused, so
// everything allocated at that depth is the handler's.
type recorder struct {
	header http.Header
	status int
	reply  bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { return r.reply.Write(b) }

// handlerDepth is depth 1: Server.Handler() with no socket.
type handlerDepth struct {
	stream
	handler http.Handler
	targets [numKinds]*http.Request
	body    body
	rec     recorder

	reqBytes, respBytes int64 // totals over the requests verified
}

func newHandlerDepth(s stream, h http.Handler) *handlerDepth {
	return &handlerDepth{stream: s, handler: h, targets: newRequests(""), rec: recorder{header: http.Header{}}}
}

func (d *handlerDepth) prepare(i int) {
	d.stream.prepare(i)
	setTarget(d.targets[d.rq.kind], &d.body, d.rq)
	clear(d.rec.header)
	d.rec.status = http.StatusOK
	d.rec.reply.Reset()
}

func (d *handlerDepth) call() error {
	d.handler.ServeHTTP(&d.rec, d.targets[d.rq.kind])
	return nil
}

func (d *handlerDepth) verify() string {
	d.reqBytes += int64(len(kindPath[d.rq.kind]) + 1 + len(d.rq.query) + len(d.rq.body))
	d.respBytes += int64(d.rec.reply.Len())
	return checkReply(d.spec, d.rq, d.rec.status, d.rec.reply.Bytes())
}

// routerDepth is depth 2: the Router with pre-decoded arguments.
type routerDepth struct {
	stream
	router *Router
	value  string
	found  bool
	res    []OpResult
	kvs    []KV
	kvsOut int64 // KVs scans returned
}

func (d *routerDepth) call() (err error) {
	switch pre := d.rq.pre; d.rq.kind {
	case kGet:
		d.value, d.found, err = d.router.Get(pre.key)
	case kPut, kBatch:
		d.res, err = d.router.Batch(pre.ops)
	case kScan:
		d.kvs, err = d.router.Scan(pre.key, "", scanLimit)
	}
	return err
}

func (d *routerDepth) verify() string {
	switch d.rq.kind {
	case kGet:
		return checkGet(d.rq, d.found, d.value)
	case kPut:
		if len(d.res) != 1 || !d.res[0].Found {
			return "put: not ok"
		}
	case kBatch:
		return checkResults(d.rq, d.res)
	case kScan:
		d.kvsOut += int64(len(d.kvs))
		return checkScan(d.spec, d.rq, d.kvs)
	}
	return ""
}

// backendDepth is depth 3: the least Backend work the request needs, on
// standalone shards. Ops arrive split by owning shard and a scan's limit
// is pushed down to every shard, so whatever the router adds on top of
// this (grouping, locking, unbounded fetches, sorting) is the router's.
type backendDepth struct {
	stream
	shards []Backend
	value  string
	found  bool
	res    [numShards][]OpResult // per group of rq.pre.split
	kvs    [numShards][]KV
	calls  int64 // Backend calls made
}

func (d *backendDepth) call() (err error) {
	switch pre := d.rq.pre; d.rq.kind {
	case kGet:
		d.calls++
		d.value, d.found, err = d.shards[pre.shard].Get(pre.key)
	case kPut, kBatch:
		for g, group := range pre.split {
			d.calls++
			if d.res[g], err = d.shards[group.shard].Apply(group.ops); err != nil {
				return err
			}
		}
	case kScan:
		for s, shard := range d.shards {
			d.calls++
			if d.kvs[s], err = shard.Scan(pre.key, "", scanLimit); err != nil {
				return err
			}
		}
	}
	return err
}

func (d *backendDepth) verify() string {
	switch d.rq.kind {
	case kGet:
		return checkGet(d.rq, d.found, d.value)
	case kPut, kBatch:
		for g, group := range d.rq.pre.split {
			if len(d.res[g]) != len(group.ops) {
				return "batch: wrong result count"
			}
			for j, r := range d.res[g] {
				if r.Key != group.ops[j].Key || !r.Found || (d.rq.kind == kBatch && !isInt(r.Value)) {
					return "batch: wrong result"
				}
			}
		}
	case kScan:
		// The page is the first scanLimit keys of the shards' union; each
		// shard returned its own first scanLimit, so every key of the
		// page must be among them exactly once.
		want, inPage := min(scanLimit, d.spec.keys-d.rq.idx), 0
		for _, kvs := range d.kvs {
			for _, kv := range kvs {
				i := keyIndex(kv.Key)
				if i < d.rq.idx || !isIndexValue(kv.Value, i) {
					return "scan: wrong pair"
				}
				if i < d.rq.idx+want {
					inPage++
				}
			}
		}
		if inPage != want {
			return "scan: wrong count"
		}
	}
	return ""
}
