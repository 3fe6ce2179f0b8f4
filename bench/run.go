package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// workload is one named traffic shape. Exactly one of spec (a serve_*
// workload over the HTTP tier) and engine (a lib_* workload on an
// embedded TM) is set.
type workload struct {
	name   string
	why    string
	spec   func(smoke bool) *serveSpec
	engine *libEngine
}

var workloads = []workload{
	{name: "serve_point", spec: servePoint,
		why: "smallest request: socket, net/http and codec dominate; bypasses router and engine work"},
	{name: "serve_batch", spec: serveBatch,
		why: "fattest request: 16-op cross-shard batches through decode, grouping, router 2PL and 4 Apply calls"},
	{name: "serve_scan", spec: serveScan,
		why: "paginated scans beside writers: Router.Scan's unbounded per-shard fetch, sort and truncate dominate"},
	{name: "lib_stm", engine: &stmEngine,
		why: "embedded TL2: hot-pair update contention plus 256-Var read-only audits under concurrent updaters"},
	{name: "lib_mv", engine: &mvEngine,
		why: "the identical stream on mvstm: snapshot reads never abort but walk chains and retain versions"},
}

func workloadByName(name string) (workload, bool) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return workload{}, false
	}
	return workloads[i], true
}

// options are the benchmark's flags.
type options struct {
	seed    int64
	seconds float64 // measured time per run
	trace   bool
	smoke   bool
}

const (
	defaultSeconds = 15 // BENCHMARK.json's run_seconds: five 3-second intervals

	intervals = 5 // measured intervals; a rate or latency metric is their median
	setupReps = 5 // least set-ups per measured run; setup_s is their median

	// setupFloor is the least time a measured run spends setting up, so
	// that a millisecond set-up (the lib_* Vars) is a median of hundreds.
	setupFloor = time.Second
)

func (o options) timing() timing {
	t := timing{warmup: 2 * time.Second, intervals: intervals}
	if o.smoke {
		t.warmup = 50 * time.Millisecond
	}
	t.interval = time.Duration(o.seconds / intervals * float64(time.Second))
	return t
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Reasons   map[string]int64   `json:"reasons,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *result) addFailures(n int64, reasons map[string]int64) {
	r.Failed += n
	for reason, k := range reasons {
		r.Reasons[reason] += k
	}
}

// failWhole counts the entire workload as failed: a broken invariant
// means no single reply can be trusted.
func (r *result) failWhole(reason string) {
	r.Reasons[reason] += r.Attempted - r.Failed
	r.Failed = r.Attempted
}

// instance is a workload set up and ready for clients.
type instance interface {
	layers() []string                  // where a request can enter, outermost first
	enter(depth int) ([]issuer, error) // one issuer per client, entering at layers()[depth]
	mask() int                         // which operations are timed; see runClosedLoop
	audit() string                     // post-run invariant; "" when it holds
	release()                          // drop what the load generator built; the program's state stays
	close()
}

func (w workload) setup(o options, streams any) (instance, error) {
	if w.spec != nil {
		return setupServe(w.spec(o.smoke), streams.([][]request))
	}
	return setupLib(w.engine, streams.([][]txn)), nil
}

func (w workload) streams(o options) any {
	if w.spec != nil {
		return serveStreams(w.spec(o.smoke), o.seed, o.trace)
	}
	return libStreams(o.seed)
}

// setUp sets w up until setupReps set-ups and setupFloor of time are
// both spent (once for a traced run, which does not report setup_s),
// tearing each instance down before the next so that one dataset is live
// at a time. It returns the last instance and the median set-up time.
func (w workload) setUp(o options, streams any) (instance, float64, error) {
	reps, floor := setupReps, setupFloor
	if o.trace {
		reps, floor = 1, 0
	} else if o.smoke {
		floor = 0
	}
	var inst instance
	var times []float64
	for spent := time.Duration(0); len(times) < reps || spent < floor; {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		steal, cpu, start := hostSteal(), processCPU(), time.Now()
		var err error
		if inst, err = w.setup(o, streams); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		wall := time.Since(start)
		times = append(times, givenTime(wall, processCPU()-cpu, hostSteal()-steal).Seconds())
		spent += wall
	}
	return inst, median(times), nil
}

// run performs one measured or traced run of w.
func (w workload) run(o options) (*result, error) {
	streams := w.streams(o)
	inst, setupS, err := w.setUp(o, streams)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	res := &result{Workload: w.name, Reasons: map[string]int64{}, Metrics: map[string]float64{}}
	for _, d := range defs(o.trace) {
		res.Metrics[d.name] = 0 // a layer the workload does not cross reports 0
	}
	if o.trace {
		if err := w.traced(o, inst, res); err != nil {
			return nil, err
		}
	} else {
		issuers, err := inst.enter(0)
		if err != nil {
			return nil, err
		}
		m := runClosedLoop(issuers, inst.mask(), o.timing())
		res.Attempted = m.attempted()
		res.addFailures(m.failed())
		iv := m.intervalStats()
		fmt.Printf("# %s: intervals completed %.6g ops per given second with %.3f of the CPU time stolen\n", w.name, iv.rates, iv.steals)
		res.Metrics["ops_per_s"] = median(iv.rates)
		res.Metrics["p50_us"] = median(iv.p50s)
		res.Metrics["p95_us"] = median(iv.p95s)
		res.Metrics["cpu_us_per_op"] = median(iv.cpus)
		res.Metrics["allocs_per_op"] = median(iv.allocs)
		res.Metrics["alloc_bytes_per_op"] = median(iv.bytes)
		res.Metrics["setup_s"] = setupS
	}
	if reason := inst.audit(); reason != "" {
		res.failWhole(reason)
	}
	if !o.trace {
		// The space half: what the dataset, the engine's metadata and any
		// retained versions still hold once the load generator's own
		// buffers are gone.
		streams = nil
		inst.release()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Metrics["live_heap_mb"] = float64(ms.HeapAlloc) / 1e6
	}
	res.Metrics[failRatio] = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// serveInst is a preloaded server listening on loopback.
type serveInst struct {
	spec    *serveSpec
	streams [][]request
	handler http.Handler
	router  *Router
	http    *http.Server
	served  chan error
	base    string
	clients []*httpDepth
	shards  []Backend // traced run: the standalone shards of the deepest depth
}

func setupServe(spec *serveSpec, streams [][]request) (*serveInst, error) {
	handler, router, err := newTier()
	if err != nil {
		return nil, err
	}
	if err := preload(spec, func(ops []Op) error { _, err := router.Batch(ops); return err }); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveInst{spec: spec, streams: streams, handler: handler, router: router,
		http: &http.Server{Handler: handler}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// preload stores every key's initial value in batches of 500 puts.
func preload(spec *serveSpec, apply func([]Op) error) error {
	const chunk = 500
	ops := make([]Op, 0, chunk)
	for i := 0; i < spec.keys; i++ {
		ops = append(ops, Op{Kind: "put", Key: keyOf(i), Value: spec.value(i)})
		if len(ops) == chunk || i == spec.keys-1 {
			if err := apply(ops); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			ops = ops[:0]
		}
	}
	return nil
}

func (s *serveInst) stream(c int) stream { return stream{spec: s.spec, reqs: s.streams[c]} }

func (s *serveInst) mask() int { return 0 }

func (s *serveInst) layers() []string { return depthLayers }

func (s *serveInst) enter(depth int) (out []issuer, err error) {
	if depth == 3 {
		// The deepest depth runs on standalone shards preloaded like the
		// server's, built only now so they are not in the heap before.
		s.shards = newBackends()
		err = preload(s.spec, func(ops []Op) error {
			var groups [numShards][]Op
			for _, op := range ops {
				groups[shardOf(op.Key)] = append(groups[shardOf(op.Key)], op)
			}
			for i, group := range groups {
				if len(group) == 0 {
					continue
				}
				if _, err := s.shards[i].Apply(group); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for c := range s.streams {
		switch st := s.stream(c); depth {
		case 0:
			d := newHTTPDepth(st, s.base)
			s.clients = append(s.clients, d)
			out = append(out, d)
		case 1:
			out = append(out, newHandlerDepth(st, s.handler))
		case 2:
			out = append(out, &routerDepth{stream: st, router: s.router})
		case 3:
			out = append(out, &backendDepth{stream: st, shards: s.shards})
		}
	}
	return out, err
}

// audit checks conservation on a workload whose batches move value
// around: a full scan must still sum to the preloaded total.
func (s *serveInst) audit() string {
	if !s.spec.conserve {
		return ""
	}
	kvs, err := s.router.Scan("", "", 0)
	if err != nil {
		return "audit: " + err.Error()
	}
	if reason := conserved(s.spec, kvs); reason != "" || s.shards == nil {
		return reason
	}
	kvs = nil
	for _, shard := range s.shards {
		part, err := shard.Scan("", "", 0)
		if err != nil {
			return "audit: " + err.Error()
		}
		kvs = append(kvs, part...)
	}
	return conserved(s.spec, kvs)
}

func conserved(spec *serveSpec, kvs []KV) string {
	var sum, want int64
	for _, kv := range kvs {
		n, err := strconv.ParseInt(kv.Value, 10, 64)
		if err != nil {
			return "audit: non-integer value"
		}
		sum += n
	}
	for i := range spec.keys {
		n, _ := strconv.ParseInt(spec.value(i), 10, 64)
		want += n
	}
	if len(kvs) != spec.keys || sum != want {
		return fmt.Sprintf("audit: %d keys sum to %d, want %d keys summing to %d", len(kvs), sum, spec.keys, want)
	}
	return ""
}

func (s *serveInst) release() {
	for _, c := range s.clients {
		c.close()
	}
	s.clients, s.streams = nil, nil
}

func (s *serveInst) close() {
	s.release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		s.http.Close()
	}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("bench: server:", err)
	}
}

// libInst is a set of Vars shared by the clients of an embedded TM.
type libInst struct {
	engine    *libEngine
	streams   [][]txn
	newClient func() libClient
}

func setupLib(e *libEngine, streams [][]txn) *libInst {
	return &libInst{engine: e, streams: streams, newClient: e.newVars(libVars, libInitial)}
}

func (l *libInst) layers() []string { return []string{l.engine.layer} }

func (l *libInst) enter(int) (out []issuer, err error) {
	for _, s := range l.streams {
		out = append(out, &libIssuer{stream: s, client: l.newClient()})
	}
	return out, nil
}

func (l *libInst) mask() int { return sampleEvery - 1 }

// audit reads every window once more: transfers stay inside a pair and
// windows hold whole pairs, so every window still sums to its initial
// total.
func (l *libInst) audit() string {
	c := l.newClient()
	for lo := 0; lo < libVars; lo += libWindow {
		if sum, err := c.audit(lo, libWindow); err != nil || sum != libWindow*libInitial {
			return fmt.Sprintf("audit: window %d sums to %d (%v)", lo, sum, err)
		}
	}
	return ""
}

func (l *libInst) release() { l.streams = nil }
func (l *libInst) close()   {}

// libIssuer runs one client's transaction stream.
type libIssuer struct {
	stream []txn
	client libClient
	t      txn
	sum    int64
}

func (l *libIssuer) prepare(i int) { l.t = l.stream[i%len(l.stream)] }

func (l *libIssuer) call() (err error) {
	if l.t.audit {
		l.sum, err = l.client.audit(int(l.t.a), libWindow)
		return err
	}
	return l.client.transfer(int(l.t.a), int(l.t.b))
}

// verify is the opacity oracle: every read-only transaction must see a
// consistent snapshot, in which every window sums to its initial total.
func (l *libIssuer) verify() string {
	if l.t.audit && l.sum != libWindow*libInitial {
		return "audit: inconsistent snapshot"
	}
	return ""
}
