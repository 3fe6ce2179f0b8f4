package main

// metricDef is one row of the metric contract. BENCHMARK.json repeats
// these tables; TestManifestInSync keeps the two from drifting.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening as a share of the baseline; 0 if the metric is not bounded
}

// endToEnd is what a caller of the KV server or of an embedded TM sees;
// the measured run prints every one of them. Only those with a bound are
// regression gates, listed in BENCHMARK.json and sent to the driver. The
// others do not repeat on a shared 2-CPU host (README.md, "What repeats
// on this host"): their run-to-run spread is wider than any bound the
// contract allows, so they are reported as diagnostics, and the traced
// run repeats them as client.*.
//
// fail_ratio is printed with them but is not a BENCHMARK.json metric: it
// is 0 on a correct run, and the driver reads attempted/failed instead.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0},
	{"p50_us", "us", "lower", 0},
	{"p95_us", "us", "lower", 0},
	{"cpu_us_per_op", "us", "lower", 0},
	{"allocs_per_op", "1", "lower", 0.15},
	{"alloc_bytes_per_op", "B", "lower", 0},
	{"live_heap_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// bounded returns the end-to-end metrics that are regression gates.
func bounded() (out []metricDef) {
	for _, d := range endToEnd {
		if d.bound > 0 {
			out = append(out, d)
		}
	}
	return out
}

const failRatio = "fail_ratio"

// perLayer lists every per-layer metric of the traced run, one block per
// module on the request path. A workload that does not cross a layer
// reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"loadgen.gen_us_per_op", "us", "lower", 0},
	{"loadgen.verify_us_per_op", "us", "lower", 0},
	{"loadgen.samples", "count", "higher", 0},
	{"loadgen.interval_spread", "1", "lower", 0},

	{"client.ops_per_s", "1/s", "higher", 0},
	{"client.p50_us", "us", "lower", 0},
	{"client.p95_us", "us", "lower", 0},
	{"client.cpu_us_per_op", "us", "lower", 0},
	{"client.alloc_bytes_per_op", "B", "lower", 0},
	{"client.p99_us", "us", "lower", 0},
	{"client.p999_us", "us", "lower", 0},
	{"client.max_us", "us", "lower", 0},

	{"transport.self_us", "us", "lower", 0},
	{"transport.self_allocs", "1", "lower", 0},
	{"transport.self_bytes", "B", "lower", 0},

	{"server.handlers.self_us", "us", "lower", 0},
	{"server.handlers.self_allocs", "1", "lower", 0},
	{"server.handlers.self_bytes", "B", "lower", 0},
	{"server.handlers.req_bytes", "B", "lower", 0},
	{"server.handlers.resp_bytes", "B", "lower", 0},

	{"server.router.self_us", "us", "lower", 0},
	{"server.router.self_allocs", "1", "lower", 0},
	{"server.router.self_bytes", "B", "lower", 0},
	{"server.router.shards_per_op", "1", "lower", 0},
	{"server.router.bytes_per_kv", "B", "lower", 0},

	{"server.backend.self_us", "us", "lower", 0},
	{"server.backend.self_allocs", "1", "lower", 0},
	{"server.backend.self_bytes", "B", "lower", 0},
	{"server.backend.calls_per_op", "1", "lower", 0},

	{"stm.self_us", "us", "lower", 0},
	{"stm.self_allocs", "1", "lower", 0},
	{"stm.commits_per_op", "1", "lower", 0},
	{"stm.aborts_per_op", "1", "lower", 0},
	{"stm.abort_ratio", "1", "lower", 0},
	{"stm.ro_commit_share", "1", "higher", 0},
	{"stm.extensions_per_op", "1", "lower", 0},
	{"stm.clock_increments_per_commit", "1", "lower", 0},
	{"stm.abort.read_certify", "1/kop", "lower", 0},
	{"stm.abort.commit_validation", "1/kop", "lower", 0},
	{"stm.abort.lock_busy", "1/kop", "lower", 0},
	{"stm.abort.extension", "1/kop", "lower", 0},

	{"stm.mvstm.self_us", "us", "lower", 0},
	{"stm.mvstm.self_allocs", "1", "lower", 0},
	{"stm.mvstm.commits_per_op", "1", "lower", 0},
	{"stm.mvstm.aborts_per_op", "1", "lower", 0},
	{"stm.mvstm.abort_ratio", "1", "lower", 0},
	{"stm.mvstm.walk_steps_per_read", "1", "lower", 0},
	{"stm.mvstm.versions_live", "count", "lower", 0},
	{"stm.mvstm.versions_pooled_share", "1", "higher", 0},
	{"stm.mvstm.gc_sweeps_per_commit", "1", "lower", 0},
	{"stm.mvstm.chain_hwm", "count", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_share", "1", "lower", 0},
	{"runtime.gc_pause_us_per_s", "us/s", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},

	{"host.steal_share", "1", "lower", 0},

	{"trace.overhead_ratio", "1", "higher", 0},
}

// unitOf maps every metric name the benchmark prints to its unit.
var unitOf = func() map[string]string {
	u := map[string]string{failRatio: "1"}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			u[d.name] = d.unit
		}
	}
	return u
}()
