package main

import (
	"fmt"
	"slices"
	"time"
)

// traced performs the traced run of w: an untraced reference pass, then
// one traced pass per entry depth over the same requests, and turns the
// spans and the counters taken at the phase boundaries into the
// per-layer metrics. The run's time is split evenly over the reference
// pass and the depths.
func (w workload) traced(o options, inst instance, res *result) error {
	layers := inst.layers()
	t := o.timing()
	length := time.Duration(o.seconds / float64(1+len(layers)) * float64(time.Second))
	t.interval = length / time.Duration(t.intervals)
	issuers, err := inst.enter(0)
	if err != nil {
		return err
	}
	ref := runClosedLoop(issuers, inst.mask(), t)
	res.Attempted = ref.attempted()
	res.addFailures(ref.failed())
	refStats := ref.intervalStats()

	origin := time.Now()
	var phases []*phase
	var sets [][]issuer
	var n []int
	for depth, layer := range layers {
		issuers, err := inst.enter(depth)
		if err != nil {
			return err
		}
		p, done := tracePhase(layer, issuers, inst.mask(), n, length, origin)
		if n == nil {
			n = done
		}
		sets = append(sets, issuers)
		phases = append(phases, p)
		res.Attempted += p.ops
		res.addFailures(p.failed, p.reasons)
	}

	m := res.Metrics
	top := phases[0]
	ops := float64(top.ops)
	m["loadgen.gen_us_per_op"] = us(top.gen) / float64(top.timed())
	m["loadgen.verify_us_per_op"] = us(top.verify) / float64(top.timed())
	m["loadgen.samples"] = float64(top.timed())
	m["loadgen.interval_spread"] = spread(refStats.rates)
	lat := top.durations()
	slices.Sort(lat)
	m["client.ops_per_s"] = median(refStats.rates)
	m["client.p50_us"] = median(refStats.p50s)
	m["client.p95_us"] = median(refStats.p95s)
	m["client.cpu_us_per_op"] = median(refStats.cpus)
	m["client.alloc_bytes_per_op"] = median(refStats.bytes)
	m["client.p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	m["client.p999_us"] = float64(percentile(lat, 0.999)) / 1e3
	m["client.max_us"] = float64(lat[len(lat)-1]) / 1e3
	m["trace.overhead_ratio"] = top.run().perGivenSecond(top.ops) / median(refStats.rates)

	// Self costs telescope: what a depth spends beyond the depth below it
	// belongs to the layer it enters at.
	spans := make([][][]span, len(phases))
	for d, p := range phases {
		spans[d] = p.spans
	}
	self, err := selfTimes(spans)
	if err != nil {
		return err
	}
	var total time.Duration
	for d, p := range phases {
		allocs, bytes := p.run().mallocs()/float64(p.ops), p.run().allocBytes()/float64(p.ops)
		if d+1 < len(phases) {
			below := phases[d+1]
			allocs -= below.run().mallocs() / float64(below.ops)
			bytes -= below.run().allocBytes() / float64(below.ops)
		}
		m[p.layer+".self_us"] = self[d] / 1e3
		m[p.layer+".self_allocs"] = allocs
		if _, listed := m[p.layer+".self_bytes"]; listed { // not for the engines, whose transactions allocate few and small
			m[p.layer+".self_bytes"] = bytes
		}
		total += time.Duration(self[d])
	}
	fmt.Printf("# %s: layer self times sum to %.2f us of a %.2f us outermost span\n",
		w.name, us(total), mean(lat)/1e3)

	for d, issuers := range sets {
		var reqBytes, respBytes, kvsOut, calls int64
		for _, is := range issuers {
			switch d := is.(type) {
			case *handlerDepth:
				reqBytes, respBytes = reqBytes+d.reqBytes, respBytes+d.respBytes
			case *routerDepth:
				kvsOut += d.kvsOut
			case *backendDepth:
				calls += d.calls
			}
		}
		switch layers[d] {
		case "server.handlers":
			m["server.handlers.req_bytes"] = float64(reqBytes) / ops
			m["server.handlers.resp_bytes"] = float64(respBytes) / ops
		case "server.router":
			if kvsOut > 0 {
				m["server.router.bytes_per_kv"] = phases[d].run().allocBytes() / float64(kvsOut)
			}
		case "server.backend":
			// At this commit the router calls each shard a request touches
			// exactly once, so both read the same count.
			m["server.backend.calls_per_op"] = float64(calls) / ops
			m["server.router.shards_per_op"] = float64(calls) / ops
		}
	}

	engineMetrics(m, top.before, top.at, ops)
	run := top.run()
	m["runtime.gc_cycles"] = float64(run.to.mem.NumGC - run.from.mem.NumGC)
	m["runtime.gc_pause_us_per_s"] = float64(run.to.mem.PauseTotalNs-run.from.mem.PauseTotalNs) / 1e3 / run.wall().Seconds()
	m["runtime.heap_peak_mb"] = float64(run.to.mem.HeapSys) / 1e6
	m["runtime.gc_cpu_share"] = (run.to.gcCPU - run.from.gcCPU) / run.cpu().Seconds()
	m["host.steal_share"] = run.stealShare()

	path, err := writeTrace(w.name, o.seed, phases)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# %s: spans written to %s\n", w.name, path)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
