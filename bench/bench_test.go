package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

var smoke = options{seed: 1, seconds: 0.5, smoke: true}

// A smoke-sized pass of every workload, measured and traced: every oracle
// must hold and every metric of the contract must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Chdir(t.TempDir()) // the traced run writes out/trace.json under the working directory
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := smoke
			o.trace = trace
			res, err := w.run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Attempted == 0 || res.Failed != 0 || res.Metrics[failRatio] != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, res.Failed, res.Attempted, res.Reasons)
			}
			for _, d := range defs(trace) {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s trace=%v: metric %s not reported", w.name, trace, d.name)
				}
			}
			for name := range res.Metrics {
				if !slices.ContainsFunc(defs(trace), func(d metricDef) bool { return d.name == name }) && name != failRatio {
					t.Errorf("%s trace=%v: reports %s, which the contract does not list", w.name, trace, name)
				}
			}
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var traces []struct {
		Workload string
		Spans    []spanJSON
	}
	if err := json.Unmarshal(data, &traces); err != nil || len(traces) != 1 || len(traces[0].Spans) == 0 {
		t.Errorf("trace.json: %v, %d traces", err, len(traces))
	}
}

// A failed oracle must fail the run, not vanish into a rate.
func TestWrongAnswerCountsAsFailure(t *testing.T) {
	spec := servePoint(true)
	spec.value = func(int) string { return "not the value the oracle expects" }
	inst, err := setupServe(spec, serveStreams(spec, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	issuers, _ := inst.enter(0)
	tm := smoke.timing()
	tm.intervals = 1
	m := runClosedLoop(issuers, 0, tm)
	failed, reasons := m.failed()
	if failed == 0 || reasons["get: wrong value"] == 0 {
		t.Errorf("%d failures %v, want wrong-value failures", failed, reasons)
	}
	res := &result{Attempted: 10, Failed: 2, Reasons: map[string]int64{"x": 2}}
	res.failWhole("audit")
	if res.Failed != 10 || res.Reasons["audit"] != 8 {
		t.Errorf("failWhole: %+v", res)
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in
// metrics.go and run.go are what the program emits. They must agree.
func TestManifestInSync(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the -seconds default is %v", manifest.RunSeconds, defaultSeconds)
	}
	var names []struct{ Name, Why string }
	for _, w := range workloads {
		names = append(names, struct{ Name, Why string }{w.name, w.why})
	}
	if !reflect.DeepEqual(manifest.Workloads, names) {
		t.Errorf("workloads differ:\n manifest %v\n program  %v", manifest.Workloads, names)
	}
	table := func(ms []metric, bounded bool) (out []metricDef) {
		for _, m := range ms {
			d := metricDef{name: m.Name, unit: m.Unit, better: m.Better}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			} else if bounded {
				d.bound = *m.Bound
			}
			out = append(out, d)
		}
		return out
	}
	if got := table(manifest.EndToEnd, true); !reflect.DeepEqual(got, bounded()) {
		t.Errorf("end_to_end differs:\n manifest %v\n program  %v", got, bounded())
	}
	if got := table(manifest.PerLayer, false); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs:\n manifest %v\n program  %v", got, perLayer)
	}
}
