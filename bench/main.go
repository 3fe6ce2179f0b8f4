// Command bench is the repository's benchmark: five closed-loop workloads
// over the serving tier and the native engines, nine end-to-end metrics
// with regression bounds, and a traced run that attributes time and
// allocations to each module on the request path. See README.md.
//
//	go run -C bench .                 # measured run, every workload
//	go run -C bench . -trace 1        # traced run, every workload
//	go run -C bench . -aa             # two measured runs, compared against the bounds
//	go run -C bench . -workload lib_stm -seed 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() {
	var (
		o        options
		name     = flag.String("workload", "", "run this workload only, in this process (default: each in a fresh process)")
		trace    = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics; 0: measured run, printing the end-to-end metrics")
		aa       = flag.Bool("aa", false, "run the measured set twice on the same code and compare against the bounds")
		jsonPath = flag.String("json", "", "also write every result to this file")
	)
	flag.Int64Var(&o.seed, "seed", 1, "generator seed (1: default; 2: held out for later claims)")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes and a 1-second run: checks the harness, measures nothing")
	flag.Parse()
	o.trace = *trace != 0
	if o.smoke {
		o.seconds = 1
	}
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := w.run(o)
		if err != nil {
			fatal(err)
		}
		res.print(defs(o.trace))
		res.printDriverLine(driverDefs(o.trace))
		if res.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	sets := 1
	if *aa {
		sets = 2
	}
	var all [][]*result
	failed := false
	for range sets {
		results, err := runAll(o)
		if err != nil {
			fatal(err)
		}
		all = append(all, results)
		for _, r := range results {
			failed = failed || r.Failed > 0
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(report{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Sets: all,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *aa && !agree(all[0], all[1]) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// report is the -json file: where the numbers were measured, and every
// set of results (two with -aa).
type report struct {
	GoVersion  string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Traced     bool        `json:"traced"`
	Sets       [][]*result `json:"sets"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runAll runs every workload in a fresh process each, so that the
// engines' process-global clock, counters and pools start from zero and
// live_heap_mb holds one workload's data only. It relays the children's
// metric lines and collects their results and traces.
func runAll(o options) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	var traces []json.RawMessage
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0"}
		if o.trace {
			args[len(args)-1] = "1"
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		last := lines[len(lines)-1]
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		var line driverLine
		if jsonErr := json.Unmarshal([]byte(last), &line); jsonErr != nil {
			if err == nil {
				err = jsonErr
			}
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res := &result{Workload: w.name, Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
		for _, l := range lines[:len(lines)-1] { // "workload metric value unit"; remarks start with #
			if f := strings.Fields(l); len(f) == 4 && f[0] == w.name {
				if res.Metrics[f[1]], err = strconv.ParseFloat(f[2], 64); err != nil {
					return nil, fmt.Errorf("%s: %q: %w", w.name, l, err)
				}
			}
		}
		results = append(results, res)
		if o.trace {
			var one []json.RawMessage
			data, err := os.ReadFile(tracePath)
			if err == nil {
				err = json.Unmarshal(data, &one)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			traces = append(traces, one...)
		}
	}
	if o.trace {
		data, err := json.Marshal(traces)
		if err == nil {
			err = os.WriteFile(tracePath, append(data, '\n'), 0o644)
		}
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

var tracePath = filepath.Join("out", "trace.json")

// defs returns the metrics a run of the given kind reports.
func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// driverDefs returns the metrics of the driver's contract for a run of
// the given kind: BENCHMARK.json's per_layer or end_to_end.
func driverDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return bounded()
}

// print writes one "workload metric value unit" line per metric, then the
// failure reasons if any operation failed.
func (r *result) print(defs []metricDef) {
	names := []string{}
	for _, d := range defs {
		names = append(names, d.name)
	}
	for _, name := range append(names, failRatio) {
		fmt.Printf("%s %s %s %s\n", r.Workload, name, formatValue(r.Metrics[name]), unitOf[name])
	}
	reasons := make([]string, 0, len(r.Reasons))
	for reason := range r.Reasons {
		reasons = append(reasons, reason)
	}
	slices.Sort(reasons)
	for _, reason := range reasons {
		fmt.Printf("# %s: %d of %d operations failed: %s\n", r.Workload, r.Reasons[reason], r.Attempted, reason)
	}
}

// formatValue prints a value as measured, with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// driverLine is the last line of a single-workload run: the result in the
// form the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) printDriverLine(defs []metricDef) {
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = driverValue{r.Metrics[d.name], d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err) // a NaN or infinite metric: the run measured nothing
	}
	fmt.Println(string(data))
}

// agree prints, for every workload and end-to-end metric, both values of
// an A/A pair, their relative difference and the bound, and reports
// whether every bounded pair is within its bound.
func agree(a, b []*result) bool {
	ok := true
	fmt.Printf("%-12s %-20s %14s %14s %8s %6s\n", "workload", "metric", "a", "b", "diff", "bound")
	for i, ra := range a {
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.name], b[i].Metrics[d.name]
			diff := math.Abs(va-vb) / math.Abs(va)
			bound, verdict := "-", ""
			if d.bound > 0 {
				bound = strconv.FormatFloat(100*d.bound, 'f', 0, 64) + "%"
				if !(diff <= d.bound) {
					verdict, ok = "  DISAGREE", false
				}
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %7.2f%% %6s%s\n", ra.Workload, d.name, va, vb, 100*diff, bound, verdict)
		}
	}
	return ok
}
