// Package benchfmt parses `go test -bench` text output into the
// benchmark-baseline structure committed as BENCH_PRn.json, and compares
// two baselines, for cmd/benchdiff (baseline recording with -record, and
// the CI delta report); standard library only, so it runs in a hermetic
// container.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Metric aggregates one unit (ns/op, abort-ratio, allocs/op, ...) across
// the repeated runs of a benchmark.
type Metric struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Bench is one benchmark's aggregate across its -count runs.
type Bench struct {
	Runs    int               `json:"runs"`
	Iters   int64             `json:"iters_total"`
	Metrics map[string]Metric `json:"metrics"`
}

// Baseline is the file layout of BENCH_PRn.json.
type Baseline struct {
	Label      string           `json:"label"`
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	CPU        string           `json:"cpu,omitempty"`
	Command    string           `json:"command,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

type sample struct {
	iters   int64
	metrics map[string]float64
}

// Parse reads `go test -bench` output and aggregates the benchmark lines.
// Benchmark names are prefixed with their package ("repro/stm.BenchmarkX")
// so one stream may carry several packages without collisions.
func Parse(r io.Reader) (*Baseline, error) {
	base := &Baseline{Benchmarks: map[string]Bench{}}
	samples := map[string][]sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			base.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		if pkg != "" {
			name = pkg + "." + name
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a benchmark that printed something non-standard
		}
		s := sample{iters: iters, metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value %q on line %q", fields[i], line)
			}
			s.metrics[fields[i+1]] = v
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark lines found")
	}
	for name, ss := range samples {
		b := Bench{Runs: len(ss), Metrics: map[string]Metric{}}
		units := map[string][]float64{}
		for _, s := range ss {
			b.Iters += s.iters
			for u, v := range s.metrics {
				units[u] = append(units[u], v)
			}
		}
		for u, vs := range units {
			sort.Float64s(vs)
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			b.Metrics[u] = Metric{Mean: sum / float64(len(vs)), Min: vs[0], Max: vs[len(vs)-1]}
		}
		base.Benchmarks[name] = b
	}
	return base, nil
}

// Load reads a Baseline from JSON, or — when the input is raw `go test
// -bench` text — parses and aggregates it, so callers accept either form.
func Load(data []byte) (*Baseline, error) {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		var b Baseline
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, err
		}
		if b.Benchmarks == nil {
			return nil, fmt.Errorf("benchfmt: JSON baseline has no benchmarks")
		}
		return &b, nil
	}
	return Parse(strings.NewReader(string(data)))
}

// DiffRow is one benchmark's comparison on one metric.
type DiffRow struct {
	Name     string
	Unit     string
	Old, New float64
	// Delta is (new-old)/old; NaN when old == 0.
	Delta float64
	// OldMin/NewMin carry the per-side minima over -count runs. On a
	// shared machine scheduler interference inflates individual runs but
	// almost never deflates them, so the minimum is each side's
	// least-interference sample and min-vs-min is the noise-robust basis
	// for a regression gate (means stay the reporting statistic).
	// OldMax completes the baseline's recorded spread: (OldMax-OldMin)/
	// OldMin is how much this cell wanders within a single recording era,
	// which a gate can use as the cell's own noise-calibrated tolerance.
	OldMin, NewMin, OldMax float64
}

// Diff compares the units of every benchmark present in both baselines,
// sorted by name then unit. Benchmarks present on only one side are
// skipped (the report is advisory; renames should not fail CI).
func Diff(oldB, newB *Baseline, units []string) []DiffRow {
	want := map[string]bool{}
	for _, u := range units {
		want[u] = true
	}
	var rows []DiffRow
	for name, ob := range oldB.Benchmarks {
		nb, ok := newB.Benchmarks[name]
		if !ok {
			continue
		}
		for unit, om := range ob.Metrics {
			if len(units) > 0 && !want[unit] {
				continue
			}
			nm, ok := nb.Metrics[unit]
			if !ok {
				continue
			}
			d := DiffRow{Name: name, Unit: unit, Old: om.Mean, New: nm.Mean, OldMin: om.Min, NewMin: nm.Min, OldMax: om.Max}
			if om.Mean != 0 {
				d.Delta = (nm.Mean - om.Mean) / om.Mean
			} else if nm.Mean != 0 {
				d.Delta = math.Inf(1)
			}
			rows = append(rows, d)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Name != rows[j].Name {
			return rows[i].Name < rows[j].Name
		}
		return rows[i].Unit < rows[j].Unit
	})
	return rows
}
