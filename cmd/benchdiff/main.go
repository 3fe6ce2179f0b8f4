// Command benchdiff compares the current E8 benchmark numbers against a
// committed baseline (BENCH_PRn.json) and prints a markdown report — the
// report-only perf-trajectory check CI appends to the job summary. By
// default it is advisory: it never exits non-zero on a regression, only
// on unusable input.
//
// Passing -threshold turns it into a gate: any ns/op row whose regression
// exceeds the threshold (e.g. -threshold 0.15 for 15%) makes benchdiff
// exit non-zero after printing the report, listing the offending rows.
// The gate compares each side's *minimum* over its -count runs rather
// than the mean: scheduler interference on a shared machine inflates
// samples but almost never deflates them, so the minima are the two
// least-interference measurements and their ratio is the noise-robust
// regression signal (a real slowdown raises the floor too). The report
// table still shows means. Two further calibrations make the gate hold
// on a noisy shared machine, both computed from measurements already in
// hand rather than tuned per host. First, the suite-wide *median* of the
// min-vs-min deltas is treated as the machine's era shift and normalized
// out before gating: when the host slows between the recording era and
// this run, every cell drifts together, and code regressions are cells
// that moved relative to the suite (the median is robust to a handful of
// real regressions, and a drift past 2x fails loudly instead of being
// normalized away). Second, each cell's effective threshold is floored
// by the baseline's own recorded relative spread ((max-min)/min over its
// -count runs): a contended cell that wanders 50% within one recording
// era cannot honestly be gated at 15%, while a tight uncontended cell
// keeps the tight bar (the spread is widened 1.5x for the small-sample
// bias of a 5-run max-min range).
// The CI job deliberately does not pass -threshold — wall-clock deltas on
// shared runners are noise, and the committed baseline was recorded on
// different hardware — so the gate is for local runs on comparable
// hardware (`make bench-gate`).
//
// Passing -zeroalloc arms a second, independent gate: every new-result
// benchmark whose name matches the regexp must report 0 allocs/op in its
// cleanest run — the minimum over -count runs (so the input must come
// from `go test -bench -benchmem -count N`). Unlike the ns/op gate it
// needs no baseline agreement — an allocation on a steady-state path is
// a regression in kind, not in degree, so there is no threshold to tune.
// The min (not the mean) is compared for the same reason the ns/op gate
// uses minima: a real steady-state allocation fires on every iteration
// of every run, while host-scheduler interference (a stolen pinned
// goroutine freezing the mvstm epoch floor mid-run) pollutes only some
// runs and must not flake the gate.
//
// Passing -record makes it the other half of the same job: instead of
// comparing, it aggregates the -new input (one record per benchmark,
// mean/min/max per metric over the -count runs) and writes it as the
// baseline JSON a later run compares against (`make bench-baseline`).
//
// Usage:
//
//	benchdiff -baseline BENCH_PR4.json -new bench_new.txt
//	benchdiff -baseline BENCH_PR4.json -new bench_new.txt -threshold 0.15
//	benchdiff -baseline BENCH_PR7.json -new bench_new.txt -zeroalloc 'E11NativeScan/tm=mvstm'
//	go test -bench ... ./... | benchdiff -baseline BENCH_PR4.json
//	benchdiff -record -new bench_e8.txt -label PR18 -command "go test -bench ..." -out BENCH_PR18.json
//
// The -new input may be raw `go test -bench` text or a recorded baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_PR4.json", "committed baseline JSON")
	newPath := flag.String("new", "", "new bench output: raw `go test -bench` text or a recorded baseline (default stdin)")
	units := flag.String("units", "ns/op,abort-ratio", "comma-separated metric units to compare (empty = all)")
	threshold := flag.Float64("threshold", 0.05, "relative change below which a row is reported as a wash; when passed explicitly, also the gate: ns/op regressions above it exit non-zero")
	zeroalloc := flag.String("zeroalloc", "", "regexp of new-result benchmarks that must report exactly 0 allocs/op (requires -benchmem output); violations exit non-zero")
	record := flag.Bool("record", false, "write the -new results as a baseline JSON to -out instead of comparing")
	label := flag.String("label", "", "with -record: the baseline label stored in the file (e.g. PR18)")
	command := flag.String("command", "", "with -record: the benchmark command, stored for reproducibility")
	out := flag.String("out", "", "with -record: the baseline file to write (default stdout)")
	flag.Parse()
	gate := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "threshold" {
			gate = true
		}
	})
	// The display wash band never widens past the default when gating:
	// a sub-gate regression (say 12% under a 15% gate) must still print
	// as an explicit delta, not disappear into "~" exactly when someone
	// is looking for regressions.
	wash := *threshold
	if gate && wash > 0.05 {
		wash = 0.05
	}

	var newData []byte
	var err error
	if *newPath == "" {
		newData, err = io.ReadAll(os.Stdin)
	} else {
		newData, err = os.ReadFile(*newPath)
	}
	if err != nil {
		fatal(err)
	}
	newB, err := benchfmt.Load(newData)
	if err != nil {
		fatal(fmt.Errorf("new results: %w", err))
	}
	if *record {
		if err := writeBaseline(newB, *label, *command, *out); err != nil {
			fatal(err)
		}
		return
	}
	oldData, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	oldB, err := benchfmt.Load(oldData)
	if err != nil {
		fatal(fmt.Errorf("baseline %s: %w", *baselinePath, err))
	}

	var unitList []string
	for _, u := range strings.Split(*units, ",") {
		if u = strings.TrimSpace(u); u != "" {
			unitList = append(unitList, u)
		}
	}
	if gate && len(unitList) > 0 && !slices.Contains(unitList, "ns/op") {
		// The gate inspects ns/op rows; silently gating a report that
		// filtered them out would be a no-op the user believes is armed.
		fatal(fmt.Errorf("-threshold gates ns/op regressions, but -units %q excludes ns/op", *units))
	}
	rows := benchfmt.Diff(oldB, newB, unitList)
	if len(rows) == 0 {
		fmt.Println("benchdiff: no overlapping benchmarks between baseline and new results")
		return
	}

	fmt.Printf("### Benchmark delta vs %s baseline\n\n", labelOr(oldB.Label, *baselinePath))
	fmt.Printf("Baseline: %s, %s/%s", oldB.Go, oldB.GOOS, oldB.GOARCH)
	if oldB.CPU != "" {
		fmt.Printf(", %s", oldB.CPU)
	}
	if gate {
		fmt.Printf(" · gating: ns/op regressions > %.0f%% fail · |Δ| < %.0f%% reported as ~\n\n", *threshold*100, wash*100)
	} else {
		fmt.Printf(" · advisory, not a gate · |Δ| < %.0f%% reported as ~\n\n", wash*100)
	}
	// The gate normalizes every cell's min-vs-min delta by the suite-wide
	// median delta before comparing (see the doc comment): when the host
	// slows down between the baseline era and this run, every cell shifts
	// together, and that shift is hardware, not code. A real regression is
	// a cell that moved relative to the rest of the suite. The median is
	// robust to a handful of genuine regressions; a genuinely global
	// slowdown cannot hide past the shift sanity bound below.
	shift := 0.0
	if gate {
		var deltas []float64
		for _, r := range rows {
			if r.Unit == "ns/op" && r.OldMin > 0 {
				deltas = append(deltas, (r.NewMin-r.OldMin)/r.OldMin)
			}
		}
		if len(deltas) > 0 {
			sort.Float64s(deltas)
			shift = deltas[len(deltas)/2]
		}
		fmt.Printf("Suite-wide min-vs-min drift (era shift, normalized out of the gate): %+.1f%%\n\n", shift*100)
	}
	fmt.Println("| benchmark | unit | baseline | current | Δ |")
	fmt.Println("|---|---|---:|---:|---:|")
	var regressions []string
	for _, r := range rows {
		name := strings.TrimPrefix(strings.TrimPrefix(r.Name, "repro/"), "repro.")
		fmt.Printf("| %s | %s | %s | %s | %s |\n",
			name, r.Unit, num(r.Old), num(r.New), delta(r.Delta, wash))
		if gate && r.Unit == "ns/op" && r.OldMin > 0 {
			// Gate on the era-normalized min-vs-min residual against the
			// cell's own noise floor (see the doc comment): the mean-based
			// Delta in the table is the honest trajectory number, but on a
			// shared machine its tail is fat enough that any 60-cell run
			// trips a fixed 15% mean gate somewhere by interference alone.
			minDelta := (r.NewMin - r.OldMin) / r.OldMin
			residual := (1+minDelta)/(1+shift) - 1
			eff := *threshold
			// 1.5x corrects the small-sample bias of a max-min range: over
			// -count 5 runs the recorded spread sits well inside the cell's
			// true range (a direct -count 8 re-run of a cell whose recorded
			// spread was 20% measured 50%), so the raw spread under-covers
			// exactly the cells it exists to cover.
			if spread := 1.5 * (r.OldMax - r.OldMin) / r.OldMin; spread > eff {
				eff = spread
			}
			if residual > eff {
				regressions = append(regressions,
					fmt.Sprintf("%s: min %s → %s (%+.1f%%; %+.1f%% after era shift, cell tolerance %.0f%%)",
						name, num(r.OldMin), num(r.NewMin), minDelta*100, residual*100, eff*100))
			}
		}
	}
	if gate && shift > 1.0 {
		regressions = append(regressions, fmt.Sprintf(
			"suite-wide min drift %+.1f%% exceeds the 2x sanity bound: either the machine changed out from under the baseline (re-record with make bench-baseline) or the change slowed the whole suite down", shift*100))
	}
	failed := false
	if len(regressions) > 0 {
		failed = true
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d ns/op regression(s) exceed the %.0f%% threshold:\n", len(regressions), *threshold*100)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  ", r)
		}
	}
	if *zeroalloc != "" {
		if viol := checkZeroAlloc(newB, *zeroalloc); len(viol) > 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "\nbenchdiff: %d benchmark(s) matching -zeroalloc %q allocate:\n", len(viol), *zeroalloc)
			for _, v := range viol {
				fmt.Fprintln(os.Stderr, "  ", v)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeBaseline stamps b with the label, the command and the toolchain
// that produced it and writes it to path (stdout when empty) as the JSON
// a later benchdiff run loads as -baseline.
func writeBaseline(b *benchfmt.Baseline, label, command, path string) error {
	b.Label, b.Command, b.Go = label, command, runtime.Version()
	if b.GOOS == "" {
		b.GOOS = runtime.GOOS
	}
	if b.GOARCH == "" {
		b.GOARCH = runtime.GOARCH
	}
	enc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// checkZeroAlloc returns one line per new-result benchmark that matches
// the pattern but reports a nonzero allocs/op. A pattern that matches
// nothing, or matches a benchmark recorded without -benchmem, is fatal:
// an armed gate that silently inspects nothing is worse than no gate.
func checkZeroAlloc(newB *benchfmt.Baseline, pattern string) []string {
	re, err := regexp.Compile(pattern)
	if err != nil {
		fatal(fmt.Errorf("-zeroalloc: %w", err))
	}
	var names []string
	for name := range newB.Benchmarks {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("-zeroalloc %q matches no benchmark in the new results", pattern))
	}
	sort.Strings(names)
	var viol []string
	for _, name := range names {
		m, ok := newB.Benchmarks[name].Metrics["allocs/op"]
		if !ok {
			fatal(fmt.Errorf("-zeroalloc: %s has no allocs/op metric (run the benchmarks with -benchmem)", name))
		}
		// Gate on the minimum over -count runs, like the ns/op gate: a
		// genuine steady-state allocation (a pooled path losing its pool)
		// allocates on every iteration and shows up in every run, so the
		// min catches it. A run that allocates only under host-scheduler
		// interference — a pinned goroutine stolen mid-scan freezes the
		// mvstm epoch floor and forces always-safe drops to the GC — shows
		// a nonzero count in *some* runs and a clean zero in the rest, and
		// must not flake the gate on a shared machine.
		if m.Min != 0 {
			viol = append(viol, fmt.Sprintf("%s: %.4g allocs/op in every run (mean %.4g, max %.4g), want a clean 0",
				strings.TrimPrefix(name, "repro/"), m.Min, m.Mean, m.Max))
		}
	}
	return viol
}

func labelOr(label, fallback string) string {
	if label != "" {
		return label
	}
	return fallback
}

func num(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func delta(d, threshold float64) string {
	switch {
	case math.IsNaN(d) || math.IsInf(d, 0):
		return "n/a"
	case math.Abs(d) < threshold:
		return "~"
	default:
		return fmt.Sprintf("%+.1f%%", d*100)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
