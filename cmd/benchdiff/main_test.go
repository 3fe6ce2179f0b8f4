package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

const benchText = `goos: linux
goarch: amd64
pkg: repro
cpu: test
BenchmarkE8NativeCounter-4   	 1000	      1200 ns/op	       0.10 abort-ratio	       0 allocs/op
BenchmarkE8NativeCounter-4   	 1000	      1000 ns/op	       0.30 abort-ratio	       0 allocs/op
PASS
`

// TestRecordThenDiff drives the two halves of the baseline workflow
// through the binary: -record aggregates raw `go test -bench` text into
// the BENCH_PRn.json layout (what make bench-baseline commits), and a
// plain run compares new text against that file.
func TestRecordThenDiff(t *testing.T) {
	dir := t.TempDir()
	bin, text, base := filepath.Join(dir, "benchdiff"), filepath.Join(dir, "bench.txt"), filepath.Join(dir, "BENCH_X.json")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building benchdiff: %v\n%s", err, out)
	}
	if err := os.WriteFile(text, []byte(benchText), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "-record", "-new", text, "-label", "X", "-command", "go test -bench E8", "-out", base).CombinedOutput(); err != nil {
		t.Fatalf("benchdiff -record: %v\n%s", err, out)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchfmt.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	m := b.Benchmarks["repro.BenchmarkE8NativeCounter-4"].Metrics["ns/op"]
	if b.Label != "X" || b.Command != "go test -bench E8" || b.Go == "" || m.Min != 1000 || m.Max != 1200 || m.Mean != 1100 {
		t.Fatalf("recorded baseline = %+v (ns/op %+v)", b, m)
	}
	out, err := exec.Command(bin, "-baseline", base, "-new", text).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "| BenchmarkE8NativeCounter-4 | ns/op | 1100 | 1100 | ~ |") {
		t.Fatalf("benchdiff against its own recording: %v\n%s", err, out)
	}
}
