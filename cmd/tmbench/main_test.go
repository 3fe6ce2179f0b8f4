package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exp"
)

// tmbenchBin is the binary under test, built once from this directory
// without -race: the tables are the simulator's step counts, so the
// golden comparison needs the program's output, not its interleavings
// (internal/exp's own suites run every scenario under the race
// detector).
var tmbenchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tmbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tmbenchBin = filepath.Join(dir, "tmbench")
	if out, err := exec.Command("go", "build", "-o", tmbenchBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building tmbench: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tmbench runs the binary with args (and stdin, when non-empty) and
// returns its stdout, stderr and exit code.
func tmbench(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(tmbenchBin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("tmbench %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// checkGolden compares got against testdata/<name>.golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// parentGolden lists the deterministic tables whose golden files were
// recorded from the binary of the commit before the experiment registry
// (PR 17, 66748a2), one per -exp value plus the solo/adversary pairs; e8
// is wall-clock and has none. The registry refactor must reproduce every
// one byte for byte.
var parentGolden = []struct {
	name string
	args []string
	slow bool // skipped under -short
}{
	{name: "class", args: []string{"-exp", "class"}},
	{name: "e1_solo", args: []string{"-exp", "e1"}},
	{name: "e1_adversary", args: []string{"-exp", "e1", "-adversary"}},
	{name: "e2_solo", args: []string{"-exp", "e2"}},
	{name: "e2_adversary", args: []string{"-exp", "e2", "-adversary"}},
	{name: "e3", args: []string{"-exp", "e3"}},
	{name: "e4", args: []string{"-exp", "e4"}},
	// dstm alone is half a minute of livelock-prone retries; the pinned
	// list still crosses the tl2 variant axis and a +backoff pair.
	{name: "e5", args: []string{"-exp", "e5", "-tms", "irtm,tl2,vrtm,norec"}},
	{name: "e5_dstm", args: []string{"-exp", "e5", "-tms", "dstm"}, slow: true},
	{name: "e6", args: []string{"-exp", "e6"}},
	{name: "e7", args: []string{"-exp", "e7"}},
	{name: "e9", args: []string{"-exp", "e9"}},
	{name: "e10", args: []string{"-exp", "e10"}},
	{name: "e11", args: []string{"-exp", "e11"}},
	{name: "e12", args: []string{"-exp", "e12"}},
	{name: "e13", args: []string{"-exp", "e13"}},
	{name: "e14", args: []string{"-exp", "e14"}},
	{name: "e15", args: []string{"-exp", "e15"}},
	{name: "mc", args: []string{"-exp", "mc"}},
}

func TestGoldenTables(t *testing.T) {
	for _, tc := range parentGolden {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow table")
			}
			t.Parallel()
			stdout, stderr, code := tmbench(t, "", tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			checkGolden(t, tc.name, stdout)
		})
	}
}

// TestGoldenAllOrder pins which tables -exp all prints and in what order
// (e8 included: its title carries only -workers and -dur), at parameters
// small enough to run the whole sweep.
func TestGoldenAllOrder(t *testing.T) {
	stdout, stderr, code := tmbench(t, "", "-exp", "all", "-tms", "irtm", "-locks", "lm:irtm",
		"-models", "cc-wb", "-ms", "4", "-ns", "2", "-workers", "1", "-dur", "1ms", "-clock", "gv1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var titles strings.Builder
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "== ") {
			titles.WriteString(line + "\n")
		}
	}
	checkGolden(t, "all_titles", titles.String())
}

func TestUnknownExperiment(t *testing.T) {
	_, stderr, code := tmbench(t, "", "-exp", "e99")
	if code == 0 || !strings.Contains(stderr, "e15") || !strings.Contains(stderr, "class") {
		t.Fatalf("exit %d, stderr %q: want non-zero and the valid names", code, stderr)
	}
}

// TestFoldedTools covers the microscopes that used to be binaries of
// their own (tmtrace, rmrsim, opacheck): a timeline with verdicts, a
// per-process RMR breakdown, and the history checker reading -file or
// stdin and exiting non-zero on a history that is not opaque.
func TestFoldedTools(t *testing.T) {
	nonOpaque, err := os.ReadFile(filepath.Join("testdata", "history_nonopaque.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, stdin string
		args        []string
		code        int
	}{
		{name: "trace", args: []string{"-exp", "trace", "-tms", "irtm,tl2"}},
		{name: "rmr", args: []string{"-exp", "rmr", "-locks", "lm:irtm,mcs", "-models", "cc-wb", "-ns", "4"}},
		{name: "check", args: []string{"-exp", "check", "-file", filepath.Join("testdata", "history.json")}},
		{name: "check_nonopaque", args: []string{"-exp", "check"}, stdin: string(nonOpaque), code: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := tmbench(t, tc.stdin, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d: %s", code, tc.code, stderr)
			}
			checkGolden(t, tc.name, stdout)
		})
	}
}

// TestSelectionErrors: a selection that leaves nothing to measure must
// fail the run and name what is valid, not print empty tables and exit 0
// — while a blocking TM under -adversary is still skipped with a note,
// because the adversary cannot run against it by construction.
func TestSelectionErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-exp", "e1", "-adversary", "-tms", "nosuch"}, "irtm"},
		{[]string{"-exp", "e2", "-adversary", "-tms", "nosuch"}, "irtm"},
		{[]string{"-exp", "e4", "-locks", "mcs"}, "lm:irtm"},
		{[]string{"-exp", "class", "-tms", "nosuch"}, "irtm"},
		{[]string{"-exp", "mc", "-locks", "nosuch"}, "mcs"},
	} {
		stdout, stderr, code := tmbench(t, "", tc.args...)
		if code == 0 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q, stdout %q: want non-zero and the valid names", tc.args, code, stderr, stdout)
		}
	}
	stdout, stderr, code := tmbench(t, "", "-exp", "e1", "-adversary", "-tms", "sgltm,irtm", "-ms", "4")
	if code != 0 || !strings.Contains(stderr, "skipping sgltm") || !strings.Contains(stdout, "irtm") || strings.Contains(stdout, "sgltm") {
		t.Errorf("blocking TM under -adversary: exit %d, stderr %q, stdout %q: want sgltm skipped, irtm measured", code, stderr, stdout)
	}
}

// TestDocTablesMatchRegistry pins the hand-written experiment tables to
// the registry: README.md and DESIGN.md each carry exactly one | E<n> |
// row per registered E-experiment, and every native benchmark an entry
// names is in the set `make bench-e8` runs.
func TestDocTablesMatchRegistry(t *testing.T) {
	want := map[string]bool{}
	for _, e := range exp.All() {
		if n, ok := strings.CutPrefix(e.Name, "e"); ok {
			want["E"+n] = true
		}
	}
	row := regexp.MustCompile(`(?m)^\| (E\d+) \|`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, m := range row.FindAllStringSubmatch(string(data), -1) {
			if got[m[1]] {
				t.Errorf("%s: two rows for %s", doc, m[1])
			}
			got[m[1]] = true
			if !want[m[1]] {
				t.Errorf("%s: row for %s, which is not a registered experiment", doc, m[1])
			}
		}
		for name := range want {
			if !got[name] {
				t.Errorf("%s: no | %s | row for a registered experiment", doc, name)
			}
		}
	}

	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^E8_BENCH = (.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile: no E8_BENCH line")
	}
	bench := regexp.MustCompile(string(m[1]))
	for _, e := range exp.All() {
		if e.Native != "" && !bench.MatchString(e.Native) {
			t.Errorf("%s: native benchmark %s is not matched by the Makefile's E8_BENCH", e.Name, e.Native)
		}
	}
}
