package exp

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/memory"
	"repro/internal/tmreg"
)

// Params is the one parameter set every experiment reads; each takes the
// fields its Uses names and ignores the rest. tmbench fills it from its
// flags, the facade's callers from DefaultParams.
type Params struct {
	TMs, Locks, Models []string
	Ms                 []int // read-set sizes (E1, E2, E6)
	Ns                 []int // process counts (E3, E4, rmr)
	K                  int   // acquisitions per process (E3, E4, rmr)
	Seed               int64
	Adversary          bool      // E1/E2: run against the Lemma-2 adversary
	In                 io.Reader // check: the recorded history, as JSON
}

// DefaultParams is every registered TM, lock and cache model at the sizes
// the committed tables use.
func DefaultParams() Params {
	p := Params{
		TMs: tmreg.Names(), Locks: LockNames(),
		Ms: []int{4, 8, 16, 32, 64}, Ns: []int{2, 4, 8, 16, 32},
		K: 4, Seed: 42,
	}
	for _, m := range memory.Models() {
		p.Models = append(p.Models, m.Name())
	}
	return p
}

func (p Params) mode() string {
	if p.Adversary {
		return "adversary"
	}
	return "solo"
}

// Experiment is one entry of the registry: everything tmbench, the
// facade and the README/DESIGN tables know about an experiment. Each
// eN.go registers its own from init, so adding one touches that file and
// its native benchmark only.
type Experiment struct {
	Name     string // the -exp value and the table row: "e1" is | E1 |
	Artifact string // what it reproduces: a theorem, a section, a workload shape
	Title    string // the printed table's title, up to its per-run suffix
	Native   string // name prefix of its native benchmarks (in the Makefile's E8_BENCH), or ""
	Uses     string // the tmbench flags Run reads, as the usage line shows them; with -adversary among them, "all" runs both modes
	OnDemand bool   // not part of "all": a microscope over one run, or too slow for a sweep
	Run      func(io.Writer, Params) error
}

var registry []Experiment

// Register adds e to the registry; a duplicate name is a programming
// error.
func Register(e Experiment) {
	for _, r := range registry {
		if r.Name == e.Name {
			panic("exp: experiment " + e.Name + " registered twice")
		}
	}
	registry = append(registry, e)
}

// All lists the registered experiments in table order, which is not
// init order (that follows file names): the taxonomy first, since it says
// which hypotheses each TM meets and the E-tables then price them; E1..En
// by number; the on-demand tools by name.
func All() []Experiment {
	rank := func(e Experiment) (class, n int) {
		if n, err := strconv.Atoi(strings.TrimPrefix(e.Name, "e")); err == nil {
			return 1, n
		}
		if e.OnDemand {
			return 2, 0
		}
		return 0, 0
	}
	out := slices.Clone(registry)
	slices.SortFunc(out, func(a, b Experiment) int {
		ca, na := rank(a)
		cb, nb := rank(b)
		return cmp.Or(cmp.Compare(ca, cb), cmp.Compare(na, nb), cmp.Compare(a.Name, b.Name))
	})
	return out
}

// Names lists every value Run accepts: the experiments in table order,
// then "all".
func Names() []string {
	var names []string
	for _, e := range All() {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// Run prints the named experiment's tables to w. "all" runs every
// experiment that is not OnDemand, in table order, and those with an
// adversary mode twice: solo, then against the adversary.
func Run(w io.Writer, name string, p Params) error {
	if name != "all" {
		for _, e := range registry {
			if e.Name == name {
				return e.Run(w, p)
			}
		}
		// A fat-fingered name must not look like a successful (empty) run.
		return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	for _, e := range All() {
		if e.OnDemand {
			continue
		}
		modes := []bool{p.Adversary}
		if strings.Contains(e.Uses, "-adversary") {
			modes = []bool{false, true}
		}
		for _, p.Adversary = range modes {
			if err := e.Run(w, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// perTM prints one table whose rows add appends for each TM name in turn.
func perTM(w io.Writer, title string, header []string, tms []string, add func(t *Table, name string) error) error {
	t := Table{Title: title, Header: header}
	for _, name := range tms {
		if err := add(&t, name); err != nil {
			return err
		}
	}
	t.Print(w)
	return nil
}

// The TM axis of a per-TM table: the list as requested, or with "tl2"
// pulling in the clock-variant sweep after it (expandTL2).
const (
	asRequested  = false
	withVariants = true
)

// registerPerTM registers e as one table whose rows add appends for each
// TM on its axis in turn.
func registerPerTM(e Experiment, variants bool, header []string, add func(t *Table, p Params, name string) error) {
	e.Run = func(w io.Writer, p Params) error {
		tms := p.TMs
		if variants {
			tms = expandTL2(tms)
		}
		return perTM(w, e.Title, header, tms, func(t *Table, name string) error { return add(t, p, name) })
	}
	Register(e)
}

// expandTL2 expands a requested TM list for the clock-ablation tables
// (E5, E9–E15): "tl2" pulls in the full clock-variant sweep at its
// position, and duplicates (a variant requested explicitly alongside
// "tl2") collapse.
func expandTL2(tms []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, name := range tms {
		names := []string{name}
		if name == "tl2" {
			names = tmreg.ClockVariants()
		}
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}
