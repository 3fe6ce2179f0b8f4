// Package exp is the experiment harness: it drives the workloads of the
// per-experiment index in DESIGN.md, producing the rows the benchmarks
// report and the tables tmbench prints. Each experiment reproduces one
// artifact of the paper (see the function comments) and registers itself,
// with its table, in the registry of registry.go.
package exp

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/memory"
	"repro/internal/tm"
	"repro/internal/tmreg"
)

// ErrBlockingTM is returned when an experiment's adversary cannot be run
// against a blocking TM (no interval-contention-free liveness): the
// adversary's writer would spin forever against the reader's lock in a
// sequential fragment.
var ErrBlockingTM = errors.New("exp: TM blocks the Lemma-2 adversary (no ICF liveness)")

// blocking reports whether the named TM lacks ICF TM-liveness (its
// transactions block on contention, so the adversary's writer would spin
// forever inside a step contention-free fragment).
func blocking(name string) bool {
	probe, err := tmreg.New(name, memory.New(1, nil), 1)
	if err != nil {
		return false // let the caller surface the unknown-name error
	}
	return !probe.Props().ICFLiveness
}

// E1Row is one measurement of experiment E1 (Theorem 3(1)): the step
// complexity of a read-only transaction of M reads, either solo or against
// the Lemma-2 adversary that commits a write to X_i immediately before
// read_φ(X_i).
type E1Row struct {
	TM            string
	M             int
	Adversary     bool
	Attempts      int    // transaction attempts until commit (1 = no abort)
	TotalSteps    uint64 // all steps by the reader process, across attempts
	LastReadSteps uint64 // steps of the final, successful read_φ(X_m)
	FreshReads    int    // adversary runs: reads that returned the new value
}

// RunE1 measures the reader's step complexity for each read-set size in ms.
// With adversary=false it runs π^m solo from a quiescent configuration;
// with adversary=true it interleaves the Lemma-2 writer before every read.
func RunE1(name string, ms []int, adversary bool) ([]E1Row, error) {
	if adversary && blocking(name) {
		return nil, fmt.Errorf("%w: %s", ErrBlockingTM, name)
	}
	var rows []E1Row
	for _, m := range ms {
		mem := memory.New(2, nil)
		tmi, err := tmreg.New(name, mem, m)
		if err != nil {
			return nil, err
		}
		reader, writer := mem.Proc(0), mem.Proc(1)
		attempts, fresh, lastRead, err := lemma2Drive(tmi, reader, writer, m, adversary)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E1Row{
			TM: name, M: m, Adversary: adversary,
			Attempts:      attempts,
			TotalSteps:    reader.Steps(),
			LastReadSteps: lastRead.Steps,
			FreshReads:    fresh,
		})
	}
	return rows, nil
}

// lemma2Drive runs the read-only transaction T_φ over objects 0..m-1,
// retrying on abort, with the adversary (when enabled) committing
// write(X_i, i+1000) via a separate process immediately before each
// read_φ(X_i). It returns the attempt count and the span of the final
// successful read.
func lemma2Drive(tmi tm.TM, reader, writer *memory.Proc, m int, adversary bool) (int, int, *memory.Span, error) {
	attempts := 0
	written := make([]bool, m)
	for {
		attempts++
		if attempts > 100*m+100 {
			return 0, 0, nil, fmt.Errorf("exp: reader did not commit after %d attempts", attempts-1)
		}
		tx := tmi.Begin(reader)
		ok := true
		fresh := 0
		var last *memory.Span
		for i := 0; i < m && ok; i++ {
			if adversary && !written[i] {
				// ρ^i: a committed writer transaction on X_i, step
				// contention-free. Written once per object: the Lemma-2
				// execution has exactly one writer per item.
				if err := tm.Atomically(tmi, writer, func(w tm.Txn) error {
					return w.Write(i, uint64(i)+1000)
				}); err != nil {
					return 0, 0, nil, err
				}
				written[i] = true
			}
			sp := reader.BeginSpan(fmt.Sprintf("read#%d", i+1))
			v, err := tx.Read(i)
			reader.EndSpan()
			if err != nil {
				tx.Abort()
				ok = false
				break
			}
			want := uint64(i) + 1000
			switch {
			case adversary && v == want:
				// Weak-DAP TMs cannot distinguish π^{i−1}·ρ^i from
				// ρ^i·π^{i−1} (Lemma 2), so they must return the new value.
				fresh++
			case adversary && v == 0:
				// A TM that is not weak DAP (e.g. a snapshot-reading
				// multi-version TM) may legally serialize T_φ before the
				// writers and return the old value.
			case !adversary && v == 0:
			default:
				return 0, 0, nil, fmt.Errorf("exp: read_φ(X_%d) = %d, want 0 or %d", i, v, want)
			}
			last = sp
		}
		if !ok {
			continue
		}
		reader.BeginSpan("tryC")
		err := tx.Commit()
		reader.EndSpan()
		if err != nil {
			tx.Abort()
			continue
		}
		return attempts, fresh, last, nil
	}
}

// E2Row is one measurement of experiment E2 (Theorem 3(2)): the number of
// distinct base objects accessed during the m-th (final) t-read plus
// tryCommit. The theorem's bound is m-1.
type E2Row struct {
	TM           string
	M            int
	Adversary    bool
	DistinctObjs int
	Bound        int // m-1, for the table
}

// RunE2 measures the space complexity of the last read + tryCommit.
func RunE2(name string, ms []int, adversary bool) ([]E2Row, error) {
	if adversary && blocking(name) {
		return nil, fmt.Errorf("%w: %s", ErrBlockingTM, name)
	}
	var rows []E2Row
	for _, m := range ms {
		mem := memory.New(2, nil)
		tmi, err := tmreg.New(name, mem, m)
		if err != nil {
			return nil, err
		}
		reader, writer := mem.Proc(0), mem.Proc(1)
		distinct, err := e2Drive(tmi, reader, writer, m, adversary)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E2Row{TM: name, M: m, Adversary: adversary, DistinctObjs: distinct, Bound: m - 1})
	}
	return rows, nil
}

// e2Drive performs π^{m-1} (reads of X_1..X_{m-1}), then — with the
// adversary — ρ^m (a committed write to X_m), then measures the distinct
// base objects touched by read_φ(X_m) and tryC_φ together, retrying the
// whole transaction if it aborts.
func e2Drive(tmi tm.TM, reader, writer *memory.Proc, m int, adversary bool) (int, error) {
	for attempt := 0; attempt < 100*m+100; attempt++ {
		tx := tmi.Begin(reader)
		ok := true
		for i := 0; i < m-1; i++ {
			if _, err := tx.Read(i); err != nil {
				tx.Abort()
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if adversary && attempt == 0 {
			if err := tm.Atomically(tmi, writer, func(w tm.Txn) error {
				return w.Write(m-1, 4242)
			}); err != nil {
				return 0, err
			}
		}
		sp := reader.BeginSpan("lastread+tryC")
		_, err := tx.Read(m - 1)
		if err == nil {
			err = tx.Commit()
		}
		reader.EndSpan()
		if err != nil {
			tx.Abort()
			continue
		}
		return sp.DistinctObjects(), nil
	}
	return 0, fmt.Errorf("exp: e2 reader did not commit")
}

// E6Row compares irtm's measured solo read-only step count to the closed
// form m(m-1)/2 + 3m of the Section 6 matching upper bound.
type E6Row struct {
	M        int
	Measured uint64
	Formula  uint64
}

// RunE6 verifies the tightness claim of Section 6 exactly.
func RunE6(ms []int) ([]E6Row, error) {
	rows, err := RunE1("irtm", ms, false)
	if err != nil {
		return nil, err
	}
	out := make([]E6Row, len(rows))
	for i, r := range rows {
		m := uint64(r.M)
		out[i] = E6Row{M: r.M, Measured: r.TotalSteps, Formula: m*(m-1)/2 + 3*m}
	}
	return out, nil
}

// lemma2Table prints one E1/E2 table: rows per TM and read-set size, solo
// or against the adversary. A blocking TM cannot face the adversary and is
// skipped with a note; any other failure fails the run.
func lemma2Table(w io.Writer, e Experiment, p Params, header []string, add func(t *Table, name string) error) error {
	return perTM(w, e.Title+", "+p.mode(), header, p.TMs, func(t *Table, name string) error {
		err := add(t, name)
		if errors.Is(err, ErrBlockingTM) {
			fmt.Fprintf(os.Stderr, "skipping %s: %v\n", name, err)
			return nil
		}
		return err
	})
}

func init() {
	e1 := Experiment{Name: "e1", Artifact: "Theorem 3(1)", Uses: "-tms -ms -adversary",
		Title: "E1 (Theorem 3(1)) — reader steps"}
	e1.Run = func(w io.Writer, p Params) error {
		header := []string{"tm", "m", "attempts", "total-steps", "last-read-steps", "m(m-1)/2"}
		return lemma2Table(w, e1, p, header, func(t *Table, name string) error {
			rows, err := RunE1(name, p.Ms, p.Adversary)
			for _, r := range rows {
				t.Add(r.TM, r.M, r.Attempts, r.TotalSteps, r.LastReadSteps, uint64(r.M)*uint64(r.M-1)/2)
			}
			return err
		})
	}
	Register(e1)

	e2 := Experiment{Name: "e2", Artifact: "Theorem 3(2)", Uses: "-tms -ms -adversary",
		Title: "E2 (Theorem 3(2)) — distinct base objects in last read + tryC"}
	e2.Run = func(w io.Writer, p Params) error {
		header := []string{"tm", "m", "distinct-objects", "bound(m-1)"}
		return lemma2Table(w, e2, p, header, func(t *Table, name string) error {
			rows, err := RunE2(name, p.Ms, p.Adversary)
			for _, r := range rows {
				t.Add(r.TM, r.M, r.DistinctObjs, r.Bound)
			}
			return err
		})
	}
	Register(e2)

	e6 := Experiment{Name: "e6", Artifact: "Section 6 tightness", Uses: "-ms",
		Title: "E6 (Section 6) — irtm tightness vs m(m-1)/2 + 3m"}
	e6.Run = func(w io.Writer, p Params) error {
		rows, err := RunE6(p.Ms)
		if err != nil {
			return err
		}
		t := Table{Title: e6.Title, Header: []string{"m", "measured-steps", "formula", "match"}}
		for _, r := range rows {
			t.Add(r.M, r.Measured, r.Formula, r.Measured == r.Formula)
		}
		t.Print(w)
		return nil
	}
	Register(e6)
}
