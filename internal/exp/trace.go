package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/check"
	"repro/internal/memory"
	"repro/internal/tm"
)

func init() {
	// trace is the microscope behind E7: the same randomized workload at
	// a size a reader can follow, printed as a step-level timeline — why
	// irtm's reads get dearer as the read set grows, where TL2's clock
	// contention comes from, what a conflict abort looked like.
	Register(Experiment{Name: "trace", Artifact: "E7, one execution", Uses: "-tms -seed", OnDemand: true,
		Title: "Trace — step-level timeline of one small randomized run, with verdicts",
		Run: func(w io.Writer, p Params) error {
			cfg := E7Config{Procs: 2, TxnsPerProc: 2, Objects: 3, OpsPerTxn: 3, WriteRatio: 0.4, Seed: p.Seed}
			for _, name := range p.TMs {
				mem, h, err := driveE7(name, cfg)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "tm=%s procs=%d objects=%d txns/proc=%d seed=%d\n\n", name, cfg.Procs, cfg.Objects, cfg.TxnsPerProc, cfg.Seed)
				FormatHistory(w, mem, h)
				fmt.Fprintln(w)
				printVerdicts(w, h)
				fmt.Fprintf(w, "total steps: %d\n\n", mem.TotalSteps())
			}
			return nil
		}})

	// check verifies a recorded history against the paper's correctness
	// and progress definitions. Histories come from two recorders sharing
	// one format, the natural JSON encoding of tm.History: the simulator's
	// tm.Record wrapper and the native engines' test-only trace hook
	// (internal/enginekit/trace.go; see TestTraceHistoryJSONRoundTrip).
	//
	//	{"Txns": [{"ID": 0, "Proc": 0, "StartSeq": 0, "EndSeq": 3, "Status": 1,
	//	           "Ops": [{"Seq": 1, "Kind": 1, "Obj": 0, "Value": 5},
	//	                   {"Seq": 2, "Kind": 2}]}]}
	//
	// Kind: 0=read, 1=write, 2=tryCommit, 3=abort. Status: 0=live,
	// 1=committed, 2=aborted.
	Register(Experiment{Name: "check", Artifact: "Opacity and progress of a recorded history", Uses: "-file", OnDemand: true,
		Title: "Check — a recorded history (JSON) against opacity, strict serializability and the progress conditions",
		Run: func(w io.Writer, p Params) error {
			if p.In == nil {
				return errors.New("exp: check needs a history to read")
			}
			var h tm.History
			if err := json.NewDecoder(p.In).Decode(&h); err != nil {
				return fmt.Errorf("exp: parsing history: %w", err)
			}
			fmt.Fprint(w, h.String())
			if !printVerdicts(w, &h) {
				return errors.New("exp: history is not opaque")
			}
			return nil
		}})
}

// printVerdicts runs the four history checkers and prints one line each,
// with the witness serialization or the violations. It reports whether h
// is opaque and strictly serializable.
func printVerdicts(w io.Writer, h *tm.History) bool {
	ss, op := check.StrictlySerializable(h), check.Opaque(h)
	pv, sv := check.Progressive(h), check.StronglyProgressive(h)
	detail := func(show bool, format string, v any) string {
		if !show {
			return ""
		}
		return fmt.Sprintf(format, v)
	}
	fmt.Fprintf(w, "strictly serializable: %v%s\n", ss.OK, detail(ss.OK, "  (witness order %v)", ss.Order))
	fmt.Fprintf(w, "opaque:                %v%s\n", op.OK, detail(op.OK, "  (witness order %v)", op.Order))
	fmt.Fprintf(w, "progressive:           %v%s\n", len(pv) == 0, detail(len(pv) > 0, "  (violations: %v)", pv))
	fmt.Fprintf(w, "strongly progressive:  %v%s\n", len(sv) == 0, detail(len(sv) > 0, "  (violations: %+v)", sv))
	return ss.OK && op.OK
}

// FormatHistory renders a recorded history as a step-level timeline: one
// line per t-operation, with the transaction, the response, and the base
// objects the TM touched to implement it (resolved to their diagnostic
// names through mem). It is what tmbench -exp trace prints.
func FormatHistory(w io.Writer, mem *memory.Memory, h *tm.History) {
	type line struct {
		seq  int
		text string
	}
	var lines []line
	for _, t := range h.Txns {
		for _, op := range t.Ops {
			var desc string
			switch op.Kind {
			case tm.OpRead:
				if op.Aborted {
					desc = fmt.Sprintf("read(X%d) -> ABORT", op.Obj)
				} else {
					desc = fmt.Sprintf("read(X%d) -> %d", op.Obj, op.Value)
				}
			case tm.OpWrite:
				if op.Aborted {
					desc = fmt.Sprintf("write(X%d,%d) -> ABORT", op.Obj, op.Value)
				} else {
					desc = fmt.Sprintf("write(X%d,%d) -> ok", op.Obj, op.Value)
				}
			case tm.OpTryCommit:
				if op.Aborted {
					desc = "tryC -> ABORT"
				} else {
					desc = "tryC -> COMMIT"
				}
			case tm.OpAbort:
				desc = "abort"
			}
			lines = append(lines, line{
				seq:  op.Seq,
				text: fmt.Sprintf("%4d  p%-2d T%-3d %-24s %s", op.Seq, t.Proc, t.ID, desc, formatAccesses(mem, op.Accesses)),
			})
		}
	}
	// Ops were appended per transaction; emit them in global seq order.
	slices.SortStableFunc(lines, func(a, b line) int { return a.seq - b.seq })
	fmt.Fprintln(w, " seq  proc txn  operation                base-object accesses (:w = nontrivial)")
	fmt.Fprintln(w, strings.Repeat("-", 100))
	for _, l := range lines {
		fmt.Fprintln(w, l.text)
	}
}

// formatAccesses compacts an access list: consecutive accesses to the same
// object collapse with a repeat count; nontrivial accesses are marked :w.
func formatAccesses(mem *memory.Memory, accs []tm.BaseAccess) string {
	if len(accs) == 0 {
		return "(none)"
	}
	var parts []string
	i := 0
	for i < len(accs) {
		j := i
		for j < len(accs) && accs[j].Obj == accs[i].Obj && accs[j].Nontrivial == accs[i].Nontrivial {
			j++
		}
		name := fmt.Sprintf("obj#%d", accs[i].Obj)
		if o := mem.ObjAt(accs[i].Obj); o != nil {
			name = o.Name()
		}
		suffix := ""
		if accs[i].Nontrivial {
			suffix = ":w"
		}
		if j-i > 1 {
			parts = append(parts, fmt.Sprintf("%s%s×%d", name, suffix, j-i))
		} else {
			parts = append(parts, name+suffix)
		}
		i = j
	}
	if len(parts) > 8 {
		parts = append(parts[:8], fmt.Sprintf("… +%d more", len(parts)-8))
	}
	return strings.Join(parts, " ")
}
