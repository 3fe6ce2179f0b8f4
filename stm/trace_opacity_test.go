package stm_test

// Native-history opacity tests: the test-only trace hook (stm/trace.go)
// records every transaction attempt of the native engine as an
// internal/tm.History — the same structure the simulator's tm.Record
// produces — and the internal/check oracles verify opacity and strict
// serializability on it. The serialization oracles do exhaustive search,
// so workloads here are deliberately bounded (a handful of transactions;
// aborted attempts count too). `tmbench -exp check` accepts the same histories as
// JSON.

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/tm"
	"repro/stm"
	"repro/stm/budget"
)

// verifyHistory asserts the two oracle properties on a recorded native
// history.
func verifyHistory(t *testing.T, h *tm.History) {
	t.Helper()
	if len(h.Txns) == 0 {
		t.Fatal("trace recorded no transactions")
	}
	if res := check.Opaque(h); !res.OK {
		t.Errorf("history is not opaque:\n%s", h)
	}
	if res := check.StrictlySerializable(h); !res.OK {
		t.Errorf("history is not strictly serializable:\n%s", h)
	}
}

// TestTraceOpacityConcurrentMixed: a bounded concurrent workload — one
// writer doing read-modify-writes, one Atomically reader (promotion
// candidate), one AtomicallyRO reader — must produce an opaque, strictly
// serializable history, aborted attempts included.
func TestTraceOpacityConcurrentMixed(t *testing.T) {
	x := stm.NewVar(0)
	y := stm.NewVar(0)
	stm.StartTrace()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			_ = stm.Atomically(func(tx *stm.Tx) error {
				x.Set(tx, x.Get(tx)+1)
				y.Set(tx, y.Get(tx)+1)
				return nil
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			_ = stm.Atomically(func(tx *stm.Tx) error {
				if x.Get(tx) > y.Get(tx) {
					t.Error("reader saw x > y inside one snapshot")
				}
				return nil
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			_ = stm.AtomicallyRO(func(tx *stm.Tx) error {
				if x.Get(tx) != y.Get(tx) {
					t.Error("RO reader saw x != y inside one snapshot")
				}
				return nil
			})
		}
	}()
	wg.Wait()
	h := stm.StopTrace()
	verifyHistory(t, h)
}

// TestTraceOpacityExtensionInterleaving orchestrates the timestamp-
// extension interleaving deterministically: a reader samples its
// timestamp and reads x, a writer then commits to y, and the reader's
// subsequent read of y is stale — extension revalidates x and admits the
// new value. The recorded history must serialize (writer before reader).
func TestTraceOpacityExtensionInterleaving(t *testing.T) {
	x := stm.NewVar(0)
	y := stm.NewVar(0)
	stm.StartTrace()
	before := stm.ReadStats()
	attempt := 0
	var gotY int
	if err := stm.Atomically(func(tx *stm.Tx) error {
		attempt++
		_ = x.Get(tx)
		if attempt == 1 {
			if err := stm.Atomically(func(wtx *stm.Tx) error {
				y.Set(wtx, 7)
				return nil
			}); err != nil {
				return err
			}
		}
		gotY = y.Get(tx) // stale on attempt 1: must extend, not abort
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h := stm.StopTrace()
	if attempt != 1 {
		t.Fatalf("attempts = %d, want 1 (extension must absorb the stale read)", attempt)
	}
	if gotY != 7 {
		t.Fatalf("read y = %d, want 7", gotY)
	}
	if d := stm.ReadStats().Sub(before); d.Extensions == 0 {
		t.Fatalf("stats delta = %+v, want at least one extension", d)
	}
	verifyHistory(t, h)
}

// TestTraceOpacityROInterleaving orchestrates the RO fast path's
// abort/replay: the RO reader certifies x, a writer commits x and y
// together, and the reader's read of y is stale — with a certified read
// and no read set, the attempt must abort (an extension would certify a
// mixed snapshot) and the replay sees the new pair. The history — aborted
// attempt included — must be opaque. Run under GV4 and GV6.
func TestTraceOpacityROInterleaving(t *testing.T) {
	for _, strat := range []stm.ClockStrategy{stm.GV4, stm.GV6} {
		t.Run(strat.String(), func(t *testing.T) {
			stm.SetClockStrategy(strat)
			defer stm.SetClockStrategy(stm.GV4)
			x := stm.NewVar(0)
			y := stm.NewVar(0)
			stm.StartTrace()
			attempt := 0
			var gotX, gotY int
			if err := stm.AtomicallyRO(func(tx *stm.Tx) error {
				attempt++
				gotX = x.Get(tx)
				if attempt == 1 {
					if err := stm.Atomically(func(wtx *stm.Tx) error {
						x.Set(wtx, 1)
						y.Set(wtx, 1)
						return nil
					}); err != nil {
						return err
					}
				}
				gotY = y.Get(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			h := stm.StopTrace()
			if attempt != 2 {
				t.Fatalf("attempts = %d, want 2 (the straddled RO attempt must abort)", attempt)
			}
			if gotX != 1 || gotY != 1 {
				t.Fatalf("snapshot = (%d,%d), want (1,1)", gotX, gotY)
			}
			verifyHistory(t, h)
			// The aborted attempt must appear in the history as a read-only
			// aborted transaction — that is what the opacity check bites on.
			aborted := 0
			for _, rec := range h.Txns {
				if rec.Status == tm.TxnAborted && rec.ReadOnly() {
					aborted++
				}
			}
			if aborted != 1 {
				t.Fatalf("history has %d aborted RO attempts, want 1:\n%s", aborted, h)
			}
		})
	}
}

// TestTraceOpacityPromotedDescriptor: the promotion path (full-pipeline
// attempt aborts, RO retry commits) yields an opaque history whose
// committed transaction is read-only.
func TestTraceOpacityPromotedDescriptor(t *testing.T) {
	x := stm.NewVar(0)
	stm.StartTrace()
	attempt := 0
	if err := stm.Atomically(func(tx *stm.Tx) error {
		attempt++
		v := x.Get(tx)
		if attempt == 1 {
			if err := stm.Atomically(func(wtx *stm.Tx) error {
				x.Set(wtx, v+1)
				return nil
			}); err != nil {
				return err
			}
			_ = x.Get(tx) // invalidated: aborts the attempt, promoting the retry
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h := stm.StopTrace()
	if attempt != 2 {
		t.Fatalf("attempts = %d, want 2", attempt)
	}
	verifyHistory(t, h)
}

// TestTraceOpacityBudgetAbort pins the metering layer's soundness claim
// on the oracle itself: a budget abort must be indistinguishable from a
// validation abort to the opacity checker, because it fires before the
// transaction publishes anything. A metered scan is refused mid-read
// between two invariant-preserving writer commits, and the recorded
// history — budget-aborted attempt included — must be opaque and
// strictly serializable.
func TestTraceOpacityBudgetAbort(t *testing.T) {
	x := stm.NewVar(0)
	y := stm.NewVar(0)
	stm.StartTrace()
	writeBoth := func(v int) {
		if err := stm.Atomically(func(tx *stm.Tx) error {
			x.Set(tx, v)
			y.Set(tx, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	writeBoth(1)
	// Unit costs: the first Get charges Step+Read = 2, the second refuses.
	stm.SetBudgetPolicy(budget.Fixed{Limit: 3})
	err := stm.Atomically(func(tx *stm.Tx) error {
		_ = x.Get(tx)
		_ = y.Get(tx)
		t.Error("attempt survived an exhausted grant")
		return nil
	})
	stm.SetBudgetPolicy(nil)
	if !errors.Is(err, stm.ErrOutOfBudget) {
		t.Fatalf("err = %v, want ErrOutOfBudget", err)
	}
	writeBoth(2)
	h := stm.StopTrace()
	verifyHistory(t, h)
	// The refusal must appear as an ordinary aborted transaction that
	// observed only committed state — that is what the checker verified.
	aborted := 0
	for _, rec := range h.Txns {
		if rec.Status != tm.TxnAborted {
			continue
		}
		aborted++
		reads := 0
		for _, op := range rec.Ops {
			if op.Kind == tm.OpRead {
				reads++
			}
		}
		// Both reads are in the record: the update path certifies a read
		// before charging its read-set entry, so the refusing charge lands
		// after the second read was certified consistent — exactly why the
		// checker can treat the refusal like any other abort.
		if reads != 2 {
			t.Errorf("budget-aborted attempt recorded %d reads, want 2:\n%s", reads, h)
		}
	}
	if aborted != 1 {
		t.Fatalf("history has %d aborted attempts, want exactly the refusal:\n%s", aborted, h)
	}
}

// tracePipelines is the clock-strategy table the trace-opacity tests
// sweep: every commit pipeline the engine ships must produce opaque
// histories under the same bounded concurrent workload. Knob ordering
// follows tmbench's setPipeline: the cross-knob guards refuse GV6/GV7
// while extension is off (and vice versa), so the enabling knob always
// moves first.
var tracePipelines = []struct {
	name  string
	strat stm.ClockStrategy
	ext   bool
}{
	{"gv1", stm.GV1, false},
	{"gv4+ext", stm.GV4, true},
	{"gv6+ext", stm.GV6, true},
	{"gv7+ext", stm.GV7, true},
	{"tictoc", stm.TicToc, true},
}

// setTracePipeline applies one pipeline variant and returns a restore
// func for the default (GV4 + extension).
func setTracePipeline(strat stm.ClockStrategy, ext bool) (restore func()) {
	if ext {
		stm.SetTimestampExtension(true)
		stm.SetClockStrategy(strat)
	} else {
		stm.SetClockStrategy(strat)
		stm.SetTimestampExtension(false)
	}
	return func() {
		stm.SetTimestampExtension(true)
		stm.SetClockStrategy(stm.GV4)
	}
}

// TestTraceOpacityAllPipelines runs the bounded mixed workload —
// invariant-preserving RMW writers, an Atomically reader, an RO-fast-path
// reader — under every commit pipeline and verifies the recorded history
// with both oracles. The Vars are created after the pipeline is selected,
// which is what makes the tictoc row safe: TicToc reinterprets the
// lock-word payload and must never see versioned payloads.
func TestTraceOpacityAllPipelines(t *testing.T) {
	for _, pl := range tracePipelines {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			restore := setTracePipeline(pl.strat, pl.ext)
			defer restore()
			x := stm.NewVar(0)
			y := stm.NewVar(0)
			stm.StartTrace()
			var wg sync.WaitGroup
			wg.Add(4)
			for w := 0; w < 2; w++ {
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						_ = stm.Atomically(func(tx *stm.Tx) error {
							x.Set(tx, x.Get(tx)+1)
							y.Set(tx, y.Get(tx)+1)
							return nil
						})
					}
				}()
			}
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					_ = stm.Atomically(func(tx *stm.Tx) error {
						if x.Get(tx) != y.Get(tx) {
							t.Error("reader saw x != y inside one snapshot")
						}
						return nil
					})
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					_ = stm.AtomicallyRO(func(tx *stm.Tx) error {
						if x.Get(tx) != y.Get(tx) {
							t.Error("RO reader saw x != y inside one snapshot")
						}
						return nil
					})
				}
			}()
			wg.Wait()
			h := stm.StopTrace()
			verifyHistory(t, h)
			// The invariant x == y must hold in the final committed state too.
			var fx, fy int
			if err := stm.Atomically(func(tx *stm.Tx) error {
				fx, fy = x.Get(tx), y.Get(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if fx != 6 || fy != 6 {
				t.Fatalf("final state = (%d,%d), want (6,6)", fx, fy)
			}
		})
	}
}

// TestTraceOpacityOrderedMap puts the link variable kind (ref) through the
// oracle: writers insert and delete key pairs, readers Range on the full
// and the read-only path, and every link read and write is in the history
// with the node's address as its value (a fresh node's construction-time
// links and value are traced as the inserting attempt's writes — they
// become reachable only if it commits). Run under GV4+extension and under
// TicToc, where a reader advances a link's rts by casWord on the ref.
func TestTraceOpacityOrderedMap(t *testing.T) {
	for _, pl := range tracePipelines {
		if pl.name != "gv4+ext" && pl.name != "tictoc" {
			continue
		}
		t.Run(pl.name, func(t *testing.T) {
			defer setTracePipeline(pl.strat, pl.ext)()
			m := stm.NewOrderedMap[int]()
			before := stm.ReadStats()
			stm.StartTrace()
			pairSum := func(tx *stm.Tx) error {
				n := 0
				m.Range(tx, "", "", func(_ string, v int) bool { n += v; return true })
				if n%2 != 0 {
					t.Errorf("Range saw half of a pair: values sum to %d", n)
				}
				return nil
			}
			// Two sequential commits leave links of different ages behind,
			// so under TicToc the first Range has an rts to advance.
			for _, k := range []string{"a", "m"} {
				_ = stm.Atomically(func(tx *stm.Tx) error { m.Put(tx, k, 2); return nil })
			}
			_ = stm.AtomicallyRO(pairSum)
			var wg sync.WaitGroup
			for w, keys := range [][2]string{{"b", "y"}, {"c", "x"}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = stm.Atomically(func(tx *stm.Tx) error {
						m.Put(tx, keys[0], 1+2*w)
						m.Put(tx, keys[1], 1+2*w)
						return nil
					})
					_ = stm.Atomically(func(tx *stm.Tx) error {
						m.Delete(tx, keys[0])
						m.Delete(tx, keys[1])
						return nil
					})
				}()
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				_ = stm.Atomically(pairSum)
			}()
			go func() {
				defer wg.Done()
				_ = stm.AtomicallyRO(pairSum)
			}()
			wg.Wait()
			h := stm.StopTrace()
			verifyHistory(t, h)
			const heapAddr = 1 << 16 // no traced int comes near; every node address is above
			var linkReads, linkWrites int
			for _, rec := range h.Txns {
				for _, op := range rec.Ops {
					switch {
					case op.Kind == tm.OpRead && op.Value > heapAddr:
						linkReads++
					case op.Kind == tm.OpWrite && op.Value > heapAddr:
						linkWrites++
					}
				}
			}
			if linkReads == 0 || linkWrites == 0 {
				t.Errorf("history has %d link reads and %d link writes, want both:\n%s", linkReads, linkWrites, h)
			}
			if d := stm.ReadStats().Sub(before); pl.strat == stm.TicToc && d.RTSAdvances == 0 {
				t.Errorf("stats delta = %+v, want an rts advance on a link", d)
			}
			if got := m.SnapshotLen(); got != 2 {
				t.Errorf("final length %d, want 2", got)
			}
		})
	}
}

// TestTraceOrElseUnsupported pins the trace hook's documented OrElse
// limitation (stm/trace.go "Limitations"): writes are recorded at
// invocation time, so a branch that Retry-rolls-back leaves its buffered
// writes in the trace even though they never publish. The recorded
// history therefore contains a phantom write — which is exactly why
// traced workloads must not use OrElse, and why the oracle suites are
// built on plain Atomically bodies. If tracing ever learns to unwind
// rolled-back branches, this test should start failing and be updated
// deliberately.
func TestTraceOrElseUnsupported(t *testing.T) {
	x := stm.NewVar(0)
	y := stm.NewVar(0)
	stm.StartTrace()
	if err := stm.Atomically(func(tx *stm.Tx) error {
		return tx.OrElse(func(tx *stm.Tx) error {
			_ = x.Get(tx)
			x.Set(tx, 1) // rolled back when the branch retries...
			tx.Retry()
			return nil
		}, func(tx *stm.Tx) error {
			y.Set(tx, 2)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	h := stm.StopTrace()
	// The committed state has only g's write...
	var fx, fy int
	if err := stm.Atomically(func(tx *stm.Tx) error {
		fx, fy = x.Get(tx), y.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fx != 0 || fy != 2 {
		t.Fatalf("final state = (%d,%d), want (0,2): OrElse must roll back f's write", fx, fy)
	}
	// ...but the trace recorded both writes: f's rolled-back x write is a
	// phantom. Pin it so the limitation stays documented-and-true.
	if len(h.Txns) != 1 {
		t.Fatalf("trace has %d records, want 1:\n%s", len(h.Txns), h)
	}
	writes := 0
	for _, op := range h.Txns[0].Ops {
		if op.Kind == tm.OpWrite {
			writes++
		}
	}
	if writes != 2 {
		t.Fatalf("traced %d writes, want 2 (g's write plus f's phantom):\n%s", writes, h)
	}
}

// TestTraceHistoryJSONRoundTrip: the recorded native history marshals to
// the JSON encoding `tmbench -exp check` consumes and survives the round trip —
// the native trace and the simulator's recorder speak one format.
func TestTraceHistoryJSONRoundTrip(t *testing.T) {
	x := stm.NewVar(0)
	stm.StartTrace()
	_ = stm.Atomically(func(tx *stm.Tx) error {
		x.Set(tx, x.Get(tx)+1)
		return nil
	})
	_ = stm.AtomicallyRO(func(tx *stm.Tx) error {
		_ = x.Get(tx)
		return nil
	})
	h := stm.StopTrace()
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back tm.History
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != h.String() {
		t.Fatalf("round trip changed the history:\n%s\nvs\n%s", h, &back)
	}
	verifyHistory(t, &back)
}
