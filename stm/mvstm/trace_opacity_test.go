package mvstm_test

// Native-history opacity tests for the multi-version engine: the
// test-only trace hook (mvstm/trace.go) records every attempt as an
// internal/tm.History and the internal/check oracles verify opacity and
// strict serializability — the same verification pass the stm engine got
// in PR 4, now covering snapshot reads, pinned old snapshots, and GC
// truncation. The serialization oracles do exhaustive search, so
// workloads here are deliberately bounded.

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/tm"
	"repro/stm/budget"
	"repro/stm/mvstm"
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
// read-modify-write writer, one Atomically reader, one AtomicallyRO
// snapshot reader — must produce an opaque, strictly serializable
// history, aborted update attempts included. Run with -race.
func TestTraceOpacityConcurrentMixed(t *testing.T) {
	x := mvstm.NewVar(0)
	y := mvstm.NewVar(0)
	mvstm.StartTrace()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			_ = mvstm.Atomically(func(tx *mvstm.Tx) error {
				x.Set(tx, x.Get(tx)+1)
				y.Set(tx, y.Get(tx)+1)
				return nil
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			_ = mvstm.Atomically(func(tx *mvstm.Tx) error {
				if x.Get(tx) != y.Get(tx) {
					t.Error("update-path reader saw x != y inside one snapshot")
				}
				return nil
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			_ = mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
				if x.Get(tx) != y.Get(tx) {
					t.Error("snapshot reader saw x != y")
				}
				return nil
			})
		}
	}()
	wg.Wait()
	h := mvstm.StopTrace()
	verifyHistory(t, h)
}

// TestTraceOpacityPinnedSnapshot orchestrates the engine's defining
// interleaving deterministically: a snapshot transaction pins, reads x,
// then a writer commits to both x and y *inside the snapshot's window* —
// and the snapshot's later read of y still returns the pre-writer value
// (TL2's RO path would abort and replay here; the multi-version engine
// reads its version and runs once). The history must serialize with the
// snapshot before the writer despite finishing after it in real time.
func TestTraceOpacityPinnedSnapshot(t *testing.T) {
	x := mvstm.NewVar(0)
	y := mvstm.NewVar(0)
	mvstm.StartTrace()
	invocations := 0
	var gotX, gotY int
	if err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		invocations++
		gotX = x.Get(tx)
		if err := mvstm.Atomically(func(wtx *mvstm.Tx) error {
			x.Set(wtx, 2)
			y.Set(wtx, 2)
			return nil
		}); err != nil {
			return err
		}
		gotY = y.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h := mvstm.StopTrace()
	if invocations != 1 {
		t.Fatalf("snapshot ran %d times, want exactly 1", invocations)
	}
	if gotX != 0 || gotY != 0 {
		t.Fatalf("snapshot = (%d,%d), want (0,0) (the pre-writer versions)", gotX, gotY)
	}
	verifyHistory(t, h)
	// The committed snapshot transaction must be read-only in the record.
	ro := 0
	for _, rec := range h.Txns {
		if rec.Status == tm.TxnCommitted && rec.ReadOnly() {
			ro++
		}
	}
	if ro != 1 {
		t.Fatalf("history has %d committed read-only transactions, want 1:\n%s", ro, h)
	}
}

// TestTraceOpacityGCTruncation is the GC-truncation interleaving: a
// reader pins after a prefix of writes, more writes land and force
// truncation below the retention (reclaiming versions older than the
// reader's floor), and the reader's subsequent read still returns its
// floor version. The full history — truncating writers included — must
// stay opaque and strictly serializable.
func TestTraceOpacityGCTruncation(t *testing.T) {
	mvstm.SetRetention(2)
	defer mvstm.SetRetention(mvstm.DefaultRetention)
	x := mvstm.NewVar(0)
	mvstm.StartTrace()
	before := mvstm.ReadStats()
	// Prefix: three committed versions before the reader pins.
	for i := 1; i <= 3; i++ {
		if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
			x.Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var first, last int
	if err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		first = x.Get(tx)
		// Churn inside the snapshot's window: truncation reclaims versions
		// below the pinned floor but must keep the floor itself.
		for i := 4; i <= 9; i++ {
			if err := mvstm.Atomically(func(wtx *mvstm.Tx) error {
				x.Set(wtx, i)
				return nil
			}); err != nil {
				return err
			}
		}
		last = x.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h := mvstm.StopTrace()
	if first != 3 || last != 3 {
		t.Fatalf("pinned snapshot read (%d,%d), want (3,3)", first, last)
	}
	if d := mvstm.ReadStats().Sub(before); d.VersionsReclaimed == 0 {
		t.Fatalf("no truncation happened inside the snapshot window: %+v", d)
	}
	if got := mvstm.ChainLen(x); got >= 10 {
		t.Fatalf("chain length = %d, want truncation below the full history", got)
	}
	verifyHistory(t, h)
}

// TestTraceOpacityBudgetAbort pins the metering soundness claim on the
// multi-version engine: refusing a snapshot scan mid-walk (the one abort
// the otherwise abort-free RO path has) must leave a history the opacity
// checker cannot tell from a validation abort — the refused attempt read
// only committed state and published nothing. The refusal lands between
// two invariant-preserving writer commits.
func TestTraceOpacityBudgetAbort(t *testing.T) {
	x := mvstm.NewVar(0)
	y := mvstm.NewVar(0)
	mvstm.StartTrace()
	writeBoth := func(v int) {
		if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
			x.Set(tx, v)
			y.Set(tx, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	writeBoth(1)
	// Unit costs: a head-hit snapshot read charges Read + Step×1 = 2, so
	// the first Get leaves 1 and the second refuses.
	mvstm.SetBudgetPolicy(budget.Fixed{Limit: 3})
	err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		_ = x.Get(tx)
		_ = y.Get(tx)
		t.Error("snapshot attempt survived an exhausted grant")
		return nil
	})
	mvstm.SetBudgetPolicy(nil)
	if !errors.Is(err, mvstm.ErrOutOfBudget) {
		t.Fatalf("err = %v, want ErrOutOfBudget", err)
	}
	if n := mvstm.ActivePins(); n != 0 {
		t.Fatalf("ActivePins = %d after the traced refusal, want 0", n)
	}
	writeBoth(2)
	h := mvstm.StopTrace()
	verifyHistory(t, h)
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
		// The read that fit the grant is in the record; the refused one
		// never completed its walk and must not be.
		if reads != 1 {
			t.Errorf("budget-aborted attempt recorded %d reads, want 1:\n%s", reads, h)
		}
	}
	if aborted != 1 {
		t.Fatalf("history has %d aborted attempts, want exactly the refusal:\n%s", aborted, h)
	}
}

// TestTraceHistoryJSONRoundTrip: the recorded mvstm history marshals to
// the JSON encoding `tmbench -exp check` consumes and survives the round trip.
func TestTraceHistoryJSONRoundTrip(t *testing.T) {
	x := mvstm.NewVar(0)
	mvstm.StartTrace()
	_ = mvstm.Atomically(func(tx *mvstm.Tx) error {
		x.Set(tx, x.Get(tx)+1)
		return nil
	})
	_ = mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		_ = x.Get(tx)
		return nil
	})
	h := mvstm.StopTrace()
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
