package enginekit

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/tm"
	"repro/stm/budget"
)

// newKit returns a kit over its own stripes, as an engine package builds
// one at initialisation.
func newKit(t *testing.T) *Kit {
	t.Helper()
	k, stripes := new(Kit), new([Stripes]Counters)
	k.Init("kit-under-test", 0, func(i int) *Counters { return &stripes[i] })
	return k
}

// begun returns a descriptor that has sampled k at the top of an update
// call, the state in which an engine charges it.
func begun(k *Kit) *Desc {
	d := k.NewDesc()
	d.Begin(true)
	return &d
}

// charged reports whether Charge(n) ran the meter dry.
func charged(d *Desc, n uint64) (refused bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(BudgetSignal); !ok {
				panic(r)
			}
			refused = true
		}
	}()
	d.Charge(n)
	return false
}

// The meter's edges, in the shape of a VM gas meter's out-of-gas suite.

func TestChargeExactGrantLeavesZero(t *testing.T) {
	k := newKit(t)
	k.SetBudgetPolicy(budget.Fixed{Limit: 7})
	d := begun(k)
	if charged(d, 7) {
		t.Fatal("a charge equal to the grant was refused")
	}
	if d.Left() != 0 || d.flags&flagExceeded != 0 {
		t.Fatalf("after the exact charge: left = %d, exceeded = %v; want 0, false", d.Left(), d.flags&flagExceeded != 0)
	}
	if !d.ChargeSoft(0) || charged(d, 0) {
		t.Fatal("a zero-cost charge on an empty meter was refused")
	}
}

func TestChargeOneShortRefusesAndKeepsTheGrant(t *testing.T) {
	for _, soft := range []bool{false, true} {
		k := newKit(t)
		k.SetBudgetPolicy(budget.Fixed{Limit: 7})
		d := begun(k)
		refused := false
		if soft {
			refused = !d.ChargeSoft(8)
		} else {
			refused = charged(d, 8)
		}
		if !refused {
			t.Fatalf("soft=%v: a charge one unit over the grant went through", soft)
		}
		if d.Left() != 7 {
			t.Fatalf("soft=%v: a refused charge debited the grant: left = %d, want 7", soft, d.Left())
		}
		if !d.Failed(CtlOK) {
			t.Fatalf("soft=%v: Failed does not report the exhausted budget", soft)
		}
	}
}

func TestUnmeteredNeverRefuses(t *testing.T) {
	d := begun(newKit(t))
	if d.Metered() {
		t.Fatal("descriptor metered with no policy installed")
	}
	for _, n := range []uint64{0, 1, 1 << 62, ^uint64(0)} {
		if charged(d, n) || !d.ChargeSoft(n) {
			t.Fatalf("unmetered charge of %d refused", n)
		}
	}
	if d.Failed(CtlRetryNow) {
		t.Fatal("an unmetered conflict abort reported an exhausted budget")
	}
}

func TestChargeSoftNeverPanics(t *testing.T) {
	k := newKit(t)
	k.SetBudgetPolicy(budget.Fixed{Limit: 3})
	d := begun(k)
	for i := 0; i < 10; i++ { // runs dry on the fourth and stays dry
		if ok := d.ChargeSoft(1); ok != (i < 3) {
			t.Fatalf("ChargeSoft #%d = %v", i, ok)
		}
	}
}

// A call samples the policy once: removing it mid-call changes nothing
// for that call, and the next call on the recycled descriptor starts
// clean — unmetered, not exceeded.
func TestBeginResamplesPerCall(t *testing.T) {
	k := newKit(t)
	k.SetBudgetPolicy(budget.Fixed{Limit: 1})
	d := begun(k)
	k.SetBudgetPolicy(nil)
	if !d.Metered() || !charged(d, 2) {
		t.Fatal("an in-flight call lost its grant when the policy was removed")
	}
	d.Begin(true)
	if d.Metered() || d.flags != 0 || charged(d, 2) {
		t.Fatalf("recycled descriptor kept per-call state: flags = %b", d.flags)
	}
}

func TestBudgetAbortCountsBothLedgers(t *testing.T) {
	k := newKit(t)
	d := begun(k)
	d.Failed(CtlBudget)
	if err := d.BudgetAbort(); err != budget.ErrOutOfBudget {
		t.Fatalf("BudgetAbort() = %v", err)
	}
	c := k.Common()
	if c.Aborts != 1 || c.BudgetAborts != 1 || c.AbortReasons.Budget != 1 || c.AbortReasons.Total() != 1 {
		t.Fatalf("after one budget abort: %+v", c)
	}
}

// Every AbortReasons field must appear in Total, Sub, Map and the stripe
// summation, at the index its constant names: a seventh class cannot be
// half-added.
func TestAbortReasonsFieldsAreCoveredEverywhere(t *testing.T) {
	typ := reflect.TypeOf(AbortReasons{})
	if typ.NumField() != NReasons {
		t.Fatalf("AbortReasons has %d fields, NReasons = %d", typ.NumField(), NReasons)
	}
	k := newKit(t)
	d := begun(k)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var r AbortReasons
		reflect.ValueOf(&r).Elem().Field(i).SetUint(5)
		if r.Total() != 5 {
			t.Errorf("%s: Total() = %d, want 5", name, r.Total())
		}
		m := r.Map()
		if len(m) != NReasons || m[reasonNames[i]] != 5 {
			t.Errorf("%s: Map() = %v, want %d keys with %q = 5", name, m, NReasons, reasonNames[i])
		}
		if r.Sub(AbortReasons{}) != r || r.Sub(r) != (AbortReasons{}) {
			t.Errorf("%s: Sub drops the field", name)
		}
		before := k.Common().AbortReasons
		d.NoteAbort(i, 0)
		got := k.Common().AbortReasons.Sub(before)
		if reflect.ValueOf(got).Field(i).Uint() != 1 || got.Total() != 1 {
			t.Errorf("%s: NoteAbort(%d) landed as %+v", name, i, got)
		}
	}
}

// The pacing schedule: four yields, then 1µs doubling to the 1ms cap.
func TestPaceSleepSchedule(t *testing.T) {
	for round := 0; round < paceYields; round++ {
		if got := PaceSleep(round); got != 0 {
			t.Fatalf("round %d: PaceSleep = %v, want a yield", round, got)
		}
	}
	want := time.Microsecond
	for round := paceYields; round < paceYields+40; round++ {
		if got := PaceSleep(round); got != want {
			t.Fatalf("round %d: PaceSleep = %v, want %v", round, got, want)
		}
		want = min(2*want, PaceCap)
	}
	if PaceSleep(1<<30) != PaceCap {
		t.Fatal("a very long wait sleeps something other than the cap")
	}
}

// Park polls its predicate every round, records the round it reached, and
// returns within a round of the context ending.
func TestParkReachesTheSleepingPhaseAndHonoursCtx(t *testing.T) {
	d := begun(newKit(t))
	polls := 0
	d.Park(nil, func() bool { polls++; return polls > paceYields+3 })
	if d.ParkRound() != paceYields+3 {
		t.Fatalf("ParkRound = %d after %d polls", d.ParkRound(), polls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.Park(ctx, func() bool { return false })
	if d.ParkRound() != 0 {
		t.Fatalf("a cancelled Park paced %d rounds", d.ParkRound())
	}
}

// Two attempts traced through one collector interleave into a legal
// tm.History: globally unique increasing seqs, each record's operations
// inside its [StartSeq, EndSeq] window, Var identities mapped to dense
// object ids — and the oracles accept it.
func TestTraceCollectorInterleavesTwoAttempts(t *testing.T) {
	k := newKit(t)
	k.StartTrace()
	reader, writer := begun(k), begun(k)
	x, y := new(int), new(int) // Var identities

	reader.TraceBegin()
	reader.TraceRead(x, 0)
	writer.TraceBegin()
	writer.TraceRead(x, 0)
	writer.TraceWrite(x, 1)
	writer.TraceWrite(y, uint64(1))
	reader.TraceRead(y, uint64(0))
	writer.Committed(0, false)
	reader.Committed(0, true)
	loser := begun(k)
	loser.TraceBegin()
	loser.TraceRead(x, 1)
	loser.Failed(CtlRetryNow)

	h := k.StopTrace()
	if len(h.Txns) != 3 {
		t.Fatalf("history has %d records, want 3", len(h.Txns))
	}
	seen := map[int]bool{}
	for _, rec := range h.Txns {
		last := rec.StartSeq
		if seen[last] {
			t.Fatalf("T%d: StartSeq %d reused:\n%s", rec.ID, last, h)
		}
		seen[last] = true
		for _, op := range rec.Ops {
			if op.Seq <= last || seen[op.Seq] {
				t.Fatalf("T%d: seq %d out of order or reused:\n%s", rec.ID, op.Seq, h)
			}
			last, seen[op.Seq] = op.Seq, true
		}
		if rec.EndSeq != last {
			t.Fatalf("T%d: EndSeq %d is not its last op's seq %d", rec.ID, rec.EndSeq, last)
		}
	}
	if got := h.Txns[0].ReadSet(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("reader's objects = %v, want x→0, y→1", got)
	}
	if h.Txns[0].Status != tm.TxnCommitted || h.Txns[1].Status != tm.TxnCommitted || h.Txns[2].Status != tm.TxnAborted {
		t.Fatalf("statuses wrong:\n%s", h)
	}
	if !check.Opaque(h).OK || !check.StrictlySerializable(h).OK {
		t.Fatalf("oracles reject the interleaved history:\n%s", h)
	}
	if c := k.Common(); c.Commits != 2 || c.ROCommits != 1 || c.Aborts != 1 {
		t.Fatalf("counters after the three attempts: %+v", c)
	}

	// Tracing off again: the next call pays nothing and records nothing.
	after := begun(k)
	after.TraceBegin()
	after.Committed(0, false)
	if after.Tracing() || len(k.StopTrace().Txns) != 0 {
		t.Fatal("a call begun after StopTrace was traced")
	}
}

func TestTraceRefusesNonScalarValues(t *testing.T) {
	k := newKit(t)
	k.StartTrace()
	defer k.StopTrace()
	d := begun(k)
	d.TraceBegin()
	defer func() {
		want := "kit-under-test: trace mode supports int and uint64 Var values only, got string"
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	d.TraceRead(new(int), "not a scalar")
}

// The sampling period rounds up to a power of two, so the per-call check
// is a mask; ≤ 0 switches sampling (and its flag bit) off.
func TestLatencySamplingPeriodRoundsUp(t *testing.T) {
	k := newKit(t)
	for every, want := range map[int]uint64{-1: 0, 0: 0, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1 << 20: 1 << 20} {
		k.SetLatencySampling(every)
		if got := k.latEvery.Load(); got != want || (k.flags.Load()&flagLatency != 0) != (want != 0) {
			t.Errorf("SetLatencySampling(%d): period %d (want %d), flags %b", every, got, want, k.flags.Load())
		}
	}
}
