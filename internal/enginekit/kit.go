// Package enginekit is the part of a native STM engine that is not
// protocol: the work meter, the abort taxonomy and its counter stripes,
// admission, the contention profiler and latency sampling, the test-only
// sync-point hook and history trace, the panic-signal translation behind
// the retry loops, the OrElse branch runner and the pacing of a parked
// Retry. repro/stm, repro/stm/norecstm and repro/stm/mvstm each hold one
// Kit (engine-wide state) and embed one Desc in every transaction
// descriptor (per-call state); what they keep for themselves is the
// protocol — lock words, the sequence lock, clocks, version chains, read
// and write sets — plus their own counters beside Counters, the release
// of a descriptor, and the predicate a parked Retry waits on.
//
// The paper's method is to count steps and space; the meter, the
// taxonomy and the trace are that accounting on the native engines, so
// it is written once and all three count the same way.
//
// One rule holds the hot path: Kit.flags has a bit per installed concern
// (metering, admission, sync hook, trace, latency sampling), Desc.Begin
// copies it into the descriptor once per call, and with nothing
// installed that copy and one branch are the whole cost. Every later
// test is a bit test on the descriptor's own word.
package enginekit

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loghist"
	"repro/internal/syncpoint"
	"repro/internal/telemetry"
	"repro/stm/budget"
)

// Flag bits. The first five mirror what is installed in the Kit and are
// sampled into Desc.flags at Begin; the last two are per-call state kept
// in the same word so Begin resets them with the same store.
const (
	flagMeter uint32 = 1 << iota
	flagAdmit
	flagSync
	flagTrace
	flagLatency
	flagSampled  // this call was picked by latency sampling
	flagExceeded // a charge found the grant exhausted
)

// Kit is one engine's cross-cutting state. The zero value is not usable;
// an engine initialises its package-level Kit with Init.
type Kit struct {
	name      string
	namespace uint64 // telemetry id namespace of this engine's Vars

	flags atomic.Uint32
	mu    sync.Mutex // orders the setters' pointer-and-flag updates

	policy    atomic.Pointer[budget.Policy]
	admission atomic.Pointer[budget.Admitter]
	profiler  atomic.Pointer[telemetry.Sketch]

	// latEvery is the power-of-two latency sampling period (0 = off),
	// compared against a descriptor-local sequence so sampling adds no
	// shared word. commitLatency holds sampled wall-clock µs from a
	// call's first attempt to its commit, attempts how many attempts
	// that call burned; budget- and ctx-aborted calls are not recorded.
	latEvery      atomic.Uint64
	commitLatency loghist.Hist
	attempts      loghist.Hist

	// syncHook and syncProc are the scheduling harness's callbacks, trace
	// the active history collector. All three are test-only, written with
	// no transaction in flight, and read only behind their flag bit.
	syncHook func(syncpoint.Point)
	syncProc func() int
	trace    *traceCollector

	seq     atomic.Uint64 // hands out stripe indices to new descriptors
	stripes [Stripes]*Counters
}

// kits maps engine names to their Kits. It is filled by the engine
// packages' initialisation and only read afterwards.
var kits = map[string]*Kit{}

// Init names the kit, binds it to the Counters embedded in the engine's
// padded stripes, and registers it for ByName. name prefixes the kit's
// panics; namespace tags the engine's Var ids in contention reports.
func (k *Kit) Init(name string, namespace uint64, stripe func(i int) *Counters) {
	k.name, k.namespace = name, namespace
	for i := range k.stripes {
		k.stripes[i] = stripe(i)
	}
	kits[name] = k
}

// ByName returns the named engine's Kit, or nil if no imported engine
// package has that name.
func ByName(name string) *Kit { return kits[name] }

// setFlag raises or clears one installed-concern bit (k.mu held).
func (k *Kit) setFlag(bit uint32, on bool) {
	if on {
		k.flags.Or(bit)
	} else {
		k.flags.And(^bit)
	}
}

// SetBudgetPolicy installs the engine-wide metering policy; nil disables
// metering. Grant is sampled once per call, so in-flight transactions
// keep the grant they started with.
func (k *Kit) SetBudgetPolicy(p budget.Policy) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if p == nil {
		k.policy.Store(nil)
	} else {
		k.policy.Store(&p)
	}
	k.setFlag(flagMeter, p != nil)
}

// SetAdmission installs the engine-wide admission gate; nil disables it.
// Admit is called once per update-transaction call, before the first
// attempt; read-only transactions are never gated.
func (k *Kit) SetAdmission(a budget.Admitter) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if a == nil {
		k.admission.Store(nil)
	} else {
		k.admission.Store(&a)
	}
	k.setFlag(flagAdmit, a != nil)
}

// SetContentionProfiler installs (or, with nil, removes) the hot-Var
// contention sketch fed by NoteAbort. It has no flag bit: abort sites
// load the pointer, and those run only on aborts.
func (k *Kit) SetContentionProfiler(s *telemetry.Sketch) { k.profiler.Store(s) }

// Label names the Var with the given id in hot-Var contention reports.
func (k *Kit) Label(id uint64, name string) { telemetry.SetLabel(k.namespace|id, name) }

// SetLatencySampling enables commit-latency and attempts-per-commit
// sampling for roughly 1 in every calls (rounded up to a power of two;
// ≤ 0 disables, 1 samples every call).
func (k *Kit) SetLatencySampling(every int) {
	e := uint64(0)
	if every > 0 {
		e = 1 << bits.Len(uint(every-1))
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.latEvery.Store(e)
	k.setFlag(flagLatency, e != 0)
}

// LatencyHists returns the sampled commit-latency (µs) and
// attempts-per-commit histograms; they accumulate for the life of the
// process, so renderers should diff snapshots.
func (k *Kit) LatencyHists() (commitUS, attempts *loghist.Hist) {
	return &k.commitLatency, &k.attempts
}

// Desc is the kit's per-descriptor state, embedded (as a named field) in
// each engine's Tx. NewDesc binds it to a Kit and a stripe for the
// descriptor's pooled lifetime; Begin re-samples the rest once per call.
type Desc struct {
	kit   *Kit
	c     *Counters
	shard uint32
	flags uint32
	// left and Costs are the call's work-budget grant (valid while
	// flagMeter is set). The grant survives the engine's per-attempt
	// reset: retries spend the same budget.
	left  uint64
	Costs budget.Costs
	// latSeq drives latency sampling and survives pool recycling, which
	// spreads sampling phase across pooled descriptors.
	latSeq   uint32
	latStart time.Time
	round    int // pacing round the current or last Park reached
	trec     *traceTxn
}

// NewDesc returns the kit state of a new pooled descriptor, assigned the
// next counter stripe.
func (k *Kit) NewDesc() Desc {
	s := uint32(k.seq.Add(1))
	return Desc{kit: k, c: k.stripes[s&(Stripes-1)], shard: s}
}

// Shard is the descriptor's stripe sequence number: mask it with
// Stripes-1 to index the engine's stripes. It is unique per descriptor,
// so engines also use it as a per-descriptor seed.
func (d *Desc) Shard() uint32 { return d.shard }

// Begin samples the kit into the descriptor, once per Atomically call.
// update says the call may write, which is what admission gates. With
// nothing installed this is one load, one store and one branch.
func (d *Desc) Begin(update bool) {
	d.flags = d.kit.flags.Load()
	if d.flags != 0 {
		d.beginSlow(update)
	}
}

func (d *Desc) beginSlow(update bool) {
	k := d.kit
	if update && d.flags&flagAdmit != 0 {
		if a := k.admission.Load(); a != nil {
			(*a).Admit()
		}
	}
	if d.flags&flagMeter != 0 {
		if p := k.policy.Load(); p != nil {
			d.left, d.Costs = (*p).Grant()
		} else {
			d.flags &^= flagMeter
		}
	}
	if d.flags&flagLatency != 0 {
		d.latSeq++
		if p := k.latEvery.Load(); p != 0 && uint64(d.latSeq)&(p-1) == 0 {
			d.flags |= flagSampled
			d.latStart = time.Now()
		}
	}
}

// Committed counts a commit (attempt is the zero-based attempt that
// committed, ro whether it did so on the engine's read-only path),
// records the sampled latency and closes the trace record.
func (d *Desc) Committed(attempt int, ro bool) {
	d.c.Commits.Add(1)
	if ro {
		d.c.ROCommits.Add(1)
	}
	if d.flags&(flagSampled|flagTrace) != 0 {
		d.committedSlow(attempt)
	}
}

func (d *Desc) committedSlow(attempt int) {
	if d.flags&flagSampled != 0 {
		d.kit.commitLatency.Observe(uint64(time.Since(d.latStart).Microseconds()))
		d.kit.attempts.Observe(uint64(attempt) + 1)
	}
	d.TraceEnd(true)
}

// Failed counts a failed attempt and closes its trace record. It reports
// whether the attempt died of an exhausted budget, in which case the
// engine releases the descriptor and returns BudgetAbort's error instead
// of retrying.
func (d *Desc) Failed(ctl Ctl) (outOfBudget bool) {
	d.c.Aborts.Add(1)
	d.TraceEnd(false)
	return ctl == CtlBudget || d.flags&flagExceeded != 0
}

// NoteAbort classifies an abort at its site: one indexed Add on the
// descriptor's stripe, plus the contention sketch when one is installed
// and the abort can name the Var it conflicted on (varID 0 = none). The
// attempt loop still counts the abort itself through Failed, so every
// entry in Stats.Aborts carries exactly one conflict reason.
func (d *Desc) NoteAbort(reason int, varID uint64) {
	d.c.Reasons[reason].Add(1)
	if s := d.kit.profiler.Load(); s != nil && varID != 0 {
		s.Observe(d.kit.namespace | varID)
	}
}
