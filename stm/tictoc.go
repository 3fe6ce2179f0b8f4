package stm

// TicToc mode: the per-access-timestamp commit pipeline selected by
// SetClockStrategy(TicToc). There is no global clock; the 63-bit lock-word
// payload of every Var is reinterpreted as a (wts, rts) pair:
//
//	bit 63      lock flag (unchanged; tryLock/unlock pass the payload through)
//	bits 32..62 wts — write timestamp of the current version (31 bits)
//	bits 0..31  rts — highest timestamp any reader certified it at (32 bits)
//
// A version is valid over the closed interval [wts, rts]: it was installed
// at wts, and rts advances (by CAS, under no lock) as readers certify it at
// later timestamps. The rules mirror Yu et al.'s TicToc, adapted to this
// engine's certify-by-reload reads:
//
//   - A transaction maintains the running intersection [tx.rv, tx.ttHi] of
//     its reads' validity intervals; every value the user function has seen
//     is simultaneously valid at every point of that interval, so the
//     execution is always a consistent snapshot (opacity during execution,
//     not only at commit).
//   - A read whose version lies outside the intersection repairs it: a
//     too-low rts is CASed forward (ttAdvanceVar), and a too-high wts
//     raises the floor, which sweeps the logged read set advancing every
//     prior entry's rts (ttAdvancePriors) — O(|read set|) per floor raise,
//     the step cost TicToc pays for touching no shared clock word.
//   - Commit locks the write set in Var-id order, picks the serialization
//     point cts = max(floor, max over writes(rts+1)) — the smallest
//     timestamp above every certified read of the overwritten versions —
//     re-validates each logged read at cts (wts unchanged; rts ≥ cts,
//     advancing it if needed), and publishes each write as wts = rts = cts.
//
// Timestamp space is 31 bits (wts's field): after 2^31-1 commits the engine
// panics rather than wrap. That bounds a benchmarking/serving process at two
// billion update commits per run — documented in DESIGN.md.
//
// Real-time order is preserved where opacity needs it: if T1 committed
// before T2 began, T2's reads of anything T1 wrote see wts ≥ T1's cts (per-
// Var timestamps are monotone), and any conflict therefore orders T1 before
// T2; disjoint transactions commute. The tictoc opacity test drives
// adversarial interleavings through the trace hook and internal/check.

import (
	"repro/internal/enginekit"
	"repro/internal/syncpoint"
	"repro/internal/tm/lockword"
)

// ttRtsBits is the width of the rts field in the lock-word payload.
const ttRtsBits = 32

// ttRtsMask extracts rts from a payload.
const ttRtsMask = (uint64(1) << ttRtsBits) - 1

// ttMaxTs is the largest usable timestamp: wts has 63-32 = 31 bits.
const ttMaxTs = (uint64(1) << 31) - 1

// ttInitHi is the initial upper bound of a transaction's interval; rts
// values never exceed ttMaxTs (cts is range-checked), so this is +∞.
const ttInitHi = ttRtsMask

func ttWts(payload uint64) uint64 { return payload >> ttRtsBits }
func ttRts(payload uint64) uint64 { return payload & ttRtsMask }

// ttPack builds a payload; callers guarantee wts ≤ ttMaxTs and rts fits.
func ttPack(wts, rts uint64) uint64 { return wts<<ttRtsBits | rts }

// ttBegin resets the descriptor's interval for a new attempt. ttFloor
// carries the floor learned from a previous attempt's abort (see ttReadRO):
// starting there converts the abort class "prior unlogged read's rts below
// a new read's wts" into rts advances on the retry.
func (tx *Tx) ttBegin() {
	tx.rv = tx.ttFloor
	tx.ttHi = ttInitHi
}

// ttAdvanceVar CASes v's rts forward to target so the version's validity
// interval covers it. Safe without reading v's value: rts only asserts
// "this version is current through target", and any overwrite serializes
// after the advance (the writer's cts is computed from the locked payload,
// so it exceeds every previously published rts). Fails if v is locked or
// its wts changes mid-advance; the caller re-certifies.
func (tx *Tx) ttAdvanceVar(v varBase, target uint64) bool {
	for attempt := 0; attempt <= maxExtendAttempts; attempt++ {
		w := v.lockWord()
		if lockword.Locked(w) {
			return false
		}
		pl := lockword.Version(w)
		if ttRts(pl) >= target {
			return true
		}
		if v.casWord(w, ttPack(ttWts(pl), target)) {
			tx.stat().rtsAdvances.Add(1)
			return true
		}
	}
	return false
}

// ttAdvancePriors raises the transaction's interval to a new floor by
// advancing every logged read entry's rts to at least floor — the TicToc
// counterpart of timestamp extension, and the same O(|read set|) sweep,
// charged identically. An entry whose wts changed was genuinely
// overwritten: the sweep fails and the attempt aborts. On success the
// interval becomes [floor, min rts over entries] and every previously
// returned value is valid there.
func (tx *Tx) ttAdvancePriors(floor uint64) bool {
	tx.k.Charge(tx.k.Costs.Step * uint64(len(tx.reads)))
	hi := ttInitHi
	for i := range tx.reads {
		r := &tx.reads[i]
		wts := ttWts(r.ver)
		if !tx.ttAdvanceVar(r.v, floor) {
			tx.stat().extensionFailures.Add(1)
			return false
		}
		// Re-certify the entry: advance succeeded, but only the current
		// version's rts moved — it must still be the version we read.
		w := r.v.lockWord()
		pl := lockword.Version(w)
		if lockword.Locked(w) || ttWts(pl) != wts {
			tx.stat().extensionFailures.Add(1)
			return false
		}
		r.ver = pl
		if ttRts(pl) < hi {
			hi = ttRts(pl)
		}
	}
	tx.rv, tx.ttHi = floor, hi
	tx.stat().extensions.Add(1)
	return true
}

// ttRead is the TicToc read on the full pipeline: certify (word, value,
// re-load word), then fold the version's [wts, rts] interval into the
// transaction's running intersection, repairing rts (the Var's or the
// priors') when the intersection would go empty.
func (tx *Tx) ttRead(v varBase) boxRef {
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step)
	}
	if i, ok := tx.findWrite(v); ok {
		if tx.k.Tracing() {
			tx.k.TraceRead(v, v.boxValue(tx.writes[i].box))
		}
		return tx.writes[i].box
	}
	for attempt := 0; ; attempt++ {
		w := v.lockWord()
		if lockword.Locked(w) {
			tx.abortConflict(enginekit.LockBusy, v) // mid-commit elsewhere
		}
		pl := lockword.Version(w)
		b := v.loadBox()
		if v.lockWord() != w {
			if attempt >= maxExtendAttempts {
				tx.abortConflict(enginekit.ReadCertify, v)
			}
			continue
		}
		wts, rts := ttWts(pl), ttRts(pl)
		lo, hi := tx.rv, tx.ttHi
		if wts > lo {
			lo = wts
		}
		if rts < hi {
			hi = rts
		}
		if lo <= hi {
			if tx.k.Tracing() {
				tx.k.TraceRead(v, v.boxValue(b))
			}
			tx.k.SyncAt(syncpoint.PostReadCertify)
			for i, n := len(tx.reads)-1, len(tx.reads)-readDedupWindow; i >= 0 && i >= n; i-- {
				if tx.reads[i].v == v {
					tx.rv, tx.ttHi = lo, hi
					return b
				}
			}
			if tx.k.Metered() {
				tx.k.Charge(tx.k.Costs.Read)
			}
			tx.reads = append(tx.reads, readEntry{v: v, ver: pl})
			tx.rv, tx.ttHi = lo, hi
			return b
		}
		if attempt >= maxExtendAttempts {
			tx.abortConflict(enginekit.ReadCertify, v)
		}
		// Empty intersection. Exactly one of the two repairs applies (rts ≥
		// wts and ttHi ≥ tx.rv rule out both at once).
		if wts > tx.ttHi {
			// This version was installed past our interval: raise the floor,
			// sweeping the prior entries' rts forward.
			if !tx.ttAdvancePriors(wts) {
				tx.abortConflict(enginekit.Extension, v)
			}
		} else if !tx.ttAdvanceVar(v, tx.rv) {
			tx.abortConflict(enginekit.ReadCertify, v)
		}
	}
}

// ttReadRO is the TicToc read on the read-only fast path: the same
// interval intersection, but with no read log there is nothing to sweep
// when the floor rises — the attempt aborts and retries from the offending
// floor (tx.ttFloor), converting the conflict into plain rts advances on
// the retry. With zero certified reads the interval is simply re-seeded:
// a re-begin, exactly like the RO path's extension rule under the
// versioned strategies.
func (tx *Tx) ttReadRO(v varBase) boxRef {
	if tx.k.Metered() {
		tx.k.Charge(tx.k.Costs.Step + tx.k.Costs.Read)
	}
	for attempt := 0; ; attempt++ {
		w := v.lockWord()
		if lockword.Locked(w) {
			tx.abortConflict(enginekit.LockBusy, v)
		}
		pl := lockword.Version(w)
		b := v.loadBox()
		if v.lockWord() != w {
			if attempt >= maxExtendAttempts {
				tx.abortConflict(enginekit.ReadCertify, v)
			}
			continue
		}
		wts, rts := ttWts(pl), ttRts(pl)
		lo, hi := tx.rv, tx.ttHi
		if wts > lo {
			lo = wts
		}
		if rts < hi {
			hi = rts
		}
		if lo <= hi {
			tx.rv, tx.ttHi = lo, hi
			tx.roReads++
			if tx.k.Tracing() {
				tx.k.TraceRead(v, v.boxValue(b))
			}
			tx.k.SyncAt(syncpoint.PostReadCertify)
			return b
		}
		if attempt >= maxExtendAttempts {
			tx.abortConflict(enginekit.ReadCertify, v)
		}
		if wts > tx.ttHi {
			if tx.roReads > 0 {
				// Seed the retry's floor at the version that outran us, so the
				// replay advances stale rts values instead of re-aborting.
				tx.ttFloor = wts
				tx.abortConflict(enginekit.ReadCertify, v)
			}
			// No certified reads yet: adopting the version's own interval is
			// a re-begin, exactly like readRO's first-read extension.
			tx.rv, tx.ttHi = wts, rts
			tx.roReads++
			tx.stat().extensions.Add(1)
			if tx.k.Tracing() {
				tx.k.TraceRead(v, v.boxValue(b))
			}
			tx.k.SyncAt(syncpoint.PostReadCertify)
			return b
		}
		if !tx.ttAdvanceVar(v, tx.rv) {
			tx.abortConflict(enginekit.ReadCertify, v)
		}
	}
}

// ttCommit is the TicToc commit: lock the write set in Var-id order, pick
// the serialization point by interval intersection, validate the read set
// at it, publish. It never touches a shared clock word — ClockIncrements
// stays 0 under TicToc no matter the mix.
func (tx *Tx) ttCommit() bool {
	if len(tx.writes) == 0 {
		// Read-only: the running intersection [rv, ttHi] is non-empty, so
		// every read is valid at rv — already a consistent serialization
		// point, with nothing to publish and nothing to advance.
		return true
	}
	if !tx.k.ChargeSoft(tx.k.Costs.Step * uint64(len(tx.reads))) {
		return false
	}
	tx.sortWrites()
	tx.k.SyncAt(syncpoint.PreLock)
	locked := 0
	for i := range tx.writes {
		prev, ok := tx.writes[i].v.tryLock()
		if !ok {
			break
		}
		tx.writes[i].prev = prev
		locked++
	}
	releaseLocked := func(n int) {
		for i := 0; i < n; i++ {
			tx.writes[i].v.unlock(tx.writes[i].prev)
		}
	}
	if locked != len(tx.writes) {
		releaseLocked(locked)
		tx.noteAbort(enginekit.LockBusy, tx.writes[locked].v)
		return false
	}
	tx.k.SyncAt(syncpoint.PostLock)
	// Serialization point: above the floor of our own reads, and above
	// every certified read of the versions we overwrite (their rts, read
	// from the locked payloads, can no longer advance). Under TicToc the
	// cts selection is the clock stamp.
	tx.k.SyncAt(syncpoint.PreClockStamp)
	cts := tx.rv
	for i := range tx.writes {
		if r := ttRts(tx.writes[i].prev) + 1; r > cts {
			cts = r
		}
	}
	if cts > ttMaxTs {
		releaseLocked(locked)
		panic("stm: TicToc timestamp space exhausted (2^31-1 commits); restart the process or use a versioned clock strategy")
	}
	// Validate each logged read at cts: its version must still be current
	// (wts unchanged) and valid through cts (rts ≥ cts, advancing if not).
	for i := range tx.reads {
		r := &tx.reads[i]
		if j, own := tx.searchWrite(r.v); own {
			// Read-write Var: our lock freezes it, so the recorded version is
			// current iff its wts matches the locked payload. Its old version
			// stays current until our write at cts > its rts, so the read
			// serializes at cts⁻ with no rts advance needed.
			if ttWts(tx.writes[j].prev) != ttWts(r.ver) {
				releaseLocked(locked)
				tx.noteAbort(enginekit.CommitValidation, r.v)
				return false
			}
			continue
		}
		w := r.v.lockWord()
		pl := lockword.Version(w)
		if lockword.Locked(w) || ttWts(pl) != ttWts(r.ver) {
			releaseLocked(locked)
			tx.noteAbort(enginekit.CommitValidation, r.v)
			return false
		}
		if ttRts(pl) < cts && !tx.ttAdvanceVar(r.v, cts) {
			releaseLocked(locked)
			tx.noteAbort(enginekit.CommitValidation, r.v)
			return false
		}
	}
	tx.k.SyncAt(syncpoint.PrePublish)
	newPl := ttPack(cts, cts)
	for i := range tx.writes {
		e := &tx.writes[i]
		e.v.storeBox(e.box)
		e.v.unlock(newPl)
	}
	return true
}
