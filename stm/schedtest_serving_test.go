package stm_test

// The serving tier's torn scan as a deterministic regression. A /scan
// used to walk the shard maps outside any transaction, so a transfer
// batch that committed while the walk was between the two keys showed
// the scan one half of it. The scan is now one read-only transaction
// over every shard; this replay parks it after each of its certified
// reads in turn, runs a transfer batch to completion in the gap, and
// resumes it. The test lives here rather than in internal/server because
// the sync hook is exported to this package's test binary only.

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/schedtest"
	"repro/internal/server"
	"repro/internal/syncpoint"
	"repro/stm"
)

func TestSchedScanVsBatch(t *testing.T) {
	stm.SetClockStrategy(stm.GV4)
	r, err := server.NewRouter(2, "stm")
	if err != nil {
		t.Fatal(err)
	}
	// One key per shard: the scan reads a's shard first, then b's.
	a, b := "", ""
	for i := 0; a == "" || b == ""; i++ {
		if k := "acct" + strconv.Itoa(i); r.ShardFor(k) == 0 && a == "" {
			a = k
		} else if r.ShardFor(k) == 1 && b == "" {
			b = k
		}
	}
	if _, err := r.Batch([]server.Op{{Kind: "put", Key: a, Value: "100"}, {Kind: "put", Key: b, Value: "100"}}); err != nil {
		t.Fatal(err)
	}
	transfer := []server.Op{{Kind: "add", Key: a, Delta: -1}, {Kind: "add", Key: b, Delta: 1}}

	// scanAfter parks the scan once it has certified reads of its own
	// (never, for reads < 0), commits the transfer, then lets the scan
	// finish. It returns how many reads the scan certified in all and how
	// many of its attempts aborted.
	scanAfter := func(reads int) (certified int, aborts uint64) {
		var kvs []server.KV
		var scanErr, batchErr error
		h := schedtest.New()
		h.Go(func() { kvs, scanErr = r.Scan("", "", 0) })
		h.Go(func() { _, batchErr = r.Batch(transfer) })
		h.SetStepLimit(20_000)
		before := stm.ReadStats()
		stm.SetSyncHook(h.Hook(), h.Proc())
		defer stm.SetSyncHook(nil, nil)
		runErr := h.Run(&schedtest.PolicyFunc{Label: "transfer-inside-scan", PickFn: func(runnable []int, _ uint64) int {
			if (reads < 0 || h.Count(0, syncpoint.PostReadCertify) < reads) && slices.Contains(runnable, 0) {
				return 0
			}
			if slices.Contains(runnable, 1) {
				return 1
			}
			return runnable[0]
		}})
		stm.SetSyncHook(nil, nil)
		if runErr != nil || scanErr != nil || batchErr != nil {
			t.Fatalf("parked after %d reads: harness %v, scan %v, batch %v", reads, runErr, scanErr, batchErr)
		}
		if len(kvs) != 2 || kvs[0].Key != a || kvs[1].Key != b {
			t.Fatalf("parked after %d reads: scan returned %v, want %s then %s", reads, kvs, a, b)
		}
		av, _ := strconv.Atoi(kvs[0].Value)
		bv, _ := strconv.Atoi(kvs[1].Value)
		if av+bv != 200 {
			t.Fatalf("parked after %d reads: scan saw %s=%d and %s=%d, one half of a transfer", reads, a, av, b, bv)
		}
		return h.Count(0, syncpoint.PostReadCertify), stm.ReadStats().Sub(before).Aborts
	}

	total, _ := scanAfter(-1) // undisturbed: how many reads one scan certifies
	if total < 4 {
		t.Fatalf("an undisturbed scan certified %d reads, want a link and a value per key at least", total)
	}
	straddled := 0
	for reads := 0; reads < total; reads++ {
		if _, aborts := scanAfter(reads); aborts > 0 {
			straddled++
		}
	}
	t.Logf("transfer placed after each of a scan's %d reads: %d placements aborted the scan", total, straddled)
	// Parked before its first read the scan merely re-begins; parked with
	// a's value already read it has to abort on b's new version.
	if straddled == 0 {
		t.Fatalf("no scan aborted in %d placements of the transfer: the interleaving never straddled a commit", total)
	}
}
