package mvstm_test

// Differential fuzzing of the multi-version engine: a fuzzed op sequence
// drives mvstm transactions and a mutex-guarded model map side by side.
// Beyond the value/presence agreement the container fuzzers check, this
// target exercises the engine's version machinery: chain overflow past
// the inline head, GC truncation at the retention boundary, and — via a
// channel-coordinated goroutine holding one AtomicallyRO open across
// driver ops — the reader-pinned-epoch vs writer race: the pinned
// snapshot must keep returning the model state captured at its pin, no
// matter how many versions writers push or the GC reclaims meanwhile.
//
// Each hot key also carries a mixed record — four Vars of different types
// (int64, string, struct, slice; see typed_test.go) kept in agreement —
// so the chains of heterogeneous Vars cross one write set, the promotion
// past writeSetMapThreshold, GC truncation and the pinned snapshot too.
//
// CI runs this as a smoke job (`go test -fuzz=FuzzMVStm -fuzztime=10s`,
// see make fuzz-smoke); a plain `go test` replays just the seeds.

import (
	"testing"

	"repro/stm/mvstm"
)

// fuzzVars is the full fuzzed keyspace — wide enough that the batched
// transaction op can buffer more than writeSetMapThreshold (24) distinct
// Vars in one commit, exercising the write-set map promotion and the
// commit-time re-sort. Point ops stay inside the first fuzzHot Vars so
// chains there churn constantly.
const (
	fuzzVars = 40
	fuzzHot  = 8
)

// fuzzRetention keeps the retention at the inline-head size so overflow
// and truncation both happen within a few ops.
const fuzzRetention = 3

// pinnedSnap holds one AtomicallyRO transaction open on its own
// goroutine, serving reads on demand; all channel hand-offs are
// synchronous, so the interleaving is deterministic.
type pinnedSnap struct {
	req  chan int
	resp chan int
	done chan struct{}
	// model and recModel are the model state captured when the snapshot
	// pinned.
	model    [fuzzVars]int
	recModel [fuzzHot]int64
}

// openPinnedSnap serves vars[i] for a request i ≥ 0 and the mixed record
// recs[-i-1] for i < 0 (-1 standing for a torn record).
func openPinnedSnap(vars []*mvstm.Var[int], recs []mixed, model *[fuzzVars]int, recModel *[fuzzHot]int64) *pinnedSnap {
	p := &pinnedSnap{req: make(chan int), resp: make(chan int), done: make(chan struct{}), model: *model, recModel: *recModel}
	ready := make(chan struct{})
	go func() {
		_ = mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
			close(ready)
			for i := range p.req {
				if i >= 0 {
					p.resp <- vars[i].Get(tx)
				} else if n, err := recs[-i-1].get(tx); err != nil {
					p.resp <- -1
				} else {
					p.resp <- int(n)
				}
			}
			return nil
		})
		close(p.done)
	}()
	<-ready
	return p
}

func (p *pinnedSnap) read(i int) int {
	p.req <- i
	return <-p.resp
}

func (p *pinnedSnap) close() {
	close(p.req)
	<-p.done
}

func FuzzMVStm(f *testing.F) {
	// Seeds: ops of 3 bytes (kind, var, val).
	// Chain overflow: 12 single-write commits to one Var (past the inline
	// head and the retention), then a snapshot readback.
	var overflow []byte
	for i := 0; i < 12; i++ {
		overflow = append(overflow, 0, 0, byte(i))
	}
	overflow = append(overflow, 2, 0, 0)
	f.Add(overflow)
	// GC truncation at the retention boundary: enough commits to one Var to
	// cross the sweep trigger (twice the retention), interleaved with reads.
	var boundary []byte
	for i := 0; i <= 2*fuzzRetention; i++ {
		boundary = append(boundary, 0, 1, byte(10+i))
	}
	boundary = append(boundary, 2, 1, 0, 0, 1, 99, 2, 1, 0)
	f.Add(boundary)
	// Reader-pinned-epoch vs writer race: pin, churn one Var far past the
	// retention, read through the pin (must see the pre-pin state), write
	// other Vars, read again, unpin, verify the post-pin world.
	pinRace := []byte{0, 2, 5, 3, 0, 0}
	for i := 0; i < 10; i++ {
		pinRace = append(pinRace, 0, 2, byte(20+i))
	}
	pinRace = append(pinRace, 4, 2, 0, 0, 3, 7, 4, 3, 0, 5, 0, 0, 2, 2, 0)
	f.Add(pinRace)
	// Batched multi-Var transaction crossing the write-set promotion
	// threshold (24), plus RMWs and a full snapshot readback.
	f.Add([]byte{6, 0, 30, 1, 4, 9, 2, 3, 0, 7, 5, 0, 6, 2, 13, 2, 0, 0})
	// GC truncation inside a pin window — the schedtest counterexample
	// shape (TestSchedPinnedSnapshotVsGCTruncation): pin a snapshot over a
	// two-Var pair, then churn BOTH Vars past the sweep trigger (twice the
	// retention) so Var.build considers truncation while the pin is the
	// oldest active reader, read the pair through the pin mid-churn and
	// after, then unpin and verify the post-churn world.
	truncInWindow := []byte{0, 0, 1, 0, 1, 2, 3, 0, 0}
	for i := 0; i <= 2*fuzzRetention; i++ {
		truncInWindow = append(truncInWindow,
			0, 0, byte(30+i), 0, 1, byte(60+i), // write the pair
			4, 0, 0, 4, 1, 0) // pinned reads inside the window
	}
	truncInWindow = append(truncInWindow, 2, 0, 0, 5, 0, 0, 2, 0, 0)
	f.Add(truncInWindow)
	// Heterogeneous write sets: a pinned snapshot, then mixed-record
	// transactions narrow (sorted write set) and wide (30 int Vars plus
	// all 32 typed ones: promotion and the commit-time re-sort), repeated
	// until the typed chains cross the sweep trigger inside the pin
	// window, with readbacks through the pin and after it.
	hetero := []byte{8, 0, 5, 3, 0, 0}
	for i := 0; i <= 2*fuzzRetention; i++ {
		hetero = append(hetero, 8, byte(i), byte(40+i), 8, 1, 29, 4, byte(i), 0)
	}
	hetero = append(hetero, 2, 0, 0, 5, 0, 0, 8, 3, 32, 2, 0, 0)
	f.Add(hetero)

	f.Fuzz(func(t *testing.T, ops []byte) {
		mvstm.SetRetention(fuzzRetention)
		defer mvstm.SetRetention(mvstm.DefaultRetention)
		vars := make([]*mvstm.Var[int], fuzzVars)
		for i := range vars {
			vars[i] = mvstm.NewVar(0)
		}
		recs := make([]mixed, fuzzHot)
		for i := range recs {
			recs[i] = newMixed()
		}
		var model [fuzzVars]int
		var recModel [fuzzHot]int64
		// readback checks every Var and record in one snapshot transaction.
		readback := func(what string) {
			var got [fuzzVars]int
			var gotRec [fuzzHot]int64
			if err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) (err error) {
				for j := range vars {
					got[j] = vars[j].Get(tx)
				}
				for j := range recs {
					if gotRec[j], err = recs[j].get(tx); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != model || gotRec != recModel {
				t.Fatalf("%s %v %v, model %v %v", what, got, gotRec, model, recModel)
			}
		}
		var pin *pinnedSnap
		defer func() {
			if pin != nil {
				pin.close()
			}
		}()
		for i := 0; i+2 < len(ops); i += 3 {
			kind, k, val := ops[i]%9, int(ops[i+1])%fuzzHot, int(ops[i+2])
			switch kind {
			case 0: // write
				if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
					vars[k].Set(tx, val)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				model[k] = val
			case 1: // read-modify-write
				if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
					vars[k].Set(tx, vars[k].Get(tx)+val)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				model[k] += val
			case 2: // snapshot readback of every Var
				readback("snapshot readback")
			case 3: // open the pinned snapshot (no-op if already open)
				if pin == nil {
					pin = openPinnedSnap(vars, recs, &model, &recModel)
				}
			case 4: // read through the pinned snapshot: pre-pin model state
				if pin != nil {
					if got := pin.read(k); got != pin.model[k] {
						t.Fatalf("pinned read var %d = %d, want the pin-time value %d", k, got, pin.model[k])
					}
					if got := pin.read(-k - 1); got != int(pin.recModel[k]) {
						t.Fatalf("pinned read record %d = %d, want the pin-time value %d", k, got, pin.recModel[k])
					}
				}
			case 5: // close the pinned snapshot
				if pin != nil {
					pin.close()
					pin = nil
				}
			case 6: // batched writes in ONE transaction, spread across the
				// full keyspace: count can exceed writeSetMapThreshold (24),
				// promoting the write set to its map index mid-commit.
				count := val%33 + 1
				if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
					for j := 0; j < count; j++ {
						vars[(k+j)%fuzzVars].Set(tx, val+j)
						// Update transactions read their own snapshot too.
						_ = vars[(k+j)%fuzzVars].Get(tx)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < count; j++ {
					model[(k+j)%fuzzVars] = val + j
				}
			case 7: // non-transactional Load: the newest committed value
				if got := vars[k].Load(); got != model[k] {
					t.Fatalf("Load(var %d) = %d, model %d", k, got, model[k])
				}
			case 8: // mixed records and int Vars in ONE transaction: up to
				// 33 ints plus four typed Vars for each of up to 8 records.
				count := val%33 + 1
				if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
					for j := 0; j < count; j++ {
						vars[(k+j)%fuzzVars].Set(tx, val+j)
						r := recs[(k+j)%fuzzHot]
						r.set(tx, int64(val+j))
						if n, err := r.get(tx); err != nil || n != int64(val+j) {
							t.Fatalf("read-own-write of record %d: n=%d (err %v), want %d", (k+j)%fuzzHot, n, err, val+j)
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < count; j++ {
					model[(k+j)%fuzzVars] = val + j
					recModel[(k+j)%fuzzHot] = int64(val + j)
				}
			}
		}
		if pin != nil {
			// The pinned snapshot must have survived everything since it
			// opened, GC truncation included.
			for j := 0; j < fuzzVars; j++ {
				if got := pin.read(j); got != pin.model[j] {
					t.Fatalf("final pinned read var %d = %d, want %d", j, got, pin.model[j])
				}
			}
			for j := 0; j < fuzzHot; j++ {
				if got := pin.read(-j - 1); got != int(pin.recModel[j]) {
					t.Fatalf("final pinned read record %d = %d, want %d", j, got, pin.recModel[j])
				}
			}
			pin.close()
			pin = nil
		}
		readback("final readback")
	})
}
