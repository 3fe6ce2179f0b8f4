package server

// The strict-serializability oracle pointed at the serving tier, black
// box: concurrent HTTP clients issue batches, scans and gets, every
// request is recorded as one committed transaction — the interval from
// just before it was sent to just after its reply arrived, and the values
// it wrote and was shown — and internal/check searches for a serial order
// that respects those intervals and explains every returned value.

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/tm"
)

const (
	histKeys     = 4 // t-objects per round
	histClients  = 3
	histRequests = 5 // per client per round: 15 transactions, within the oracle's exhaustive reach
	histRounds   = 20
)

func TestHTTPHistoryStrictlySerializable(t *testing.T) {
	for _, engine := range []string{"stm", "mvstm"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", engine, shards), func(t *testing.T) {
				c := newTestClient(t, Config{Shards: shards, Engine: engine})
				for round := 0; round < histRounds && !t.Failed(); round++ {
					h := recordRound(c, round)
					if res := check.StrictlySerializable(h); !res.OK {
						t.Fatalf("round %d: no serial order explains what the clients saw:\n%s", round, h)
					}
				}
			})
		}
	}
}

// recordRound runs one round of concurrent clients on the round's own
// keys and returns what they observed as a history.
func recordRound(c *testClient, round int) *tm.History {
	key := func(obj int) string { return fmt.Sprintf("r%03d-k%d", round, obj) }
	scanPath := fmt.Sprintf("/scan?from=r%03d-&to=r%03d.", round, round) // '.' follows '-'
	objOf := func(k string) int { return int(k[len(k)-1] - '0') }
	value := func(s string) tm.Value { // a missing key reads as the initial 0
		n, _ := strconv.ParseUint(s, 10, 64)
		return n
	}
	var seq atomic.Int64
	recs := make([][]*tm.TxnRecord, histClients)
	var wg sync.WaitGroup
	for cl := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(round*histClients + cl)))
			for i := 0; i < histRequests; i++ {
				rec := &tm.TxnRecord{Proc: cl, Status: tm.TxnCommitted}
				read := func(obj int, v tm.Value) {
					rec.Ops = append(rec.Ops, tm.Op{Kind: tm.OpRead, Obj: obj, Value: v})
				}
				write := func(obj int, v tm.Value) {
					rec.Ops = append(rec.Ops, tm.Op{Kind: tm.OpWrite, Obj: obj, Value: v})
				}
				code := http.StatusOK
				switch x := rng.Float64(); {
				case x < 0.4:
					ops := make([]Op, 2+rng.Intn(2))
					for j := range ops {
						ops[j] = Op{Key: key(rng.Intn(histKeys))}
						switch rng.Intn(3) {
						case 0:
							ops[j].Kind = "get"
						case 1: // a value no other put writes
							ops[j].Kind, ops[j].Value = "put", strconv.Itoa((cl+1)*1000+10*i+j)
						case 2:
							ops[j].Kind, ops[j].Delta = "add", 1
						}
					}
					rec.StartSeq = int(seq.Add(1))
					var res []OpResult
					res, code = c.batch(ops)
					rec.EndSeq = int(seq.Add(1))
					for j, op := range ops[:len(res)] { // a refused batch carries no results
						switch v := value(res[j].Value); op.Kind {
						case "get":
							read(objOf(op.Key), v)
						case "put":
							write(objOf(op.Key), v)
						case "add":
							read(objOf(op.Key), v-1)
							write(objOf(op.Key), v)
						}
					}
				case x < 0.7:
					var scan struct {
						KVs []KV `json:"kvs"`
					}
					rec.StartSeq = int(seq.Add(1))
					code = c.do("GET", scanPath, nil, &scan)
					rec.EndSeq = int(seq.Add(1))
					seen := [histKeys]tm.Value{}
					for _, kv := range scan.KVs {
						seen[objOf(kv.Key)] = value(kv.Value)
					}
					for obj, v := range seen {
						read(obj, v)
					}
				default:
					obj := rng.Intn(histKeys)
					var got struct {
						Value string `json:"value"`
					}
					rec.StartSeq = int(seq.Add(1))
					code = c.do("GET", "/get?key="+key(obj), nil, &got)
					rec.EndSeq = int(seq.Add(1))
					read(obj, value(got.Value))
				}
				if code != http.StatusOK {
					c.t.Errorf("round %d client %d request %d: status %d", round, cl, i, code)
					return
				}
				recs[cl] = append(recs[cl], rec)
			}
		}()
	}
	wg.Wait()
	// Listed in reply order, which is close to a serial order, so the
	// oracle's depth-first search seldom has to back up.
	h := &tm.History{Txns: slices.Concat(recs...)}
	slices.SortFunc(h.Txns, func(a, b *tm.TxnRecord) int { return a.EndSeq - b.EndSeq })
	for id, rec := range h.Txns {
		rec.ID = id
	}
	return h
}
