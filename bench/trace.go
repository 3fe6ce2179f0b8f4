package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share its id:
// the same generated request is replayed once per entry depth, and the
// span recorded at each depth is the child of the one recorded a depth
// above ("loadgen" caused the outermost).
type span struct {
	id         int32 // i*clients + c: the i-th operation of client c
	start, end int64 // ns since the trace began
}

// phase is one traced pass of every client over its stream at one depth.
type phase struct {
	layer      string
	spans      [][]span // per client, in issue order
	gen        time.Duration
	verify     time.Duration
	ops        int64
	failed     int64
	reasons    map[string]int64
	from, to   mark
	before, at engineCounters // at the same boundaries
}

// tracePhase runs every client's issuer with a span around each timed
// call. With n == nil the clients run until deadline and the phase
// reports how many operations each completed; otherwise client c replays
// exactly n[c] operations, so that every depth sees the same requests.
func tracePhase(layer string, issuers []issuer, mask int, n []int, length time.Duration, origin time.Time) (*phase, []int) {
	p := &phase{layer: layer, spans: make([][]span, len(issuers))}
	done := make([]int, len(issuers))
	logs := make([]*clientLog, len(issuers))
	gen, verify := make([]time.Duration, len(issuers)), make([]time.Duration, len(issuers))
	for c := range issuers {
		size := 1 << 17
		if n != nil {
			size = n[c]/(mask+1) + 1
		}
		p.spans[c] = make([]span, 0, size)
		logs[c] = &clientLog{}
	}
	p.before, p.from = readCounters(), takeMark()
	deadline := p.from.at.Add(length)
	var wg sync.WaitGroup
	for c, is := range issuers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for ; n == nil || i < n[c]; i++ {
				timed := i&mask == 0
				var t0, t1, t2 time.Time
				if timed {
					t0 = time.Now()
				}
				is.prepare(i)
				if timed {
					t1 = time.Now()
				}
				err := is.call()
				if timed {
					t2 = time.Now()
				}
				if reason := outcome(is, err); reason != "" {
					logs[c].fail(reason)
				}
				if !timed {
					continue
				}
				t3 := time.Now()
				p.spans[c] = append(p.spans[c], span{
					id:    int32(i*len(issuers) + c),
					start: int64(t1.Sub(origin)), end: int64(t2.Sub(origin)),
				})
				gen[c] += t1.Sub(t0)
				verify[c] += t3.Sub(t2)
				if n == nil && t3.After(deadline) {
					i++
					break
				}
			}
			done[c] = i
		}()
	}
	wg.Wait()
	p.to, p.at = takeMark(), readCounters()
	for c := range issuers {
		p.ops += int64(done[c])
		p.gen += gen[c]
		p.verify += verify[c]
	}
	p.failed, p.reasons = failures(logs)
	return p, done
}

// run is the stretch the phase took.
func (p *phase) run() stretch { return stretch{&p.from, &p.to} }

// timed counts the spans a phase recorded.
func (p *phase) timed() (n int) {
	for _, s := range p.spans {
		n += len(s)
	}
	return n
}

// durations returns every span's length in ns.
func (p *phase) durations() []int64 {
	out := make([]int64, 0, p.timed())
	for _, spans := range p.spans {
		for _, s := range spans {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes returns each depth's mean self time in ns: a layer's span
// minus the next-deeper span of the same request id, averaged over the
// requests; the deepest layer keeps its whole span. depths[d][c] are the
// spans client c recorded entering at depth d, and every depth must have
// replayed the same ids.
func selfTimes(depths [][][]span) ([]float64, error) {
	self := make([]float64, len(depths))
	for d := range depths {
		var sum, n int64
		for c, spans := range depths[d] {
			for k, s := range spans {
				sum += s.end - s.start
				if d+1 < len(depths) {
					if k >= len(depths[d+1][c]) || depths[d+1][c][k].id != s.id {
						return nil, fmt.Errorf("depth %d did not replay request %d of depth %d", d+1, s.id, d)
					}
					child := depths[d+1][c][k]
					sum -= child.end - child.start
				}
				n++
			}
		}
		if n > 0 {
			self[d] = float64(sum) / float64(n)
		}
	}
	return self, nil
}

// traceFileSpans caps how many requests per layer trace.json holds; the
// metrics are computed from all of them.
const traceFileSpans = 2000

type spanJSON struct {
	ID      int32  `json:"id"`
	Layer   string `json:"layer"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeTrace writes the first traceFileSpans requests of every phase to
// out/trace.json under the working directory, as a one-element array:
// a run of every workload concatenates its children's arrays.
func writeTrace(workload string, seed int64, phases []*phase) (string, error) {
	type trace struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Spans    []spanJSON `json:"spans"`
	}
	doc := trace{Workload: workload, Seed: seed}
	parent := "loadgen"
	for _, p := range phases {
		for _, spans := range p.spans {
			for _, s := range spans[:min(len(spans), traceFileSpans/len(p.spans))] {
				doc.Spans = append(doc.Spans, spanJSON{s.id, p.layer, parent, s.start, s.end})
			}
		}
		parent = p.layer
	}
	data, err := json.Marshal([]trace{doc})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return "", err
	}
	return tracePath, os.WriteFile(tracePath, append(data, '\n'), 0o644)
}
