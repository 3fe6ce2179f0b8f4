package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, c := range []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{nil, 0.5, 0},
		{[]int64{7}, 0.95, 7},
		{[]int64{1, 2, 3, 4}, 0.5, 2},
		{[]int64{1, 2, 3, 4, 5}, 0.5, 3},
		{hundred, 0.5, 50},
		{hundred, 0.95, 95},
		{hundred, 0.99, 99},
		{hundred, 0.999, 100},
		{hundred, 1, 100},
		{hundred, 0, 1},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %v) = %d, want %d", len(c.sorted), c.p, got, c.want)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// Quartiles of 1..5 by halves: 1.5 and 4.5, over a median of 3.
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{2, 2, 2, 2, 2}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
}

// An interval metric is the median over the intervals of each interval's
// own value, so one stalled interval does not move it.
func TestMetricIsMedianOfIntervals(t *testing.T) {
	m := &measured{intervals: 3, logs: []*clientLog{{
		ops:    []int64{999, 100, 10, 100},
		lat:    []int64{9e6, 1000, 3000, 5e6, 5e6, 1000, 3000},
		latEnd: []int{1, 3, 5, 7},
	}}}
	base := time.Now()
	for e := 0; e <= 4; e++ {
		mk := mark{at: base.Add(time.Duration(e) * time.Second), cpu: time.Duration(e) * time.Second}
		mk.mem.Mallocs, mk.mem.TotalAlloc = uint64(200*e), uint64(5000*e)
		m.marks = append(m.marks, mk)
	}
	m.marks[3].mem.Mallocs += 1000 // a burst of allocation in the stalled interval
	m.marks[4].mem.Mallocs += 1000
	iv := m.intervalStats()
	if rate, p50, p95 := median(iv.rates), median(iv.p50s), median(iv.p95s); rate != 100 || p50 != 1 || p95 != 3 || iv.samples != 6 {
		t.Errorf("medians = %v ops/s, p50 %v us, p95 %v us, %d samples; want 100, 1, 3, 6", rate, p50, p95, iv.samples)
	}
	if cpu, allocs, bytes := median(iv.cpus), median(iv.allocs), median(iv.bytes); cpu != 1e4 || allocs != 2 || bytes != 50 {
		t.Errorf("medians = %v us, %v allocs, %v bytes per op; want 10000, 2, 50", cpu, allocs, bytes)
	}
	if got := m.attempted(); got != 1209 {
		t.Errorf("attempted = %d, want 1209 (warm-up included)", got)
	}
}

// Given time scales wall time by the share of the CPU time the process
// wanted that it got: with every CPU busy that divides the stolen share
// out, and with one thread busy it subtracts the stolen time.
func TestGivenTime(t *testing.T) {
	base := time.Now()
	from := mark{at: base, steal: time.Second, cpu: time.Minute}
	// 2 CPUs busy for 4 s with a quarter of the CPU time stolen.
	to := mark{at: base.Add(4 * time.Second), steal: from.steal + 2*time.Second, cpu: from.cpu + 6*time.Second}
	s := stretch{&from, &to}
	if got := s.given(); got != 3*time.Second {
		t.Errorf("given = %v, want 3s", got)
	}
	if got := s.perGivenSecond(300); math.Abs(got-100) > 1e-9 {
		t.Errorf("perGivenSecond = %v, want 100 (300 ops in 3 given seconds)", got)
	}
	// One thread busy for 4 s, 1 s of which was stolen from it.
	to.steal, to.cpu = from.steal+time.Second, from.cpu+3*time.Second
	if got := s.given(); got != 3*time.Second {
		t.Errorf("single-threaded given = %v, want 3s", got)
	}
	to.steal = from.steal
	if got := s.given(); got != 4*time.Second {
		t.Errorf("given with nothing stolen = %v, want 4s", got)
	}
	if got := (stretch{&from, &from}).given(); got != 0 {
		t.Errorf("given of an empty stretch = %v, want 0", got)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	// Two clients, three depths. Request ids are shared across depths.
	mk := func(id int32, start, dur int64) span { return span{id: id, start: start, end: start + dur} }
	depths := [][][]span{
		{{mk(0, 0, 100), mk(2, 200, 140)}, {mk(1, 0, 60)}},
		{{mk(0, 1000, 70), mk(2, 1100, 100)}, {mk(1, 1000, 30)}},
		{{mk(0, 2000, 10), mk(2, 2100, 20)}, {mk(1, 2000, 30)}},
	}
	self, err := selfTimes(depths)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{100. / 3, 140. / 3, 60. / 3} // (30+40+30)/3, (60+80+0)/3, (10+20+30)/3
	var sum float64
	for d := range want {
		if math.Abs(self[d]-want[d]) > 1e-9 {
			t.Errorf("self[%d] = %v, want %v", d, self[d], want[d])
		}
		sum += self[d]
	}
	if math.Abs(sum-100) > 1e-9 { // the mean outermost span: (100+140+60)/3
		t.Errorf("self times sum to %v, want the mean outermost span 100", sum)
	}
	depths[1][0][1].id = 4
	if _, err := selfTimes(depths); err == nil {
		t.Errorf("selfTimes accepted depths that replayed different requests")
	}
}
