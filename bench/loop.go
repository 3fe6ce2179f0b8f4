package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clientLog is what one closed-loop client records about its own run.
// Everything is preallocated or appended to client-local slices, so the
// clients share nothing but the epoch word.
type clientLog struct {
	ops     []int64 // operations completed per epoch
	lat     []int64 // sampled call latencies in ns, in completion order
	latEnd  []int   // len(lat) when each epoch ended
	failed  int64
	reasons map[string]int64
}

func (l *clientLog) fail(reason string) {
	l.failed++
	if l.reasons == nil {
		l.reasons = map[string]int64{}
	}
	l.reasons[reason]++
}

// timing is how long a run warms up and measures. Epoch 0 is the warm-up
// and epochs 1..intervals are measured.
type timing struct {
	warmup    time.Duration
	interval  time.Duration
	intervals int
}

// mark is a reading of every cumulative counter the metrics are
// differences of, taken at an epoch boundary.
type mark struct {
	at    time.Time
	cpu   time.Duration    // this process, user plus system
	steal time.Duration    // the host, summed over CPUs
	mem   runtime.MemStats // Mallocs, TotalAlloc, NumGC, PauseTotalNs, HeapSys
	gcCPU float64          // seconds
}

func takeMark() (m mark) {
	runtime.ReadMemStats(&m.mem)
	m.gcCPU = gcCPUSeconds()
	m.cpu, m.steal = processCPU(), hostSteal()
	m.at = time.Now()
	return m
}

// stretch is the run between two marks.
type stretch struct{ from, to *mark }

func (s stretch) wall() time.Duration { return s.to.at.Sub(s.from.at) }
func (s stretch) cpu() time.Duration  { return s.to.cpu - s.from.cpu }
func (s stretch) mallocs() float64    { return float64(s.to.mem.Mallocs - s.from.mem.Mallocs) }
func (s stretch) allocBytes() float64 { return float64(s.to.mem.TotalAlloc - s.from.mem.TotalAlloc) }

// stealShare is the share of the machine's CPU time the hypervisor gave
// to someone else while a virtual CPU of this machine wanted to run.
func (s stretch) stealShare() float64 {
	return float64(s.to.steal-s.from.steal) / (float64(runtime.NumCPU()) * float64(s.wall()))
}

// givenTime scales a stretch of wall time by the share of the CPU time
// this process wanted in it that it was given. On a shared host the
// hypervisor steals a tenth or more of the CPU time, in bursts, and
// whatever keeps a CPU busy (a closed loop, a preload) takes that much
// longer. Scaling the stolen part out leaves how long the same work takes
// on a quiet host, which repeats; wall time does not. The process is the
// only busy one in the machine, so all steal is its own: it wanted
// cpu+steal and got cpu.
func givenTime(wall, cpu, steal time.Duration) time.Duration {
	if cpu <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(cpu) / float64(cpu+steal))
}

func (s stretch) given() time.Duration {
	return givenTime(s.wall(), s.cpu(), s.to.steal-s.from.steal)
}

// perGivenSecond is the rate of n events over the stretch per second of
// given time.
func (s stretch) perGivenSecond(n int64) float64 { return float64(n) / s.given().Seconds() }

// measured is one untraced run of a workload's clients.
type measured struct {
	logs      []*clientLog
	marks     []mark // marks[e] was taken when epoch e began; one more than epochs
	intervals int
}

// sampleEvery is how many operations share one timed call on the lib_*
// workloads, whose transactions are shorter than two clock reads are cheap.
const sampleEvery = 64

// runClosedLoop drives one issuer per client through the warm-up and the
// measured intervals. mask selects the operations whose call is timed:
// 0 for all of them, sampleEvery-1 for one in sampleEvery.
func runClosedLoop(issuers []issuer, mask int, t timing) *measured {
	epochs := t.intervals + 1
	m := &measured{intervals: t.intervals, marks: make([]mark, epochs+1)}
	var epoch atomic.Int32
	var wg sync.WaitGroup
	for _, is := range issuers {
		log := &clientLog{ops: make([]int64, epochs), latEnd: make([]int, epochs), lat: make([]int64, 0, 1<<19)}
		m.logs = append(m.logs, log)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := int32(0)
			for i := 0; ; i++ {
				if e := epoch.Load(); e != cur {
					for ; cur < e; cur++ {
						log.latEnd[cur] = len(log.lat)
					}
					if int(e) == epochs {
						return
					}
				}
				is.prepare(i)
				var err error
				if i&mask == 0 {
					start := time.Now()
					err = is.call()
					log.lat = append(log.lat, int64(time.Since(start)))
				} else {
					err = is.call()
				}
				log.ops[cur]++
				if reason := outcome(is, err); reason != "" {
					log.fail(reason)
				}
			}
		}()
	}
	m.marks[0] = takeMark()
	for e := 1; e <= epochs; e++ {
		d := t.interval
		if e == 1 {
			d = t.warmup
		}
		time.Sleep(time.Until(m.marks[e-1].at.Add(d)))
		m.marks[e] = takeMark()
		epoch.Store(int32(e))
	}
	wg.Wait()
	return m
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the steal time /proc/stat reports for all CPUs together,
// in its 10 ms ticks; 0 where there is no such file or field.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// gcCPUSeconds is the CPU time the Go runtime has spent on garbage
// collection, as of the last completed cycle.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	return sample[0].Value.Float64()
}

// attempted and failed count every operation issued, warm-up included: a
// wrong answer is wrong whenever it is given.
func (m *measured) attempted() (n int64) {
	for _, l := range m.logs {
		for _, ops := range l.ops {
			n += ops
		}
	}
	return n
}

func (m *measured) failed() (n int64, reasons map[string]int64) { return failures(m.logs) }

// failures sums the clients' failed operations, by reason.
func failures(logs []*clientLog) (n int64, reasons map[string]int64) {
	reasons = map[string]int64{}
	for _, l := range logs {
		n += l.failed
		for r, c := range l.reasons {
			reasons[r] += c
		}
	}
	return n, reasons
}

func (m *measured) epochOps(e int) (n int64) {
	for _, l := range m.logs {
		n += l.ops[e]
	}
	return n
}

// epochLatencies returns the sorted latency samples of epoch e.
func (m *measured) epochLatencies(e int) []int64 {
	var all []int64
	for _, l := range m.logs {
		all = append(all, l.lat[l.latEnd[e-1]:l.latEnd[e]]...)
	}
	slices.Sort(all)
	return all
}

// interval returns the stretch of measured epoch e.
func (m *measured) interval(e int) stretch { return stretch{&m.marks[e], &m.marks[e+1]} }

// intervalStats are each measured interval's own values of the rate,
// latency and per-operation cost metrics; the metric is their median, so
// that a stalled interval or a burst of allocation does not move it.
type intervalStats struct {
	rates, steals       []float64 // 1/s of given CPU time; stolen share
	p50s, p95s          []float64 // us
	cpus, allocs, bytes []float64 // per operation: us, objects, bytes
	samples             int       // timed calls in all intervals
}

func (m *measured) intervalStats() (s intervalStats) {
	for e := 1; e <= m.intervals; e++ {
		lat, iv, ops := m.epochLatencies(e), m.interval(e), m.epochOps(e)
		s.samples += len(lat)
		s.rates = append(s.rates, iv.perGivenSecond(ops))
		s.steals = append(s.steals, iv.stealShare())
		s.p50s = append(s.p50s, float64(percentile(lat, 0.50))/1e3)
		s.p95s = append(s.p95s, float64(percentile(lat, 0.95))/1e3)
		s.cpus = append(s.cpus, us(iv.cpu())/float64(ops))
		s.allocs = append(s.allocs, iv.mallocs()/float64(ops))
		s.bytes = append(s.bytes, iv.allocBytes()/float64(ops))
	}
	return s
}
