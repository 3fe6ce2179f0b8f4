package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/loghist"
)

// This file renders GET /metrics in the Prometheus text exposition
// format (version 0.0.4) with no client-library dependency: every series
// is already maintained by the engines' striped counters, the shared
// loghist histograms, and the contention sketch, so exposition is a
// read-and-format pass — no metric state lives here.

// promEscape escapes a label value per the exposition rules: backslash,
// double quote and newline; everything else passes through as raw UTF-8.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// promHeader writes one family's HELP and TYPE lines.
func promHeader(b *strings.Builder, name, help, kind string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// promHistSeries writes one label set's cumulative buckets, sum and
// count for an already-headed histogram family. The +Inf bucket and
// _count are both the accumulated bucket total, which keeps the
// exposition internally consistent even though loghist snapshots are
// per-bucket atomic rather than a cross-bucket cut.
func promHistSeries(b *strings.Builder, name, labels string, s loghist.Snapshot) {
	var cum uint64
	for i := 0; i < loghist.NBuckets-1; i++ {
		cum += s.Buckets[i]
		fmt.Fprintf(b, "%s_bucket{%s,le=\"%d\"} %d\n", name, labels, loghist.BucketMax(i), cum)
	}
	cum += s.Buckets[loghist.NBuckets-1]
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(b, "%s_sum{%s} %d\n", name, labels, s.Sum)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, cum)
}

// handleMetrics serves GET /metrics: engine counters and the
// abort-reason taxonomy, per-shard key gauges, hot-key contention gauges
// (when profiling is on), per-endpoint request histograms, and the
// engine's sampled commit-latency histograms (when sampling is on).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st, lens := s.router.Stats()
	var b strings.Builder
	engineLabel := fmt.Sprintf("engine=\"%s\"", promEscape(s.engine))

	counter := func(name, help string, v uint64) {
		promHeader(&b, name, help, "counter")
		fmt.Fprintf(&b, "%s{%s} %d\n", name, engineLabel, v)
	}
	counter("tm_commits_total", "Committed transactions, including read-only commits.", st.Commits)
	counter("tm_ro_commits_total", "Commits on the engine's read-only fast path.", st.ROCommits)
	counter("tm_aborts_total", "Failed transaction attempts.", st.Aborts)
	counter("tm_budget_aborts_total", "Transactions refused by the admission budget (subset of aborts).", st.BudgetAborts)
	counter("tm_extensions_total", "Successful read-timestamp extensions (stm engine).", st.Extensions)
	counter("tm_clock_increments_total", "Published global-clock increments (stm engine).", st.ClockIncrements)
	counter("tm_clock_adoptions_total", "GV4/GV6 commits that adopted the race winner's tick (stm engine).", st.ClockAdoptions)
	counter("tm_clock_block_claims_total", "GV7 clock-block claims on the allocator word.", st.ClockBlockClaims)
	counter("tm_rts_advances_total", "TicToc read-timestamp advances (stm engine).", st.RTSAdvances)

	promHeader(&b, "tm_aborts_by_reason_total", "Aborts classified at the site that killed the attempt.", "counter")
	reasons := make([]string, 0, len(st.AbortReasons))
	for k := range st.AbortReasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(&b, "tm_aborts_by_reason_total{%s,reason=\"%s\"} %d\n", engineLabel, promEscape(k), st.AbortReasons[k])
	}

	promHeader(&b, "tm_shard_keys", "Keys resident per shard.", "gauge")
	for i, n := range lens {
		fmt.Fprintf(&b, "tm_shard_keys{shard=\"%d\"} %d\n", i, n)
	}

	if s.sketch != nil {
		promHeader(&b, "tm_hot_key_aborts", "Sketch estimate of aborts attributed to the hottest contention units; overestimates by at most admitted/K.", "gauge")
		for _, e := range s.sketch.Top(16) {
			key := e.Label
			if key == "" {
				key = fmt.Sprintf("var-%d", e.ID)
			}
			fmt.Fprintf(&b, "tm_hot_key_aborts{%s,key=\"%s\"} %d\n", engineLabel, promEscape(key), e.Count)
		}
	}

	promHeader(&b, "tm_http_requests_total", "HTTP requests served, by endpoint.", "counter")
	for i, name := range s.metrics.names {
		fmt.Fprintf(&b, "tm_http_requests_total{endpoint=\"%s\"} %d\n", promEscape(name), s.metrics.hists[i].Count())
	}
	promHeader(&b, "tm_http_request_errors_total", "HTTP requests that returned a 4xx/5xx status, by endpoint.", "counter")
	for i, name := range s.metrics.names {
		fmt.Fprintf(&b, "tm_http_request_errors_total{endpoint=\"%s\"} %d\n", promEscape(name), s.metrics.hists[i].Errors())
	}
	promHeader(&b, "tm_http_request_duration_us", "HTTP request latency in microseconds, by endpoint.", "histogram")
	for i, name := range s.metrics.names {
		promHistSeries(&b, "tm_http_request_duration_us", fmt.Sprintf("endpoint=\"%s\"", promEscape(name)), s.metrics.hists[i].Snapshot())
	}

	lat, att := s.kit.LatencyHists()
	promHeader(&b, "tm_commit_latency_us", "Sampled wall-clock microseconds from first attempt to successful commit (see Config.LatencySample).", "histogram")
	promHistSeries(&b, "tm_commit_latency_us", engineLabel, lat.Snapshot())
	promHeader(&b, "tm_commit_attempts", "Sampled attempts burned per successful commit (1 = first try).", "histogram")
	promHistSeries(&b, "tm_commit_attempts", engineLabel, att.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
