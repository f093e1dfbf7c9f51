package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"pcpda/internal/metrics"
	"pcpda/internal/rtm"
)

// segStats is what one fixed-work segment reports. The unit of a
// "transaction" is the workload's: a wire transaction on svc-*, a manager
// transaction on mgr-contended, a simulated job on sim-sweep.
type segStats struct {
	attempted int64 // transactions offered
	committed int64 // transactions that committed
	ontime    int64 // commits within the workload's budget
	failed    int64 // operations that never succeeded (after the bounded retries)
	retries   int64 // resubmissions after a typed retryable refusal
	lat       []int64
}

func (s *segStats) add(o segStats) {
	s.attempted += o.attempted
	s.committed += o.committed
	s.ontime += o.ontime
	s.failed += o.failed
	s.retries += o.retries
}

// counters are the program's own monotone counters, read outside the
// timed windows; the benchmark only ever uses differences of them.
type counters struct {
	mgr rtm.Stats
	srv metrics.ServerSnapshot
}

// layerMetrics collects per-layer metric values by name.
type layerMetrics map[string]float64

// traced is what the traced segments hand to a workload's probes.
type traced struct {
	root     string // repository root (for the scenario probe)
	spans    []span // all workers' spans of the traced segments
	kinds    [numSpanKinds]kindStat
	spanCost int64    // calibrated cost of one begin/end pair, ns
	lat      []int64  // sorted latency samples of the traced segments, ns
	tot      segStats // totals over the traced segments
	before   counters
	after    counters
	cpuPerTx float64 // process CPU per committed transaction over the traced segments, µs
}

// bench is one workload: a fixture built at default configuration plus
// the benchmark's own load loop over it.
type bench interface {
	// setup builds everything the segments need from seed.
	setup(seed int64) error
	// segment runs one fixed-work segment; with trace set the load loop
	// records spans into the workload's tracers.
	segment(trace bool) (segStats, error)
	// slices is how many segments make one audit window. The service
	// workloads time a tenth of a window at a time: interference on a
	// shared host comes in bursts of seconds, and a short segment is more
	// often wholly inside or wholly outside one.
	slices() int
	// window closes an audit window between two segments, outside the
	// timed part: memory stays bounded, the history-append tax stays in.
	window()
	counters() counters
	// tracers returns the per-worker tracers the traced segments filled.
	tracers() []*tracer
	// probes measures, one layer at a time, the layers this workload
	// loads, while the fixture is still live.
	probes(lm layerMetrics, tr *traced) error
	// verify runs the workload's correctness checks over the counted
	// segments and the final history window, then shuts the fixture down.
	// Shutdown-time layer metrics (audit, drain) go to lm.
	verify(before, after counters, tot segStats, lm layerMetrics) error
	// close releases whatever is still held; idempotent.
	close()
}

// workloadDef names a workload and says why it exists (BENCHMARK.json
// repeats both).
type workloadDef struct {
	name string
	why  string
	new  func(scale int) bench
}

var workloads = []workloadDef{
	{"svc-sat-update", "closed loop at saturation, 2 pipelined connections x 8 update bursts in flight: every service layer under load, read path idle",
		func(scale int) bench { return newSvc(svcSaturate, scale) }},
	{"svc-lat-cycle", "one connection, strictly sequential read-only snapshot then update: bare handoff latency with nothing to batch, read path is half the work",
		func(scale int) bench { return newSvc(svcCycle, scale) }},
	{"mgr-contended", "in-process manager, 8 workers on a 4-item pool, no wire: manager mutex, lock table, ceiling index, wakeups and history do all the work",
		func(scale int) bench { return newMgr(scale) }},
	{"sim-sweep", "simulator kernel, 40 generated sets x nine protocols with firm deadlines: exact commit/miss/restart counts, live stack idle",
		func(scale int) bench { return newSweep(scale) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setups is how often a run sets up (warm-up window included); setup_s is
// the median, which a single 20-40 ms set-up could not report steadily.
const setups = 3

// warmSetup is the whole set-up: fixture, then one full-size warm-up
// window (discarded) so the history backing array and every pool are
// grown before the first timed segment.
func warmSetup(b bench, seed int64) error {
	if err := b.setup(seed); err != nil {
		return err
	}
	for i := 0; i < b.slices(); i++ {
		if _, err := b.segment(false); err != nil {
			return err
		}
	}
	b.window()
	return nil
}

// segTimes is the per-segment series the time-based metrics, and the share
// of transactions on time, are quartiles of.
type segTimes struct {
	tput, p50, p95, cpu, ontime []float64
	samples                     int
}

// timeSegment runs one segment and folds its time-based values into ts.
func timeSegment(b bench, trace bool, ts *segTimes) (segStats, error) {
	cpu0, t0 := cpuTime(), time.Now()
	st, err := b.segment(trace)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return st, err
	}
	if st.committed == 0 {
		return st, fmt.Errorf("segment committed nothing")
	}
	slices.Sort(st.lat)
	ts.tput = append(ts.tput, float64(st.committed)/wall.Seconds())
	ts.p50 = append(ts.p50, float64(percentile(st.lat, 0.50))/1e3)
	ts.p95 = append(ts.p95, float64(percentile(st.lat, 0.95))/1e3)
	ts.cpu = append(ts.cpu, float64(cpu.Microseconds())/float64(st.committed))
	ts.ontime = append(ts.ontime, float64(st.ontime)/float64(st.attempted))
	ts.samples += len(st.lat)
	return st, nil
}

// runEndToEnd is one run with tracing off: set up (several times), then
// fixed-work timed segments until seconds of timed work have passed. Every
// time it reports is divided by the host's slowness during the run, so it
// reads as it would on the reference host (see calibrate.go); the raw
// values are printed beside them.
func runEndToEnd(def workloadDef, seed int64, seconds float64, scale int, log io.Writer) (*result, error) {
	var host []float64
	var b bench
	var setupS []float64
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		b = def.new(scale)
		if err := warmSetup(b, seed); err != nil {
			b.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		host = append(host, hostSlowness())
		if k < setups-1 {
			b.close()
			runtime.GC() // the discarded fixture must not count against the next one's peak
		}
	}
	defer b.close()

	var ts segTimes
	var tot segStats
	var windowRSS []float64 // resident set at the end of each audit window, where the window's memory peaks
	before := b.counters()
	for timed := 0.0; timed < seconds; {
		if n := len(ts.tput); n > 0 && n%b.slices() == 0 {
			rss, err := statusMB("VmRSS:")
			if err != nil {
				return nil, err
			}
			windowRSS = append(windowRSS, rss)
			b.window()
		}
		t0 := time.Now()
		st, err := timeSegment(b, false, &ts)
		if err != nil {
			return nil, err
		}
		tot.add(st)
		timed += time.Since(t0).Seconds()
		host = append(host, hostSlowness())
	}
	// Memory is read before the audit: the audit's own graph is a
	// diagnostic's cost, and its garbage would swamp what the workload holds.
	// The metric is the median of the windows' peaks, not the run's single
	// highest (VmHWM): that one is set by where the collector's cycles
	// happen to fall and moved by a tenth between runs of the same seed. It
	// is still what the guardrail holds against the limit.
	hwm, err := statusMB("VmHWM:")
	if err != nil {
		return nil, err
	}
	if len(windowRSS) == 0 { // a run shorter than one window
		windowRSS = append(windowRSS, hwm)
	}
	rss := median(windowRSS)
	verr := b.verify(before, b.counters(), tot, nil)
	if verr == nil && hwm > maxRSSMB && scale == 1 { // a smoke run shares its process (and, under -race, its shadow memory) with others
		verr = fmt.Errorf("peak memory %.0f MB exceeds the %d MB guardrail", hwm, maxRSSMB)
	}
	if verr != nil {
		fmt.Fprintf(log, "CHECK FAILED: %v\n", verr)
	}

	slow := median(host)
	raw := map[string]float64{
		"setup_s":        median(setupS),
		"txn_per_s":      betterQuartile(ts.tput, true),
		"p50_us":         betterQuartile(ts.p50, false),
		"p95_us":         betterQuartile(ts.p95, false),
		"cpu_us_per_txn": betterQuartile(ts.cpu, false),
	}
	vals := map[string]float64{
		"setup_s":        raw["setup_s"] / slow,
		"txn_per_s":      raw["txn_per_s"] * slow,
		"p50_us":         raw["p50_us"] / slow,
		"p95_us":         raw["p95_us"] / slow,
		"cpu_us_per_txn": raw["cpu_us_per_txn"] / slow,
		"ontime_ratio":   betterQuartile(ts.ontime, true),
		"commit_ratio":   float64(tot.committed) / float64(tot.attempted),
		"rss_peak_mb":    rss,
	}
	res := newResult(endToEnd, vals)
	res.Correct = verr == nil
	res.Attempted, res.Failed = tot.attempted, tot.failed
	fmt.Fprintf(log, "%s: %d timed segments, %d latency samples, %d retries, resident set peaked at %.1f MB (VmHWM)\n",
		def.name, len(ts.tput), ts.samples, tot.retries, hwm)
	fmt.Fprintf(log, "host slowness %.3f (median of %d readings); as timed on this host: setup_s %.4f, txn_per_s %.1f, p50_us %.2f, p95_us %.2f, cpu_us_per_txn %.3f; on time over the whole run %.5f\n",
		slow, len(host), raw["setup_s"], raw["txn_per_s"], raw["p50_us"], raw["p95_us"], raw["cpu_us_per_txn"],
		float64(tot.ontime)/float64(tot.attempted))
	return res, nil
}

// tracedPattern is the traced run's order of audit windows: the three
// traced windows are contiguous so one counter delta covers them, and an
// untraced window on either side gives the tracing overhead.
var tracedPattern = []bool{false, true, true, true, false}

// runTraced is the separate traced run: spans around every call into a
// layer during three segments, then the workload's single-layer probes.
func runTraced(def workloadDef, seed int64, scale int, root string, log io.Writer) (*result, error) {
	b := def.new(scale)
	defer b.close()
	if err := warmSetup(b, seed); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var on, off segTimes
	tr := &traced{root: root, spanCost: spanCost()}
	var host []float64
	var m0, m1 runtime.MemStats
	for i, trace := range tracedPattern {
		if i > 0 {
			b.window()
		}
		switch {
		case trace && tr.tot.attempted == 0: // the traced block starts
			tr.before = b.counters()
			runtime.ReadMemStats(&m0)
		case !trace && tr.tot.attempted > 0: // the traced block just ended
			runtime.ReadMemStats(&m1)
			tr.after = b.counters()
		}
		ts := &off
		if trace {
			ts = &on
		}
		for k := 0; k < b.slices(); k++ {
			st, err := timeSegment(b, trace, ts)
			if err != nil {
				return nil, err
			}
			if trace {
				tr.tot.add(st)
				tr.lat = append(tr.lat, st.lat...)
			}
		}
		host = append(host, hostSlowness())
	}
	slices.Sort(tr.lat)
	tr.spans = mergeSpans(b.tracers())
	tr.kinds = kindStats(tr.spans)
	tr.cpuPerTx = betterQuartile(on.cpu, false)

	lm := layerMetrics{}
	txns := float64(tr.tot.committed)
	lm["go.allocs_per_txn"] = float64(m1.Mallocs-m0.Mallocs) / txns
	lm["go.alloc_bytes_per_txn"] = float64(m1.TotalAlloc-m0.TotalAlloc) / txns
	lm["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	lm["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	lm["trace.overhead_ratio"] = median(on.tput) / median(off.tput)
	lm["host.slowness"] = median(host) // the per-layer values are as timed; this says on how slow a host
	if err := commonProbes(lm, tr); err != nil {
		return nil, err
	}
	if err := b.probes(lm, tr); err != nil {
		return nil, err
	}
	verr := b.verify(tr.before, tr.after, tr.tot, lm)
	if verr != nil {
		fmt.Fprintf(log, "CHECK FAILED: %v\n", verr)
	}
	path, err := writeTrace(root, def.name, tr.spans, tr.kinds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: %d spans in memory, head written to %s\n", def.name, len(tr.spans), path)
	fmt.Fprintf(log, "%-16s %10s %12s %12s\n", "span", "count", "p50_us", "self_ms")
	for k, st := range tr.kinds {
		if st.count > 0 {
			fmt.Fprintf(log, "%-16s %10d %12.2f %12.1f\n", spanNames[k], st.count, float64(st.p50)/1e3, float64(st.self)/1e6)
		}
	}
	res := newResult(perLayer, lm)
	res.Correct = verr == nil
	res.Attempted, res.Failed = tr.tot.attempted, tr.tot.failed
	return res, nil
}

// maxRSSMB is the host guardrail: no full-size workload may peak above it.
const maxRSSMB = 512

// statusMB returns a memory field of /proc/self/status in MB: "VmRSS:" is
// the resident set now, "VmHWM:" its peak since the process started.
func statusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("%s %w", field, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}
