package main

import (
	"slices"
	"sort"
	"syscall"
	"time"

	"pcpda/internal/sim"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's contract: BENCHMARK.json repeats them (the smoke test checks
// that the two agree), and every later performance claim names one of
// them together with a workload.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them from a run with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"p50_us", "us"},
	{"p95_us", "us"},
	{"cpu_us_per_txn", "us"},
	{"ontime_ratio", "ratio"},
	{"commit_ratio", "ratio"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. A workload that bypasses a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"wire.encode_ns_per_frame", "ns"},
		{"wire.decode_ns_per_frame", "ns"},
		{"wire.allocs_per_frame", "count"},
		{"wire.frames_per_txn", "count"},
		{"wire.bytes_per_txn", "B"},

		{"client.submit_us_p50", "us"},
		{"client.await_us_p50", "us"},
		{"client.p99_us", "us"},
		{"client.p999_us", "us"},
		{"client.retries_per_ktxn", "count"},
		{"client.ro_rtt_p50_us", "us"},
		{"client.upd_rtt_p50_us", "us"},

		{"server.ping_rtt_p50_us", "us"},
		{"server.flush_batch_mean", "count"},
		{"server.flushes_per_txn", "count"},
		{"server.admit_wait_ewma_us", "us"},
		{"server.stolen_per_ktxn", "count"},
		{"server.shed_per_ktxn", "count"},
		{"server.rejected_per_ktxn", "count"},
		{"server.inflight_hwm", "count"},
		{"server.drain_ms", "ms"},

		{"rtm.begin_ns", "ns"},
		{"rtm.read_ns", "ns"},
		{"rtm.write_ns", "ns"},
		{"rtm.commit_ns", "ns"},
		{"rtm.txn_us_serial", "us"},
		{"rtm.beginbatch_ns_per_txn", "ns"},
		{"rtm.ro_txn_ns", "ns"},
		{"rtm.lock_waits_per_ktxn", "count"},
		{"rtm.commit_waits_per_ktxn", "count"},
		{"rtm.cycle_aborts_per_ktxn", "count"},
		{"rtm.clock_ticks_per_txn", "count"},
		{"rtm.audit_us_per_txn", "us"},
		{"rtm.p99_us", "us"},

		{"lock.ops_per_txn", "count"},
		{"lock.acquire_release_ns", "ns"},

		{"db.read_at_ns", "ns"},
		{"db.install_versioned_ns", "ns"},
		{"db.chain_len_mean", "count"},
		{"db.ro_evictions_per_ktxn", "count"},

		{"history.ops_per_txn", "count"},
		{"history.bytes_per_txn", "B"},
		{"history.check_us_per_txn", "us"},
	}
	for _, p := range sim.Protocols() {
		defs = append(defs, metricDef{"sim.ticks_per_s." + p, "1/s"})
	}
	return append(defs,
		metricDef{"sim.index_speedup", "ratio"},
		metricDef{"sim.batch_setup_us_per_cell", "us"},
		metricDef{"sim.allocs_per_ktick", "count"},
		metricDef{"sim.restarts_per_kjob", "count"},
		metricDef{"sim.blocked_ticks_per_kjob", "count"},

		metricDef{"workload.generate_us_per_set", "us"},
		metricDef{"txn.compute_ceilings_us", "us"},
		metricDef{"scenario.smoke_sim_s", "s"},

		metricDef{"go.allocs_per_txn", "count"},
		metricDef{"go.alloc_bytes_per_txn", "B"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},

		metricDef{"ledger.codec_share", "ratio"},
		metricDef{"ledger.transport_share", "ratio"},
		metricDef{"ledger.manager_share", "ratio"},
		metricDef{"ledger.unattributed_share", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"host.slowness", "ratio"},
	)
}

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult fills every metric of defs from vals; a metric the workload
// did not produce is reported as 0 (the layer was bypassed).
func newResult(defs []metricDef, vals map[string]float64) *result {
	r := &result{Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule; 0 for an empty sample.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quantile returns the q-quantile (0..1) of vals, interpolated between the
// two nearest ranks; 0 for an empty sample. vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// betterQuartile is the per-run value of a time-based metric: the
// quartile of the run's per-segment values on the better side (the upper
// quartile of throughput, the lower of a latency or cost). Interference
// on a shared host only ever slows a segment, in bursts of seconds, so the
// better quartile repeats from run to run where the median follows how
// much of the run the neighbours disturbed.
func betterQuartile(vals []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(vals, 0.75)
	}
	return quantile(vals, 0.25)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
