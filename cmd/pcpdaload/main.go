// Command pcpdaload drives a pcpdad server with a seeded workload and
// reports throughput, goodput and latency percentiles.
//
// Three modes:
//
//   - Closed loop (default): -conns workers each run one transaction at
//     a time until -txns have committed. Measures capacity.
//   - Open loop (-arrival-rate > 0): transactions arrive by a Poisson
//     process for -duration regardless of completion rate — the only
//     mode that can push the server past saturation. -deadline-budget
//     attaches a firm deadline to every BEGIN; commits later than it
//     count as deadline misses, not goodput.
//   - Sweep (-sweep "1,2,4"): measure the closed-loop saturation rate,
//     then run one open-loop step per multiplier of it and emit a JSON
//     sweep document (goodput, deadline-miss ratio, shed counts per
//     step) to -report. This is the BENCH_6/BENCH_7 overload artifact.
//     Sweep mode calibrates both client modes so the document always
//     records the pipelining speedup.
//
// -pipeline switches the driver to the pipelined client: each
// transaction is one TXN frame and one reply, demultiplexed by tag, with
// up to -window requests in flight per connection.
//
// -read-frac f (requires -pipeline) runs that fraction of transactions as
// declared read-only snapshot transactions: BEGIN(read-only) bypasses
// admission server-side and the reads execute lock-free against the
// version chains. With -stats (pcpdad's HTTP base URL) a 100%-read proof
// phase runs after the main load and asserts the manager's logical clock,
// lock-table ops and update counters did not move while the RO counters
// advanced. Sweep mode calibrates a third "mixed" saturation and embeds
// the proof in the document — the BENCH_8 read-path artifact.
//
// -nemesis interposes an in-process fault-injection proxy
// (internal/nemesis) between the driver and -addr, so the workload
// traverses seeded latency, resets, drops and one-way partitions.
//
// The default output is a human-readable summary. -bench additionally
// prints a `go test -bench`-style line, so a load run feeds the same
// BENCH_<n>.json pipeline as the in-process benchmarks:
//
//	pcpdaload -addr 127.0.0.1:9723 -conns 64 -txns 10000 -bench | benchjson -label net
//
// -report writes the full JSON report to a file ("-" = stdout). The exit
// code is 0 when the run reached its committed-transaction target (closed
// loop) or committed anything at all (open loop / sweep), 1 otherwise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/nemesis"
	"pcpda/internal/rtm"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:9723", "pcpdad address")
		conns    = flag.Int("conns", 64, "concurrent connections")
		txns     = flag.Int("txns", 10000, "closed-loop committed-transaction target")
		seed     = flag.Int64("seed", 7, "workload seed")
		timeout  = flag.Duration("timeout", 2*time.Minute, "whole-run deadline")
		opTO     = flag.Duration("op-timeout", 10*time.Second, "per-operation deadline")
		report   = flag.String("report", "", "write JSON report to this file (\"-\" = stdout)")
		bench    = flag.Bool("bench", false, "print a benchjson-compatible benchmark line")
		attempts = flag.Int("attempts", 16, "max attempts per transaction")
		label    = flag.String("label", "current", "label recorded in the sweep document")

		pipeline  = flag.Bool("pipeline", false, "use the pipelined client (a whole transaction per frame, several in flight)")
		readFrac  = flag.Float64("read-frac", 0, "fraction of transactions issued as declared read-only snapshot transactions (requires -pipeline)")
		statsURL  = flag.String("stats", "", "pcpdad stats HTTP base URL (e.g. http://127.0.0.1:9724); with -read-frac > 0, brackets a 100%-read proof phase asserting zero lock/mutex traffic")
		window    = flag.Int("window", 0, "pipelined: max tagged requests in flight per connection (0 = default)")
		spinUnder = flag.Duration("spin-under", 0, "open loop: spin instead of sleeping for the last stretch of each inter-arrival gap (0 = default; on coarse-timer hosts the default 10ms keeps offered rate honest)")

		arrivalRate = flag.Float64("arrival-rate", 0, "open loop: Poisson arrivals per second (0 = closed loop)")
		duration    = flag.Duration("duration", 5*time.Second, "open loop: arrival window per run")
		deadline    = flag.Duration("deadline-budget", 0, "open loop: firm deadline per transaction, from arrival (0 = none)")
		maxInFlight = flag.Int("max-inflight", 0, "open loop: arrivals in flight before client-side drop (0 = 4x conns)")
		sweep       = flag.String("sweep", "", "comma-separated saturation multipliers, e.g. \"1,2,3,4\" (implies open loop per step)")

		nemOn    = flag.Bool("nemesis", false, "route traffic through an in-process fault-injection proxy")
		nemSeed  = flag.Int64("nemesis-seed", 99, "nemesis fault seed")
		nemLat   = flag.Duration("nemesis-latency", 0, "nemesis added latency per chunk (beware: sleep granularity on coarse-timer hosts can multiply this)")
		nemJit   = flag.Duration("nemesis-jitter", 0, "nemesis latency jitter")
		nemReset = flag.Float64("nemesis-reset", 0.05, "per-connection mid-stream RST probability")
		nemDrop  = flag.Float64("nemesis-drop", 0.05, "per-connection silent-close probability")
		nemPart  = flag.Float64("nemesis-partition", 0.03, "per-connection one-way-partition probability")
		nemSlow  = flag.Int64("nemesis-slow-bps", 0, "nemesis slow-reader cap on the server->client direction, bytes/s (0 = off)")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		cancel()
	}()

	// With -nemesis the driver talks to the proxy and the proxy talks to
	// the real server; everything else is unchanged.
	target := *addr
	var proxy *nemesis.Proxy
	if *nemOn {
		p, err := nemesis.New(nemesis.Config{
			Listen: "127.0.0.1:0", Target: *addr, Seed: *nemSeed,
			Faults: nemesis.Faults{
				Latency: *nemLat, Jitter: *nemJit,
				PReset: *nemReset, PDrop: *nemDrop, PPartition: *nemPart,
				SlowReadBPS: *nemSlow,
			},
		})
		if err != nil {
			log.Printf("pcpdaload: nemesis: %v", err)
			return 1
		}
		proxy = p
		defer func() { _ = proxy.Close() }()
		target = proxy.Addr().String()
		log.Printf("pcpdaload: nemesis proxy %s -> %s (seed %d)", target, *addr, *nemSeed)
	}

	base := client.LoadConfig{
		Addr: target, Conns: *conns, Txns: *txns, Seed: *seed,
		OpTimeout: *opTO, MaxAttempts: *attempts,
		ArrivalRate: *arrivalRate, Duration: *duration,
		DeadlineBudget: *deadline, MaxInFlight: *maxInFlight,
		Pipelined: *pipeline, Window: *window, SpinUnder: *spinUnder,
		ReadFrac: *readFrac,
	}

	if *sweep != "" {
		// The sweep calibrates and runs its baseline steps over the direct
		// path; with -nemesis each multiplier is additionally run through
		// the proxy so the document carries both curves.
		base.Addr = *addr
		return runSweep(ctx, base, *sweep, *label, *report, proxy, *statsURL)
	}

	rep, err := client.RunLoad(ctx, base)
	if err != nil {
		log.Printf("pcpdaload: %v", err)
		if rep == nil {
			return 1
		}
	}
	printReport(rep, base)
	if proxy != nil {
		logProxy(proxy)
	}
	if *bench && rep.Committed > 0 {
		mode := "strict"
		if *pipeline {
			mode = "pipelined"
		}
		nsPerOp := float64(rep.Elapsed.Nanoseconds()) / float64(rep.Committed)
		fmt.Printf("BenchmarkPcpdaLoad/conns=%d/%s %d %.1f ns/op %.1f txn/s %d p50-ns %d p99-ns %d retries\n",
			*conns, mode, rep.Committed, nsPerOp, rep.Throughput(),
			rep.P50.Nanoseconds(), rep.P99.Nanoseconds(), rep.Retries)
	}
	if *report != "" {
		if err := writeJSON(*report, rep); err != nil {
			log.Printf("pcpdaload: report: %v", err)
			return 1
		}
	}
	if *statsURL != "" && *readFrac > 0 {
		proof, err := runROProof(ctx, base, *statsURL)
		if err != nil {
			log.Printf("pcpdaload: ro-proof: %v", err)
			return 1
		}
		logROProof(proof)
		if !proof.Passed {
			return 1
		}
	}
	if base.ArrivalRate > 0 {
		if rep.Committed == 0 {
			return 1
		}
		return 0
	}
	if int(rep.Committed) < *txns {
		return 1
	}
	return 0
}

func printReport(rep *client.LoadReport, cfg client.LoadConfig) {
	fmt.Printf("pcpdaload: %d committed (%d attempts, %d retries, %d suppressed, %d failed) in %v\n",
		rep.Committed, rep.Attempts, rep.Retries, rep.RetriesSuppressed, rep.Failed,
		rep.Elapsed.Round(time.Millisecond))
	if rep.ROCommitted > 0 {
		fmt.Printf("pcpdaload: read mix: %d read-only committed, %d updates\n",
			rep.ROCommitted, rep.Committed-rep.ROCommitted)
	}
	fmt.Printf("pcpdaload: %.0f txn/s  p50=%v p90=%v p99=%v max=%v\n",
		rep.Throughput(), rep.P50, rep.P90, rep.P99, rep.Max)
	if cfg.ArrivalRate > 0 {
		fmt.Printf("pcpdaload: offered=%d overrun=%d on_time=%d goodput=%.0f txn/s shed=%d infeasible=%d\n",
			rep.Offered, rep.Overrun, rep.OnTime, rep.Goodput(), rep.Shed, rep.Infeasible)
		// Achieved-vs-offered exposes pacing error: on coarse-timer hosts a
		// sleeping arrival loop silently under-offers, which makes every
		// downstream ratio in the report a lie.
		fmt.Printf("pcpdaload: arrival rate offered=%.0f/s achieved=%.0f/s\n",
			rep.OfferedRate, rep.AchievedRate)
		// Whole-run achieved-vs-offered hides a collapse confined to one
		// stretch of the window; the slices localize it.
		for _, ps := range rep.Pacing {
			fmt.Printf("pcpdaload:   pace [%4.1fs,%4.1fs) offered=%.0f/s achieved=%.0f/s max_lag=%.1fms\n",
				ps.StartS, ps.EndS, ps.OfferedRate, ps.AchievedRate, ps.MaxLagMS)
		}
		for _, tr := range rep.Tiers {
			fmt.Printf("pcpdaload:   tier pri=%d offered=%d committed=%d on_time=%d shed=%d miss=%.3f\n",
				tr.Priority, tr.Offered, tr.Committed, tr.OnTime, tr.Shed, tr.MissRatio)
		}
	}
}

func logProxy(p *nemesis.Proxy) {
	st := p.Stats()
	log.Printf("pcpdaload: nemesis: conns=%d resets=%d drops=%d partitions=%d discarded=%d",
		st.Conns, st.Resets, st.Drops, st.Partitions, st.Discarded)
}

// sweepStep is one offered-load step of the overload sweep.
type sweepStep struct {
	Multiplier   float64 `json:"multiplier"`
	ArrivalRate  float64 `json:"arrival_rate"`
	AchievedRate float64 `json:"achieved_rate"` // what the pacer actually delivered
	Nemesis      bool    `json:"nemesis"`       // step ran through the fault proxy
	Pipelined    bool    `json:"pipelined"`     // step used the pipelined client
	ReadFrac     float64 `json:"read_frac,omitempty"` // fraction of arrivals run as read-only snapshots

	Offered     int64 `json:"offered"`
	Overrun     int64 `json:"overrun"`
	Committed   int64 `json:"committed"`
	ROCommitted int64 `json:"ro_committed,omitempty"`
	OnTime      int64 `json:"on_time"`
	Shed        int64 `json:"shed"`
	Infeasible  int64 `json:"infeasible"`
	Failed      int64 `json:"failed"`
	Retries     int64 `json:"retries"`
	Suppressed  int64 `json:"retries_suppressed"`

	ThroughputTPS float64 `json:"throughput_txn_s"`
	GoodputTPS    float64 `json:"goodput_txn_s"`
	MissRatio     float64 `json:"deadline_miss_ratio"`
	TopTierMiss   float64 `json:"top_tier_miss_ratio"`

	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	Tiers []client.TierReport `json:"tiers"`
	// Pacing carries the per-slice achieved-vs-offered arrival rates, so a
	// sweep row shows where in the window the pacer collapsed — the
	// whole-run AchievedRate averages such a collapse away.
	Pacing []client.PaceSlice `json:"pacing,omitempty"`
}

// sweepDoc is the BENCH_6 artifact: goodput and deadline misses as a
// function of offered load, in multiples of the measured saturation
// rate. PeakGoodput is taken over the baseline (fault-free) steps — the
// graceful-degradation criterion is judged on that curve; nemesis steps
// document how far the plateau survives injected network faults.
type sweepDoc struct {
	Label        string         `json:"label"`
	Date         string         `json:"date"`
	Go           string         `json:"go"`
	Nemesis      bool           `json:"nemesis"`
	NemesisStats *nemesis.Stats `json:"nemesis_stats,omitempty"`
	Conns        int            `json:"conns"`
	DeadlineMs   float64        `json:"deadline_budget_ms"`
	// SaturationTPS is the strict (one request/response in flight) closed-
	// loop rate; PipelinedSaturationTPS is the same burst with whole
	// transactions sent one frame each, several in flight. Speedup is their
	// ratio — the headline number for the pipelined protocol.
	SaturationTPS          float64 `json:"saturation_txn_s"`
	PipelinedSaturationTPS float64 `json:"pipelined_saturation_txn_s"`
	Speedup                float64 `json:"pipelined_speedup"`
	Pipelined              bool    `json:"pipelined"` // open-loop steps used the pipelined client
	// ReadFrac > 0 adds a third calibrated mode: the pipelined client with
	// that fraction of transactions run as declared read-only snapshots.
	// MixedSaturationTPS against PipelinedSaturationTPS is the headline
	// read-path number (same build, same connection count, only the mix
	// differs); ROSpeedup is their ratio.
	ReadFrac           float64     `json:"read_frac,omitempty"`
	MixedSaturationTPS float64     `json:"mixed_saturation_txn_s,omitempty"`
	ROSpeedup          float64     `json:"ro_speedup,omitempty"`
	ROProof            *roProofDoc `json:"ro_proof,omitempty"`
	PeakGoodput        float64     `json:"peak_goodput_txn_s"`
	Steps              []sweepStep `json:"steps"`
}

// runSweep measures closed-loop saturation, then runs one open-loop step
// per multiplier and writes the sweep document.
func runSweep(ctx context.Context, base client.LoadConfig, spec, label, out string,
	proxy *nemesis.Proxy, statsURL string) int {
	mults, err := parseMults(spec)
	if err != nil {
		log.Printf("pcpdaload: -sweep: %v", err)
		return 1
	}
	if base.DeadlineBudget <= 0 {
		log.Printf("pcpdaload: -sweep requires -deadline-budget (goodput needs a deadline)")
		return 1
	}
	if base.ReadFrac > 0 && !base.Pipelined {
		log.Printf("pcpdaload: -read-frac requires -pipeline")
		return 1
	}

	// Calibration: closed-loop bursts over the direct path measure what
	// the system can absorb. Both client modes are calibrated every time
	// so the document always carries the pipelining speedup; the open-loop
	// multipliers then step off the rate of the mode the steps will use.
	// Strict and pipelined calibrations are always write-only so the
	// write-path numbers stay comparable across builds; -read-frac adds a
	// third calibrated mode, pipelined with the requested read mix.
	type runMode struct {
		name      string
		pipelined bool
		readFrac  float64
		sat       float64
	}
	calibrate := func(mode *runMode) bool {
		cal := base
		cal.ArrivalRate = 0
		cal.Pipelined = mode.pipelined
		cal.ReadFrac = mode.readFrac
		log.Printf("pcpdaload: sweep: calibrating %s saturation (%d conns, %d txns)", mode.name, cal.Conns, cal.Txns)
		calRep, err := client.RunLoad(ctx, cal)
		if err != nil || calRep.Committed == 0 {
			log.Printf("pcpdaload: sweep %s calibration failed: %v", mode.name, err)
			return false
		}
		mode.sat = calRep.Throughput()
		log.Printf("pcpdaload: sweep: %s saturation = %.0f txn/s", mode.name, mode.sat)
		return true
	}
	strict := &runMode{name: "strict"}
	pipe := &runMode{name: "pipelined", pipelined: true}
	if !calibrate(strict) || !calibrate(pipe) {
		return 1
	}
	// With -pipeline the sweep runs every multiplier in each client mode
	// (paired rows, distinguished by the step's pipelined/read_frac
	// fields), each stepping off its own mode's saturation so a 2x step
	// means 2x of what that client can absorb.
	modes := []*runMode{strict}
	var mixed *runMode
	if base.Pipelined {
		modes = append(modes, pipe)
		if base.ReadFrac > 0 {
			mixed = &runMode{name: fmt.Sprintf("mixed(%.0f%% read)", base.ReadFrac*100),
				pipelined: true, readFrac: base.ReadFrac}
			if !calibrate(mixed) {
				return 1
			}
			modes = append(modes, mixed)
		}
	}

	doc := &sweepDoc{
		Label: label, Date: time.Now().UTC().Format(time.RFC3339),
		Go: runtime.Version(), Nemesis: proxy != nil,
		Conns:                  base.Conns,
		DeadlineMs:             float64(base.DeadlineBudget) / float64(time.Millisecond),
		SaturationTPS:          strict.sat,
		PipelinedSaturationTPS: pipe.sat,
		Speedup:                pipe.sat / strict.sat,
		Pipelined:              base.Pipelined,
	}
	if mixed != nil {
		doc.ReadFrac = base.ReadFrac
		doc.MixedSaturationTPS = mixed.sat
		doc.ROSpeedup = mixed.sat / pipe.sat
	}
	for _, m := range mults {
		variants := []bool{false}
		if proxy != nil {
			variants = append(variants, true)
		}
		for _, mode := range modes {
			for _, faulted := range variants {
				step := base
				step.Pipelined = mode.pipelined
				step.ReadFrac = mode.readFrac
				step.ArrivalRate = mode.sat * m
				step.RetryBudget = nil // fresh budget per step
				tag := ""
				if mode.pipelined {
					tag = " [" + mode.name + "]"
				}
				if faulted {
					step.Addr = proxy.Addr().String()
					tag += " [nemesis]"
				}
				log.Printf("pcpdaload: sweep: step %.2fx%s -> %.0f arrivals/s for %v",
					m, tag, step.ArrivalRate, step.Duration)
				rep, err := client.RunLoad(ctx, step)
				if err != nil {
					log.Printf("pcpdaload: sweep step %.2fx%s: %v", m, tag, err)
					return 1
				}
				st := sweepStep{
					Multiplier: m, ArrivalRate: step.ArrivalRate,
					AchievedRate: rep.AchievedRate,
					Nemesis:      faulted, Pipelined: step.Pipelined,
					ReadFrac:     step.ReadFrac,
					Offered:      rep.Offered, Overrun: rep.Overrun,
					Committed: rep.Committed, ROCommitted: rep.ROCommitted,
					OnTime: rep.OnTime,
					Shed:   rep.Shed, Infeasible: rep.Infeasible, Failed: rep.Failed,
					Retries: rep.Retries, Suppressed: rep.RetriesSuppressed,
					ThroughputTPS: rep.Throughput(), GoodputTPS: rep.Goodput(),
					P50Ms: ms(rep.P50), P99Ms: ms(rep.P99), MaxMs: ms(rep.Max),
					Tiers: rep.Tiers, Pacing: rep.Pacing,
				}
				if rep.Offered > 0 {
					st.MissRatio = 1 - float64(rep.OnTime)/float64(rep.Offered)
				}
				if len(rep.Tiers) > 0 {
					st.TopTierMiss = rep.Tiers[0].MissRatio
				}
				doc.Steps = append(doc.Steps, st)
				if !faulted && st.GoodputTPS > doc.PeakGoodput {
					doc.PeakGoodput = st.GoodputTPS
				}
				log.Printf("pcpdaload: sweep: %.2fx%s offered=%d goodput=%.0f txn/s miss=%.3f top-tier-miss=%.3f shed=%d",
					m, tag, st.Offered, st.GoodputTPS, st.MissRatio, st.TopTierMiss, st.Shed)
			}
		}
	}
	if statsURL != "" && base.ReadFrac > 0 {
		proof, err := runROProof(ctx, base, statsURL)
		if err != nil {
			log.Printf("pcpdaload: ro-proof: %v", err)
			return 1
		}
		logROProof(proof)
		doc.ROProof = proof
		if !proof.Passed {
			return 1
		}
	}
	if proxy != nil {
		st := proxy.Stats()
		doc.NemesisStats = &st
		logProxy(proxy)
	}
	if out == "" {
		out = "-"
	}
	if err := writeJSON(out, doc); err != nil {
		log.Printf("pcpdaload: report: %v", err)
		return 1
	}
	for _, st := range doc.Steps {
		if st.Committed == 0 {
			log.Printf("pcpdaload: sweep step %.2fx committed nothing", st.Multiplier)
			return 1
		}
	}
	return 0
}

// roProofDoc is the zero-traffic witness for the read-only path: a
// closed-loop phase of 100% declared read-only transactions, bracketed by
// two /stats fetches. The update-path deltas (logical clock, lock-table
// mutations, update begins/commits, lock waits) must all be exactly zero
// while the RO counters advanced by at least the committed count — the
// manager ticks its clock under its mutex on every update-path operation,
// so a zero clock delta is a zero-mutex-acquisition proof, and a zero
// lock-table ops delta is a zero-lock-traffic proof.
type roProofDoc struct {
	Txns              int64 `json:"txns"` // read-only commits observed by the client
	ROBeginsDelta     int64 `json:"ro_begins_delta"`
	ROReadsDelta      int64 `json:"ro_reads_delta"`
	ROCommitsDelta    int64 `json:"ro_commits_delta"`
	ClockDelta        int64 `json:"clock_delta"`          // manager-mutex-held operations: must be 0
	LockTableOpsDelta int64 `json:"lock_table_ops_delta"` // lock acquire/release mutations: must be 0
	BeginsDelta       int64 `json:"begins_delta"`         // update-path begins: must be 0
	CommitsDelta      int64 `json:"commits_delta"`        // update-path commits: must be 0
	LockWaitsDelta    int64 `json:"lock_waits_delta"`     // blocking episodes: must be 0
	Passed            bool  `json:"passed"`
}

// statsDoc mirrors the slice of pcpdad's /stats document the proof needs.
type statsDoc struct {
	Manager rtm.Stats `json:"manager"`
}

func fetchStats(ctx context.Context, baseURL string) (*statsDoc, error) {
	url := strings.TrimSuffix(baseURL, "/") + "/stats"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return &doc, nil
}

// runROProof runs the 100%-read closed-loop phase between two /stats
// fetches. The server must otherwise be idle (the caller runs it after
// its load phases have fully drained).
func runROProof(ctx context.Context, base client.LoadConfig, statsURL string) (*roProofDoc, error) {
	before, err := fetchStats(ctx, statsURL)
	if err != nil {
		return nil, err
	}
	cfg := base
	cfg.ArrivalRate = 0
	cfg.Pipelined = true
	cfg.ReadFrac = 1
	cfg.RetryBudget = nil
	if cfg.Txns > 5000 {
		cfg.Txns = 5000 // a short burst is proof enough
	}
	log.Printf("pcpdaload: ro-proof: %d read-only transactions, bracketed by %s/stats", cfg.Txns, statsURL)
	rep, err := client.RunLoad(ctx, cfg)
	if err != nil {
		return nil, err
	}
	after, err := fetchStats(ctx, statsURL)
	if err != nil {
		return nil, err
	}
	b, a := before.Manager, after.Manager
	p := &roProofDoc{
		Txns:              rep.ROCommitted,
		ROBeginsDelta:     a.ROBegins - b.ROBegins,
		ROReadsDelta:      a.ROReads - b.ROReads,
		ROCommitsDelta:    a.ROCommits - b.ROCommits,
		ClockDelta:        a.Clock - b.Clock,
		LockTableOpsDelta: a.LockTableOps - b.LockTableOps,
		BeginsDelta:       int64(a.Begins - b.Begins),
		CommitsDelta:      int64(a.Commits - b.Commits),
		LockWaitsDelta:    int64(a.LockWaits - b.LockWaits),
	}
	p.Passed = p.Txns > 0 &&
		p.ROCommitsDelta >= p.Txns &&
		p.ClockDelta == 0 && p.LockTableOpsDelta == 0 &&
		p.BeginsDelta == 0 && p.CommitsDelta == 0 && p.LockWaitsDelta == 0
	return p, nil
}

func logROProof(p *roProofDoc) {
	verdict := "PASSED"
	if !p.Passed {
		verdict = "FAILED"
	}
	log.Printf("pcpdaload: ro-proof %s: %d ro commits (server deltas: ro_begins=%d ro_reads=%d ro_commits=%d)",
		verdict, p.Txns, p.ROBeginsDelta, p.ROReadsDelta, p.ROCommitsDelta)
	log.Printf("pcpdaload: ro-proof deltas (all must be 0): clock=%d lock_table_ops=%d begins=%d commits=%d lock_waits=%d",
		p.ClockDelta, p.LockTableOpsDelta, p.BeginsDelta, p.CommitsDelta, p.LockWaitsDelta)
}

func parseMults(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("bad multiplier %q", part)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty multiplier list")
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
