// Command pcpdaload drives a pcpdad server with a seeded workload and
// reports throughput, goodput and latency percentiles: flags into a
// client.LoadConfig, one client.RunLoad, the report out.
//
// Two sources of work:
//
//   - Closed loop (default): -conns workers claim transactions until
//     -txns have committed. Measures capacity.
//   - Open loop (-arrival-rate > 0): transactions arrive by a Poisson
//     process for -duration regardless of completion rate — the only
//     mode that can push the server past saturation. -deadline-budget
//     attaches a firm deadline to every transaction; commits later than
//     it count as deadline misses, not goodput.
//
// By default a transaction is a conversation: a frame and a round trip per
// step. -pipeline sends each one whole — one TXN frame and one reply, up to
// -window requests in flight per connection, which in the closed loop is
// how many transactions each worker keeps in flight.
//
// -read-frac f (requires -pipeline) runs that fraction of transactions as
// declared read-only snapshot transactions: they bypass admission
// server-side and execute lock-free against the version chains.
//
// -nemesis interposes an in-process fault-injection proxy
// (internal/nemesis) between the driver and -addr, so the workload
// traverses seeded latency, resets, drops and one-way partitions.
//
// The default output is a human-readable summary; -report writes the
// client.LoadReport as JSON to a file ("-" = stdout). The exit code is 0
// when the run reached its committed-transaction target (closed loop) or
// committed anything at all (open loop), 1 otherwise. For measurements to
// cite, use the repository benchmark (benchmark/README.md), not this.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/nemesis"
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
		attempts = flag.Int("attempts", 16, "max attempts per transaction")

		pipeline = flag.Bool("pipeline", false, "send each transaction whole (one TXN frame, several in flight) instead of a frame per step")
		readFrac = flag.Float64("read-frac", 0, "fraction of transactions issued as declared read-only snapshot transactions (requires -pipeline)")
		window   = flag.Int("window", 0, "max requests in flight per connection (0 = default)")

		arrivalRate = flag.Float64("arrival-rate", 0, "open loop: Poisson arrivals per second (0 = closed loop)")
		duration    = flag.Duration("duration", 5*time.Second, "open loop: arrival window")
		deadline    = flag.Duration("deadline-budget", 0, "firm deadline per transaction, from arrival (0 = none)")
		maxInFlight = flag.Int("max-inflight", 0, "open loop: arrivals waiting for a worker before client-side drop (0 = 4x conns)")

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

	cfg := client.LoadConfig{
		Addr: *addr, Conns: *conns, Txns: *txns, Seed: *seed,
		OpTimeout: *opTO, MaxAttempts: *attempts,
		ArrivalRate: *arrivalRate, Duration: *duration,
		DeadlineBudget: *deadline, MaxInFlight: *maxInFlight,
		Pipelined: *pipeline, Window: *window, ReadFrac: *readFrac,
	}
	// With -nemesis the driver talks to the proxy and the proxy talks to
	// the real server; everything else is unchanged.
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
		cfg.Addr = proxy.Addr().String()
		log.Printf("pcpdaload: nemesis proxy %s -> %s (seed %d)", cfg.Addr, *addr, *nemSeed)
	}

	rep, err := client.RunLoad(ctx, cfg)
	if err != nil {
		log.Printf("pcpdaload: %v", err)
		if rep == nil {
			return 1
		}
	}
	printReport(rep, cfg.ArrivalRate > 0)
	if proxy != nil {
		st := proxy.Stats()
		log.Printf("pcpdaload: nemesis: conns=%d resets=%d drops=%d partitions=%d discarded=%d",
			st.Conns, st.Resets, st.Drops, st.Partitions, st.Discarded)
	}
	if *report != "" {
		if err := writeJSON(*report, rep); err != nil {
			log.Printf("pcpdaload: report: %v", err)
			return 1
		}
	}
	if cfg.ArrivalRate > 0 {
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

func printReport(rep *client.LoadReport, openLoop bool) {
	fmt.Printf("pcpdaload: %d committed (%d attempts, %d retries, %d suppressed, %d failed) in %v\n",
		rep.Committed, rep.Attempts, rep.Retries, rep.RetriesSuppressed, rep.Failed,
		rep.Elapsed.Round(time.Millisecond))
	if rep.ROCommitted > 0 {
		fmt.Printf("pcpdaload: read mix: %d read-only committed, %d updates\n",
			rep.ROCommitted, rep.Committed-rep.ROCommitted)
	}
	fmt.Printf("pcpdaload: %.0f txn/s  p50=%v p90=%v p99=%v max=%v\n",
		rep.Throughput(), rep.P50, rep.P90, rep.P99, rep.Max)
	if !openLoop {
		return
	}
	fmt.Printf("pcpdaload: offered=%d overrun=%d on_time=%d goodput=%.0f txn/s shed=%d infeasible=%d\n",
		rep.Offered, rep.Overrun, rep.OnTime, rep.Goodput(), rep.Shed, rep.Infeasible)
	// Achieved-vs-offered exposes pacing error: on coarse-timer hosts a
	// sleeping arrival loop silently under-offers, which makes every
	// downstream ratio in the report a lie.
	fmt.Printf("pcpdaload: arrival rate offered=%.0f/s achieved=%.0f/s\n",
		rep.OfferedRate, rep.AchievedRate)
	// Whole-run achieved-vs-offered hides a collapse confined to one
	// stretch of the window; the buckets localize it.
	for _, b := range rep.Buckets {
		w := b.EndS - b.StartS
		fmt.Printf("pcpdaload:   bucket [%4.1fs,%4.1fs) offered=%.0f/s achieved=%.0f/s max_lag=%.1fms committed=%d on_time=%d\n",
			b.StartS, b.EndS, float64(b.Scheduled)/w, float64(b.Emitted)/w, b.MaxLagMS, b.Committed, b.OnTime)
	}
	for _, tr := range rep.Tiers {
		fmt.Printf("pcpdaload:   tier pri=%d offered=%d committed=%d on_time=%d shed=%d miss=%.3f\n",
			tr.Priority, tr.Offered, tr.Committed, tr.OnTime, tr.Shed, tr.MissRatio)
	}
}

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
