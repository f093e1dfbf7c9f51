// Command pcpdad serves a PCP-DA transaction manager over TCP.
//
// It generates a seeded synthetic transaction set, builds a live
// rtm.Manager over it (optionally with fault injection), and runs the
// internal/server protocol on -listen. A side HTTP listener on -http
// exposes:
//
//	/healthz  liveness: 200 "ok", 200 "degraded" (serving but shedding),
//	          503 "draining"
//	/stats    JSON snapshot: server counters + the admission queue
//	          (depth, EWMA wait) + manager counters
//	          (history window and continuous-audit counters included)
//	/debug/flight  the manager's retained history window, oldest
//	          operation first ("B7 R7(2,v3) W7(2,v4) C7 ...")
//	/debug/pprof/  net/http/pprof
//
// SIGINT/SIGTERM trigger a graceful drain bounded by -drain-timeout. The
// exit code is the drain verdict: 0 means the manager shut down provably
// clean (invariants hold, zero live transactions, zero parked waiters);
// 1 means the drain audit failed; 2 means startup failed.
//
//	pcpdad -listen :9723 -http :9724 -n 8 -items 12 -seed 1
//	pcpdad -listen :9723 -fault-abort 0.01
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pcpda/internal/fault"
	"pcpda/internal/metrics"
	"pcpda/internal/rtm"
	"pcpda/internal/server"
	"pcpda/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen       = flag.String("listen", "127.0.0.1:9723", "transaction service listen address")
		httpAddr     = flag.String("http", "", "stats/health HTTP listen address (empty = disabled)")
		queueDepth   = flag.Int("queue", 64, "admission queue depth (full queue => overload rejection)")
		highWater    = flag.Int("high-water", 0, "queue occupancy at which priority shedding starts (0 = 3/4 of -queue)")
		admitting    = flag.Int("admitting", 4, "admission slots: max sessions inside the manager's Begin at once")
		inflight     = flag.Int("inflight", 0, "max requests in flight per session, a whole-transaction frame counting one (0 = default)")
		maxConns     = flag.Int("max-conns", 0, "max concurrent sessions; excess connections are refused at accept with a retryable busy error (0 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", 30*time.Second, "per-session read deadline")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "per-flush write deadline (slow-client kill threshold)")
		wdInterval   = flag.Duration("watchdog-interval", 100*time.Millisecond, "stuck-transaction watchdog sweep interval (negative = disabled)")
		wdGrace      = flag.Duration("watchdog-grace", time.Second, "how far past its deadline budget a transaction may live before force-abort")
		stuckAge     = flag.Duration("stuck-age", 0, "force-abort any transaction older than this, deadline or not (0 = disabled)")
		healthWindow = flag.Duration("health-window", 5*time.Second, "how long after the last overload event /healthz stays degraded")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight transactions on shutdown")

		n         = flag.Int("n", 8, "transaction templates in the generated set")
		items     = flag.Int("items", 12, "shared data items")
		util      = flag.Float64("util", 0.5, "target utilization of the generated set")
		writeProb = flag.Float64("write-prob", 0.5, "probability an operation is a write")
		seed      = flag.Int64("seed", 1, "workload generation seed")

		faultSeed   = flag.Int64("fault-seed", 42, "fault injector seed")
		faultDelay  = flag.Float64("fault-delay", 0, "probability of an injected scheduling delay")
		faultWakeup = flag.Float64("fault-wakeup", 0, "probability of an injected spurious wakeup")
		faultAbort  = flag.Float64("fault-abort", 0, "probability of an injected forced abort")
		faultCancel = flag.Float64("fault-cancel", 0, "probability of an injected forced cancel")
	)
	flag.Parse()

	set, err := workload.Generate(workload.Config{
		N: *n, Items: *items, Utilization: *util,
		PeriodMin: 40, PeriodMax: 400,
		OpsMin: 2, OpsMax: 4, WriteProb: *writeProb, Seed: *seed,
	})
	if err != nil {
		log.Printf("pcpdad: workload: %v", err)
		return 2
	}
	var opts rtm.Options
	if *faultDelay > 0 || *faultWakeup > 0 || *faultAbort > 0 || *faultCancel > 0 {
		opts.Injector = fault.NewSeeded(fault.Config{
			Seed: *faultSeed, PDelay: *faultDelay, PWakeup: *faultWakeup,
			PAbort: *faultAbort, PCancel: *faultCancel,
		})
	}
	mgr, err := rtm.NewWithOptions(set, opts)
	if err != nil {
		log.Printf("pcpdad: manager: %v", err)
		return 2
	}
	ctr := &metrics.ServerCounters{}
	srv, err := server.New(server.Config{
		Manager: mgr, Counters: ctr,
		QueueDepth: *queueDepth, HighWater: *highWater, MaxAdmitting: *admitting,
		SessionInflight: *inflight, MaxConns: *maxConns,
		IdleTimeout: *idleTimeout, WriteTimeout: *writeTimeout,
		WatchdogInterval: *wdInterval, WatchdogGrace: *wdGrace,
		StuckTxnAge: *stuckAge, HealthWindow: *healthWindow,
		Logf: log.Printf,
	})
	if err != nil {
		log.Printf("pcpdad: %v", err)
		return 2
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Printf("pcpdad: listen: %v", err)
		return 2
	}
	log.Printf("pcpdad: serving set %q (%d templates, %d items) on %s",
		set.Name, len(set.Templates), *items, ln.Addr())

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = statsServer(*httpAddr, srv, mgr, ctr)
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("pcpdad: %s: draining (grace %v)", sig, *drainTimeout)
	case err := <-serveDone:
		log.Printf("pcpdad: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := <-serveDone; err != nil && !errors.Is(err, net.ErrClosed) {
		log.Printf("pcpdad: serve exit: %v", err)
	}
	if httpSrv != nil {
		_ = httpSrv.Close()
	}
	snap := ctr.Snapshot()
	log.Printf("pcpdad: accepted=%d rejected_overload=%d rejected_infeasible=%d shed=%d auto_aborted=%d drain_aborted=%d",
		snap.Accepted, snap.RejectedOverload, snap.RejectedInfeasible, snap.Shed, snap.AutoAborted, snap.DrainAborted)
	log.Printf("pcpdad: watchdog_trips=%d watchdog_audit_fails=%d slow_client_kills=%d bytes_in=%d bytes_out=%d",
		snap.WatchdogTrips, snap.WatchdogAuditFails, snap.SlowClientKills, snap.BytesIn, snap.BytesOut)
	if drainErr != nil {
		log.Printf("pcpdad: drain audit FAILED: %v", drainErr)
		return 1
	}
	log.Printf("pcpdad: drain clean")
	return 0
}

// statsServer exposes /healthz, /stats, /debug/flight and /debug/pprof/ on
// addr.
func statsServer(addr string, srv *server.Server, mgr *rtm.Manager, ctr *metrics.ServerCounters) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		state := srv.Health()
		// "degraded" still serves traffic — it is a warning, not a failure —
		// so only "draining" turns the probe red.
		if state == "draining" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_, _ = fmt.Fprintln(w, state)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		doc := struct {
			Health    string                 `json:"health"`
			Server    metrics.ServerSnapshot `json:"server"`
			Admission server.ShardStat       `json:"admission"`
			Manager   rtm.Stats              `json:"manager"`
		}{srv.Health(), ctr.Snapshot(), srv.ShardStats()[0], mgr.Stats()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = fmt.Fprintln(w, mgr.History())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := s.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pcpdad: stats http: %v", err)
		}
	}()
	return s
}
