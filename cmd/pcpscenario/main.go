// Command pcpscenario runs a declarative scenario spec (internal/scenario)
// against one or both backends and emits the shared per-phase SLO report.
//
// The sim backend compiles each phase into one-shot instances for the
// simulator kernel and sweeps every requested protocol over the seed
// sweep; the live backend drives a pcpdad service through the pipelined
// open-loop client. With -backend live (or both) and no -addr, the driver
// self-hosts an in-process server over the spec's own base workload, so
// one invocation compares nine simulated protocols against the real
// service under the same trace.
//
//	pcpscenario -f scenarios/hotspot-shift.json
//	pcpscenario -f scenarios/overload-ramp.json -backend both -o report.json
//	pcpscenario -f scenarios/read-surge.json -backend live -addr 127.0.0.1:9723
//
// Exit code 0 on success, 1 when a backend fails, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pcpda/internal/rtm"
	"pcpda/internal/scenario"
	"pcpda/internal/server"
	"pcpda/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		specPath  = flag.String("f", "", "scenario spec file (JSON, see scenarios/)")
		backend   = flag.String("backend", "sim", "backend to run: sim | live | both")
		addr      = flag.String("addr", "", "live pcpdad address (empty with a live backend = self-host in-process)")
		protoCSV  = flag.String("protocols", "", "comma-separated sim protocol override (empty = spec, then all)")
		seed      = flag.Int64("seed", 0, "override the spec seed (0 = keep)")
		seeds     = flag.Int("seeds", 0, "override the sim sweep width (0 = keep)")
		outPath   = flag.String("o", "", "write the combined JSON report document here")
		quiet     = flag.Bool("q", false, "suppress the human-readable tables")
		skipCheck = flag.Bool("skip-schema-check", false, "drive a live server whose schema does not match the spec workload")
	)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "pcpscenario: -f <spec.json> is required")
		flag.Usage()
		return 2
	}
	runSim, runLive := false, false
	switch *backend {
	case "sim":
		runSim = true
	case "live":
		runLive = true
	case "both":
		runSim, runLive = true, true
	default:
		fmt.Fprintf(os.Stderr, "pcpscenario: unknown backend %q (want sim | live | both)\n", *backend)
		return 2
	}

	spec, err := scenario.Load(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcpscenario: %v\n", err)
		return 2
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *seeds > 0 {
		spec.Seeds = *seeds
	}
	var protocols []string
	if *protoCSV != "" {
		known := make(map[string]bool)
		for _, p := range sim.Protocols() {
			known[p] = true
		}
		for _, p := range strings.Split(*protoCSV, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if !known[p] {
				fmt.Fprintf(os.Stderr, "pcpscenario: unknown protocol %q (have %v)\n", p, sim.Protocols())
				return 2
			}
			protocols = append(protocols, p)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	doc := &scenario.Document{Scenario: spec.Name}
	if runSim {
		rep, err := scenario.RunSim(spec, scenario.SimOptions{Protocols: protocols})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcpscenario: sim: %v\n", err)
			return 1
		}
		doc.Reports = append(doc.Reports, rep)
		if !*quiet {
			rep.Render(os.Stdout)
		}
	}
	if runLive {
		target := *addr
		var host *selfHost
		if target == "" {
			host, err = startSelfHost(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pcpscenario: self-host: %v\n", err)
				return 1
			}
			target = host.addr
			if !*quiet {
				fmt.Printf("pcpscenario: self-hosting %q on %s\n", spec.Name, target)
			}
		}
		rep, err := scenario.RunLive(ctx, spec, scenario.LiveOptions{Addr: target, SkipSchemaCheck: *skipCheck})
		if host != nil {
			host.stop()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcpscenario: live: %v\n", err)
			return 1
		}
		doc.Reports = append(doc.Reports, rep)
		if !*quiet {
			rep.Render(os.Stdout)
		}
	}

	if *outPath != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcpscenario: encode: %v\n", err)
			return 1
		}
		out = append(out, '\n')
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pcpscenario: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Printf("pcpscenario: wrote %s\n", *outPath)
		}
	}
	return 0
}

// selfHost is an in-process pcpdad equivalent serving the spec's own base
// workload — the live backend's default target, so sim-vs-live runs never
// depend on an externally started daemon.
type selfHost struct {
	addr string
	stop func()
}

func startSelfHost(spec *scenario.Spec) (*selfHost, error) {
	set, err := spec.BaseSet()
	if err != nil {
		return nil, err
	}
	mgr, err := rtm.New(set)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Manager: mgr, Logf: log.Printf})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	h := &selfHost{addr: ln.Addr().String()}
	h.stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("pcpscenario: self-host drain: %v", err)
		}
		if err := <-serveDone; err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("pcpscenario: self-host serve: %v", err)
		}
	}
	return h, nil
}
