package scenario

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/rtm"
	"pcpda/internal/server"
	"pcpda/internal/wire"
)

const liveSpecJSON = `{
  "name": "live-unit",
  "seed": 9,
  "workload": { "n": 6, "items": 10 },
  "live": { "conns": 4, "window": 16 },
  "phases": [
    {
      "name": "steady",
      "duration_s": 1,
      "arrival": { "kind": "poisson", "rate": 30 },
      "access": { "kind": "zipf", "theta": 0.8 },
      "deadline_ms": 200
    },
    {
      "name": "mixed",
      "duration_s": 1,
      "arrival": { "kind": "periodic", "rate": 20 },
      "access": { "kind": "mixshift" },
      "deadline_ms": 200,
      "read_frac": 0.2,
      "read_frac_end": 0.6
    }
  ]
}`

// startServer self-hosts an in-process service over the spec's base
// workload, exactly as cmd/pcpscenario does.
func startServer(t *testing.T, spec *Spec) string {
	t.Helper()
	set, err := spec.BaseSet()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := rtm.New(set)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		<-done
	})
	return ln.Addr().String()
}

func TestRunLiveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live server for ~2s of wall time")
	}
	spec, err := Parse([]byte(liveSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, spec)
	rep, err := RunLive(context.Background(), spec, LiveOptions{Addr: addr})
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if rep.Backend != "live" {
		t.Fatalf("backend %q, want live", rep.Backend)
	}
	if len(rep.Rows) != len(spec.Phases) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(spec.Phases))
	}
	for i := range rep.Rows {
		row := &rep.Rows[i]
		if row.Protocol != "live" {
			t.Fatalf("row %s protocol %q", row.Phase, row.Protocol)
		}
		if row.Offered == 0 {
			t.Fatalf("row %s offered 0 arrivals", row.Phase)
		}
		if row.Committed == 0 {
			t.Fatalf("row %s committed nothing", row.Phase)
		}
		if row.AchievedRate <= 0 {
			t.Fatalf("row %s achieved rate %v", row.Phase, row.AchievedRate)
		}
		if len(row.Series) != client.Buckets {
			t.Fatalf("row %s series has %d buckets, want %d", row.Phase, len(row.Series), client.Buckets)
		}
	}
	// The live report shares the sim schema: round-trips byte-identically.
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	out2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, out2) {
		t.Fatal("live report changed across a JSON round trip")
	}
}

// TestRunLiveSchemaMismatch: driving a server generated from different
// workload parameters must fail loudly, not silently run a different
// experiment.
func TestRunLiveSchemaMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a live server")
	}
	spec, err := Parse([]byte(liveSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	other := *spec
	other.Workload.N = 4 // different template count than the served set
	addr := startServer(t, &other)
	if _, err := RunLive(context.Background(), spec, LiveOptions{Addr: addr}); err == nil {
		t.Fatal("RunLive accepted a server with a mismatched schema")
	}
}

// TestRunLiveOpTimeoutFollowsDeadline: a server that greets and then never
// answers — what a connection looks like once the nemesis has partitioned
// it — must cost a phase with a deadline a few deadlines' wait, not the
// client's 10 s default op timeout.
func TestRunLiveOpTimeoutFollowsDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out one op timeout (~2s)")
	}
	spec, err := Parse([]byte(`{
  "name": "silent", "seed": 3,
  "workload": { "n": 2, "items": 4 },
  "live": { "conns": 2 },
  "phases": [ { "name": "p", "duration_s": 0.2, "deadline_ms": 50,
    "arrival": { "kind": "poisson", "rate": 50 }, "access": { "kind": "uniform" } } ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				br := bufio.NewReader(conn)
				if _, _, tag, _, err := wire.ReadAny(br, nil); err == nil {
					hello, _ := wire.AppendTagged(nil, wire.Version, tag, &wire.HelloOK{Set: "silent",
						Templates: []wire.TemplateInfo{{Name: "T", Priority: 1,
							Steps: []wire.StepInfo{{Op: wire.OpWrite, Item: 1}}}}})
					_, _ = conn.Write(hello)
				}
				_, _ = io.Copy(io.Discard, br) // read on, answer nothing
			}()
		}
	}()

	start := time.Now()
	rep, err := RunLive(context.Background(), spec, LiveOptions{Addr: ln.Addr().String(), SkipSchemaCheck: true})
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	if row := rep.Rows[0]; row.Offered == 0 || row.Committed != 0 {
		t.Fatalf("offered %d committed %d against a server that answers nothing", row.Offered, row.Committed)
	}
	if took := time.Since(start); took < opTimeout(50*time.Millisecond) || took > 6*time.Second {
		t.Fatalf("phase took %v: want one derived op timeout (%v), not the client's 10s default",
			took, opTimeout(50*time.Millisecond))
	}
}
