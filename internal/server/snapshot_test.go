package server

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// TestReadOnlyEndToEnd drives a declared read-only transaction over the
// wire: its one TXN frame bypasses admission, the reads answer from the
// version chains, a BEGIN with the read-only flag is refused without
// ending the session, and the whole phase moves neither the manager clock
// nor the lock table.
func TestReadOnlyEndToEnd(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	xi := item(t, set, "x")
	yi := item(t, set, "y")

	pc := mustDial(t, addr)
	defer func() { _ = pc.Close() }()
	if err := pc.RunTxn("updater", 0, []wire.Message{
		&wire.Write{Item: xi, Value: 7},
		&wire.Write{Item: yi, Value: 8},
	}); err != nil {
		t.Fatal(err)
	}

	// The zero-traffic bracket: update-path counters must not move from
	// here to the end of the read-only phase.
	before := mgr.Stats()
	accepted := srv.Counters().Accepted.Load()

	fut, err := pc.SubmitReadTxn([]uint32{xi})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := fut.Reads(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("snapshot read over the wire = %v, want [7]", got)
	}

	// The per-step form is refused, and the session goes on serving.
	bp, err := pc.Submit(&wire.Begin{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Wait(); !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("read-only BEGIN: %v, want CodeProtocol", err)
	}
	// A burst through the high-level helper too.
	for i := 0; i < 10; i++ {
		if err := pc.RunReadTxn([]uint32{xi, yi}); err != nil {
			t.Fatal(err)
		}
	}

	after := mgr.Stats()
	if d := after.Clock - before.Clock; d != 0 {
		t.Errorf("manager clock moved by %d during the read-only phase", d)
	}
	if d := after.LockTableOps - before.LockTableOps; d != 0 {
		t.Errorf("lock table mutated %d times during the read-only phase", d)
	}
	if after.ROCommits-before.ROCommits != 11 {
		t.Errorf("ro commits delta = %d, want 11", after.ROCommits-before.ROCommits)
	}
	if got := srv.Counters().Accepted.Load(); got != accepted {
		t.Errorf("admission accepted %d transactions during the read-only phase", got-accepted)
	}
	if got := srv.Counters().ROAccepted.Load(); got != 11 {
		t.Errorf("ROAccepted = %d, want 11", got)
	}
}

// TestMaxConnsRefusal: past -max-conns the server refuses at accept time
// with one retryable busy error, and a freed slot admits again.
func TestMaxConnsRefusal(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{MaxConns: 1})

	c1 := mustDial(t, addr)
	waitFor(t, "first session attached", func() bool {
		return srv.Counters().SessionsOpened.Load() >= 1
	})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	m, _, tag, _, err := wire.ReadAny(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	e, isErr := m.(*wire.ErrMsg)
	if !isErr || e.Code != wire.CodeOverload || tag != 0 {
		t.Fatalf("refusal = %v at tag %d, want a CodeOverload ErrMsg at tag 0", m, tag)
	}
	if !e.Code.Retryable() {
		t.Fatal("conn-limit refusal must be retryable")
	}
	_ = nc.Close()
	if got := srv.Counters().RejectedConnLimit.Load(); got != 1 {
		t.Fatalf("RejectedConnLimit = %d, want 1", got)
	}

	// The dial hands the refusal to its caller typed, so that a retry
	// policy can see it is retryable.
	if _, err := client.DialPipelined(addr, 2*time.Second, 0); !wire.IsCode(err, wire.CodeOverload) {
		t.Fatalf("DialPipelined past the limit: %v, want CodeOverload", err)
	}

	// Freeing the slot readmits.
	_ = c1.Close()
	waitFor(t, "slot freed", func() bool {
		c2, err := client.DialPipelined(addr, 2*time.Second, 0)
		if err != nil {
			return false
		}
		_ = c2.Close()
		return true
	})
}

// TestMaxConnsRefusalIsRetried: a load worker that finds the server at its
// connection limit backs off and redials — the refusal is the retryable
// CodeOverload, not a dead end — and commits once a slot frees. A hog holds
// one of two slots and a live zonly transaction, so RunLoad's schema probe
// gets in, and then, every transaction being a zonly, whichever of its two
// workers takes the last slot waits on the hog's transaction while the other
// is refused. The hog commits once a dial has been refused.
func TestMaxConnsRefusalIsRetried(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			mgr, _ := rtm.New(testSet(t))
			addr, srv := startServer(t, mgr, Config{MaxConns: 2})
			hog := mustDial(t, addr)
			defer func() { _ = hog.Close() }()
			zonly := -1
			for i, tmpl := range hog.Schema().Templates {
				if tmpl.Name == "zonly" {
					zonly = i
				}
			}
			if _, err := hog.Begin("zonly"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			const txns = 20
			var rep *client.LoadReport
			done := make(chan error, 1)
			go func() {
				var err error
				rep, err = client.RunLoad(ctx, client.LoadConfig{Addr: addr, Conns: 2, Txns: txns,
					Pipelined: pipelined, Window: 1, OpTimeout: 5 * time.Second,
					PickTemplate: func(*rand.Rand, float64) int { return zonly }})
				done <- err
			}()
			waitFor(t, "a refused dial", func() bool { return srv.Counters().RejectedConnLimit.Load() >= 1 })
			if err := hog.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("RunLoad against a server at its connection limit: %v", err)
			}
			if rep.Committed != txns || rep.Retries == 0 {
				t.Fatalf("committed %d with %d retries, want %d and the refused dial retried", rep.Committed, rep.Retries, txns)
			}
			if got := mgr.Stats().Commits; got != txns+1 {
				t.Fatalf("manager commits %d, want %d and the hog's", got, txns)
			}
		})
	}
}
