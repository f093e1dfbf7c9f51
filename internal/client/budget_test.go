package client

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/wire"
)

func TestRetryBudgetCapsRetryRatio(t *testing.T) {
	b := NewRetryBudget(0.2, 10)
	// The bucket starts full: a burst of 10 retries passes.
	for i := 0; i < 10; i++ {
		if !b.take() {
			t.Fatalf("burst retry %d refused with a full bucket", i)
		}
	}
	if b.take() {
		t.Fatal("retry granted from an empty bucket")
	}
	if got := b.Suppressed(); got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}
	// Sustained overload: 100 first attempts earn 0.2 each, so at most 20
	// of 100 requested retries pass — the 20% cap, not the 100% amplification
	// an unbudgeted client would produce.
	granted := 0
	for i := 0; i < 100; i++ {
		b.credit()
		if b.take() {
			granted++
		}
	}
	if granted > 25 || granted < 15 {
		t.Fatalf("granted %d retries per 100 attempts, want ~20 (the earn rate)", granted)
	}
}

func TestClientStopsAtExhaustedBudget(t *testing.T) {
	// Budget with zero headroom: the first retry is refused, so Do makes
	// exactly one attempt even though MaxAttempts allows eight.
	b := NewRetryBudget(0.01, 1)
	if !b.take() {
		t.Fatal("priming take failed")
	}
	begins := 0
	var sawShed int64
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		for {
			_, tag, err := recv(conn)
			if err != nil {
				return
			}
			begins++
			send(t, conn, tag, &wire.ErrMsg{Code: wire.CodeShed, Text: "shed"})
		}
	})
	cl := NewPipeClient(addr, 2*time.Second, 0, 1)
	defer cl.Close()
	cl.Budget = b
	var retries atomic.Int64
	cl.Retries = &retries
	cl.CodeHook = func(code wire.ErrorCode) {
		if code == wire.CodeShed {
			sawShed++
		}
	}

	err := cl.Do("T1", func(c *PipeConn) error { return nil })
	if !wire.IsCode(err, wire.CodeShed) {
		t.Fatalf("Do against an always-shedding server: %v, want the last attempt's CodeShed", err)
	}
	if begins != 1 || retries.Load() != 0 {
		t.Fatalf("begins = %d retries = %d, want 1/0 (budget must refuse before the sleep)", begins, retries.Load())
	}
	if sawShed != 1 {
		t.Fatalf("CodeHook saw %d sheds, want 1", sawShed)
	}
	if b.Suppressed() == 0 {
		t.Fatal("suppression not recorded")
	}
}
