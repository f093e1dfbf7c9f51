package client

import (
	"testing"
	"time"

	"pcpda/internal/wire"
)

func TestRetryBudgetCapsRetryRatio(t *testing.T) {
	b := newRetryBudget(10)
	// The bucket starts full: a burst of 10 retries passes.
	for i := 0; i < 10; i++ {
		if !b.take() {
			t.Fatalf("burst retry %d refused with a full bucket", i)
		}
	}
	if b.take() {
		t.Fatal("retry granted from an empty bucket")
	}
	if got := b.suppressed(); got != 1 {
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

// TestClientStopsAtExhaustedBudget: against a server that sheds
// everything, a retry the budget refuses is never slept for and never sent.
// The server sees the first attempts and the granted retries and nothing
// else, the granted retries stay within what the bucket held and earned,
// and every shed is counted, on the run and on its tier.
func TestClientStopsAtExhaustedBudget(t *testing.T) {
	addr, seen := loadServer(t, func(int64) wire.ErrorCode { return wire.CodeShed })
	const arrivals = 10
	rep := runLoad(t, LoadConfig{Addr: addr, Conns: 1, MaxAttempts: 4, MaxInFlight: arrivals,
		ArrivalRate: 1, Duration: time.Second, ArrivalTimes: make([]time.Duration, arrivals)})
	if rep.Attempts != arrivals || rep.Failed != arrivals || rep.Committed != 0 {
		t.Fatalf("attempts/failed/committed = %d/%d/%d, want %d/%d/0", rep.Attempts, rep.Failed, rep.Committed, arrivals, arrivals)
	}
	if got := seen.Load(); got != rep.Attempts+rep.Retries {
		t.Fatalf("server saw %d attempts, want %d first attempts + %d granted retries", got, rep.Attempts, rep.Retries)
	}
	// The bucket starts with a burst of 10×Conns and each first attempt
	// earns a fifth of a token.
	if max := int64(10 + arrivals*retryEarn); rep.Retries > max || rep.RetriesSuppressed == 0 {
		t.Fatalf("retries = %d, suppressed = %d: want at most %d granted and some refused", rep.Retries, rep.RetriesSuppressed, max)
	}
	if rep.Shed != seen.Load() || rep.Tiers[0].Shed != seen.Load() {
		t.Fatalf("shed %d, tier shed %d: want every one of the %d attempts counted", rep.Shed, rep.Tiers[0].Shed, seen.Load())
	}
}
