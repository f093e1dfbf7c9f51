// Package client speaks the internal/wire protocol to a pcpdad server.
// PipeConn is the one connection type: it keeps many requests in flight,
// sends a transaction whole (SubmitTxn, RunTxn) or drives it a step at a
// time (Begin, Read, Write, Commit — each a Submit and a Wait). PipeClient
// is the retrying client over one PipeConn: it turns the server's typed
// backpressure (CodeOverload, CodeShed, CodeInfeasible) and optimistic
// failures (CodeAborted, CodeDeadline) into a seeded-jitter retry loop,
// optionally capped by a RetryBudget. RunLoad is the load generator over
// both.
package client

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/wire"
)

// remoteError is the *wire.RemoteError an ERR reply stands for, nil for any
// other message.
func remoteError(m wire.Message) error {
	if e, isErr := m.(*wire.ErrMsg); isErr {
		return &wire.RemoteError{Code: e.Code, Text: e.Text}
	}
	return nil
}

// budgetMs is budget as BEGIN and TXN carry a firm deadline: whole
// milliseconds. budget <= 0 means no deadline; sub-millisecond budgets
// round up to 1ms rather than silently dropping the deadline.
func budgetMs(budget time.Duration) uint32 {
	if budget <= 0 {
		return 0
	}
	return uint32(min((budget+time.Millisecond-1)/time.Millisecond, math.MaxUint32))
}

// RetryBudget is a token bucket bounding the global ratio of retries to
// first attempts across every PipeClient sharing it. Each Do call earns a
// fraction of a token; each retry spends a whole one. Under normal
// operation the bucket stays near full and retries are free; under
// sustained overload the spend rate caps at the earn rate, so the retry
// traffic a saturated server sees is at most EarnPerCall of the offered
// load — the classic defense against retry storms turning an overload
// into a metastable failure.
type RetryBudget struct {
	mu         sync.Mutex
	tokens     float64
	burst      float64
	earn       float64
	suppressed int64
}

// NewRetryBudget builds a budget earning earnPerCall tokens per first
// attempt (default 0.2) with the given burst capacity (default 20). The
// bucket starts full so short bursts of failures retry freely.
func NewRetryBudget(earnPerCall, burst float64) *RetryBudget {
	if earnPerCall <= 0 {
		earnPerCall = 0.2
	}
	if burst < 1 {
		burst = 20
	}
	return &RetryBudget{tokens: burst, burst: burst, earn: earnPerCall}
}

func (b *RetryBudget) credit() {
	b.mu.Lock()
	b.tokens = min(b.burst, b.tokens+b.earn)
	b.mu.Unlock()
}

// take spends one token if available; a refusal is counted as a
// suppressed retry.
func (b *RetryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	b.suppressed++
	return false
}

// Suppressed returns how many retries the budget has refused.
func (b *RetryBudget) Suppressed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.suppressed
}

// retryPolicy is PipeClient's retry skeleton: seeded full-jitter exponential
// backoff on the protocol's retryable error codes, optionally capped by a
// RetryBudget.
type retryPolicy struct {
	// MaxAttempts bounds tries per Do call (default 8).
	MaxAttempts int
	// BackoffBase is the first retry's sleep ceiling; it doubles per
	// attempt (full jitter, default 1ms).
	BackoffBase time.Duration
	// Retries, when set, is incremented once per retry attempt.
	Retries *atomic.Int64
	// Budget, when set, globally caps retries: a retry the budget refuses
	// ends the Do call with the last error instead of sleeping and trying
	// again. Share one budget across all clients of a workload.
	Budget *RetryBudget
	// CodeHook, when set, observes every typed server error an attempt
	// returns (including ones that are then retried) — load generators use
	// it to count sheds and infeasible rejections that Do would otherwise
	// absorb.
	CodeHook func(wire.ErrorCode)

	mu  sync.Mutex
	rng *rand.Rand
}

// run drives attempt under the policy: retryable typed failures back off
// and try again (budget permitting); anything else ends the call.
func (rp *retryPolicy) run(name string, attempt func() error) error {
	rp.earn()
	return rp.resume(name, attempt(), attempt)
}

// earn credits the budget with one transaction's first attempt.
func (rp *retryPolicy) earn() {
	if rp.Budget != nil {
		rp.Budget.credit()
	}
}

// resume carries a transaction on from err, the outcome of its first
// attempt — which a caller that overlaps first attempts (the load
// generator's pipelined worker) made itself, after earn — through the rest
// of the chain.
func (rp *retryPolicy) resume(name string, err error, attempt func() error) error {
	attempts := rp.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	for a := 1; err != nil; a++ {
		var remote *wire.RemoteError
		if !errors.As(err, &remote) {
			return err
		}
		if rp.CodeHook != nil {
			rp.CodeHook(remote.Code)
		}
		if !remote.Code.Retryable() {
			return err
		}
		if a >= attempts {
			return fmt.Errorf("client: %s: attempts exhausted: %w", name, err)
		}
		if rp.Budget != nil && !rp.Budget.take() {
			return fmt.Errorf("client: %s: retry budget exhausted: %w", name, err)
		}
		if rp.Retries != nil {
			rp.Retries.Add(1)
		}
		rp.sleepBackoff(a)
		err = attempt()
	}
	return nil
}

func (rp *retryPolicy) sleepBackoff(attempt int) {
	base := rp.BackoffBase
	if base <= 0 {
		base = time.Millisecond
	}
	ceil := base << uint(attempt-1)
	if limit := 100 * time.Millisecond; ceil > limit {
		ceil = limit
	}
	rp.mu.Lock()
	d := time.Duration(rp.rng.Int63n(int64(ceil) + 1))
	rp.mu.Unlock()
	time.Sleep(d)
}
