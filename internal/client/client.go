// Package client speaks the internal/wire protocol to a pcpdad server.
// PipeConn is the one connection type: it keeps many requests in flight,
// sends a transaction whole (SubmitTxn, RunTxn) or drives it a step at a
// time (Begin, Read, Write, Commit — each a Submit and a Wait). RunLoad is
// the load generator over it, and its worker is the one retrying client: it
// turns the server's typed backpressure (CodeOverload, CodeShed,
// CodeInfeasible) and optimistic failures (CodeAborted, CodeDeadline) into
// a seeded-jitter retry loop capped by a run-wide retry budget.
package client

import (
	"math"
	"sync"
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

// retryEarn is what a first attempt earns the retry budget: under sustained
// overload at most one retry per five first attempts reaches the server.
const retryEarn = 0.2

// retryBudget is a token bucket bounding the ratio of retries to first
// attempts across every worker of a run. Each first attempt earns retryEarn
// of a token; each retry spends a whole one. Under normal operation the
// bucket stays near full and retries are free; under sustained overload the
// spend rate caps at the earn rate — the classic defense against retry
// storms turning an overload into a metastable failure.
type retryBudget struct {
	mu      sync.Mutex
	tokens  float64
	burst   float64
	refused int64
}

// newRetryBudget builds a budget holding at most burst tokens. The bucket
// starts full so short bursts of failures retry freely.
func newRetryBudget(burst float64) *retryBudget {
	return &retryBudget{tokens: burst, burst: burst}
}

func (b *retryBudget) credit() {
	b.mu.Lock()
	b.tokens = min(b.burst, b.tokens+retryEarn)
	b.mu.Unlock()
}

// take spends one token if available; a refusal is counted as a
// suppressed retry.
func (b *retryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	b.refused++
	return false
}

// suppressed returns how many retries the budget has refused.
func (b *retryBudget) suppressed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refused
}
