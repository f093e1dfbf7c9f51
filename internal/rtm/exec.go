package rtm

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// execMaxAttempts bounds the Exec retry loop: a transaction sacrificed this
// many times in a row indicates contention no backoff will fix, and the
// caller should hear about it.
const execMaxAttempts = 12

// Exec backoff shape: exponential from execBackoffBase, capped at
// execBackoffCap, with ±50% jitter so synchronized victims desync.
const (
	execBackoffBase = 100 * time.Microsecond
	execBackoffCap  = 5 * time.Millisecond
)

// Exec runs fn inside a transaction of the named type: Begin, fn, Commit.
// When the transaction is sacrificed (ErrAborted — cycle victim or injected
// fault), Exec retries with jittered exponential backoff, up to
// execMaxAttempts attempts, honouring ctx throughout: ctx is the caller's
// deadline, and a ctx that dies in backoff ends Exec with ErrCancelled
// wrapping the context error. Every other error — including ErrCancelled
// and fn's own errors — aborts the transaction (a no-op when the failure
// already cleaned it up) and is returned as-is.
//
// fn must confine itself to the handle it is given and may be called
// multiple times; each invocation sees a fresh transaction.
func (m *Manager) Exec(ctx context.Context, name string, fn func(tx *Txn) error) error {
	var last error
	for attempt := 0; attempt < execMaxAttempts; attempt++ {
		if attempt > 0 {
			m.mu.Lock()
			m.stats.Retries++
			m.mu.Unlock()
			if err := m.backoff(ctx, attempt); err != nil {
				return err
			}
		}
		tx, err := m.Begin(ctx, name)
		if err != nil {
			if !retryable(err) {
				return err
			}
			last = err
			continue
		}
		err = fn(tx)
		if err == nil {
			err = tx.Commit(ctx)
		}
		if err == nil {
			return nil
		}
		tx.Abort()
		if !retryable(err) {
			return err
		}
		last = err
	}
	return fmt.Errorf("rtm: Exec %q gave up after %d attempts: %w", name, execMaxAttempts, last)
}

// retryable reports whether err is a sacrifice the caller did not cause and
// a fresh attempt can survive.
func retryable(err error) bool {
	return errors.Is(err, ErrAborted)
}

// backoff sleeps for the attempt's jittered exponential delay, returning
// early with ErrCancelled wrapping the context error if ctx dies first.
func (m *Manager) backoff(ctx context.Context, attempt int) error {
	d := execBackoffBase << (attempt - 1)
	if d > execBackoffCap {
		d = execBackoffCap
	}
	// jitter in [0.5, 1.5): victims that lost the same cycle spread out.
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return &cancelledError{cause: ctx.Err()}
	case <-timer.C:
		return nil
	}
}
