package rtm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pcpda/internal/fault"
	"pcpda/internal/txn"
)

// Lost-wakeup stress tests for the targeted-wakeup machinery in wait.go.
// Under the legacy condition-variable broadcast, a missed signal was masked
// by the next unrelated broadcast; with targeted wakeups a genuinely lost
// wake means a worker parks forever. These tests drive a thundering herd
// through the maximum-contention workload (every template reads AND writes
// the same four items, so every park/wake edge — lock waits, ceiling waits,
// commit waits, template slots — fires constantly) and demand full progress
// within a generous wall-clock budget. Run under -race they also certify the
// register-before-unlock handoff publishes safely.

// driveHerd runs `workers` goroutines, each committing txnsEach transactions
// of template w mod the set's size, failing the test if the herd cannot
// finish before ctx expires (the signature of a lost wakeup: one worker
// parked with no one left to wake it).
func driveHerd(t *testing.T, m *Manager, set *txn.Set, workers, txnsEach int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tmpl := set.Templates[w%len(set.Templates)]
		wg.Add(1)
		go func(tmpl *txn.Template) {
			defer wg.Done()
			for i := 0; i < txnsEach; i++ {
				err := m.Exec(ctx, tmpl.Name, func(tx *Txn) error {
					for _, st := range tmpl.Steps {
						var err error
						if st.Kind == txn.ReadStep {
							_, err = tx.Read(ctx, st.Item)
						} else {
							err = tx.Write(ctx, st.Item, 1)
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err := tolerate(ctx, err); err != nil {
					t.Errorf("worker %s txn %d: %v", tmpl.Name, i, err)
					return
				}
			}
		}(tmpl)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		t.Fatalf("herd did not drain: %v", err)
	}
	assertQuiescent(t, m)
}

// tolerate passes the failures the herd provokes on purpose: a sacrifice
// and a cancellation. One that came after the herd's own context ended is
// a wedge, and is not passed.
func tolerate(parent context.Context, err error) error {
	if err == nil {
		return nil
	}
	if parent.Err() != nil {
		return fmt.Errorf("herd budget exhausted (wedged?): %w", err)
	}
	if errors.Is(err, ErrAborted) || errors.Is(err, ErrCancelled) {
		return nil
	}
	return err
}

// TestNoLostWakeups runs the herd with NO fault injection: PWakeup is zero,
// so there are no spurious broadcasts to paper over a dropped targeted wake.
// Every deny→grant transition must be carried by exactly the wake edges
// finish/inherit/resolveCycle emit.
func TestNoLostWakeups(t *testing.T) {
	const workers = 8
	set := benchHighSet(workers)
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	txns := 400
	if testing.Short() {
		txns = 100
	}
	driveHerd(t, m, set, workers, txns)
}

// TestNoLostWakeupsUnderChaos repeats the herd with the fault injector
// aborting, cancelling and delaying transactions mid-flight, so wake edges
// also fire from every failure path — and with
// injected spurious wakeups (fault.Wakeup), which must still reach every
// parked waiter through wakeAll. Two workers share each template, so a Begin
// also waits for its template's busy slot (parkBegin) under the faults.
func TestNoLostWakeupsUnderChaos(t *testing.T) {
	const workers = 6
	set := benchHighSet(workers / 2)
	inj := fault.NewSeeded(fault.Config{
		Seed:    99,
		PDelay:  0.03,
		PWakeup: 0.03,
		PAbort:  0.02,
		PCancel: 0.02,
	})
	m, err := NewWithOptions(set, Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	txns := 250
	if testing.Short() {
		txns = 60
	}
	driveHerd(t, m, set, workers, txns)
}
