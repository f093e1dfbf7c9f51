package rtm

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Property tests for the manager's bookkeeping: under random seeded
// workloads, running priorities (inherit.go) and the inverted stale-reader
// sets must agree at every sampled m.mu boundary with their definitions.

// propSet builds a random template set: nTmpl templates over nItems shared
// items, each reading/writing a random sample (an item appears at most once
// per template, so declared sets stay well-formed).
func propSet(rng *rand.Rand, nTmpl, nItems int) *txn.Set {
	s := txn.NewSet("prop")
	items := make([]rt.Item, nItems)
	for i := range items {
		items[i] = s.Catalog.Intern(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < nTmpl; i++ {
		perm := rng.Perm(nItems)
		nSteps := 2 + rng.Intn(3)
		steps := make([]txn.Step, 0, nSteps)
		for _, p := range perm[:nSteps] {
			if rng.Intn(2) == 0 {
				steps = append(steps, txn.Read(items[p]))
			} else {
				steps = append(steps, txn.Write(items[p]))
			}
		}
		s.Add(&txn.Template{Name: fmt.Sprintf("T%d", i), Steps: steps})
	}
	s.AssignByIndex()
	return s
}

// crossCheckStaleReaders compares, under m.mu, the stale-reader inversion
// Commit uses (readers of t's written items, off the lock table's entry
// lists) against its definition: every live transaction whose DataRead meets
// t's pending write set.
func crossCheckStaleReaders(m *Manager) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	for _, t := range m.active {
		// Inverted: readers of t's written items, straight off the lock table.
		inv := make(map[rt.JobID]bool)
		for _, x := range t.WS.Items() {
			m.locks.EachReader(x, func(o rt.JobID) bool {
				if o != t.ID {
					inv[o] = true
				}
				return true
			})
		}
		// Brute force: every live transaction whose DataRead meets t's write set.
		brute := make(map[rt.JobID]bool)
		for _, o := range m.active {
			if o == t {
				continue
			}
			for _, x := range t.WS.Items() {
				if o.DataRead.Has(x) {
					brute[o.ID] = true
					break
				}
			}
		}
		if len(inv) != len(brute) {
			return fmt.Errorf("stale readers of job %d: inverted %v, brute force %v", t.ID, inv, brute)
		}
		for o := range brute {
			if !inv[o] {
				return fmt.Errorf("stale reader %d of job %d missing from inversion", o, t.ID)
			}
		}
	}
	return nil
}

// TestInheritanceAndStaleReaderProperty drives random concurrent workloads
// while an auditor repeatedly (a) runs CheckInvariants — which holds every
// running priority to the definition of inheritance (cc.CheckState), so an
// inherit call missing where the Blocked set changes shows — and (b)
// cross-checks the stale-reader inversion against brute force. Every m.mu
// release is a potential sample point, so drift surfaces as a diff against
// the definition, not as a downstream scheduling anomaly. (The system ceiling
// has no bookkeeping to drift: it is lock.Table.Ceiling's walk over the locks
// held, which package lock holds to its definition.)
func TestInheritanceAndStaleReaderProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const workers = 5
			set := propSet(rng, workers, 6)
			m, err := New(set)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			txnsPerWorker := 1500
			if testing.Short() {
				txnsPerWorker = 200
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				tmpl := set.Templates[w]
				wg.Add(1)
				go func(tmpl *txn.Template) {
					defer wg.Done()
					for i := 0; i < txnsPerWorker; i++ {
						for {
							ok, err := benchTxnOnce(ctx, m, tmpl)
							if err != nil {
								t.Error(err)
								return
							}
							if ok {
								break
							}
						}
					}
				}(tmpl)
			}

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			audits := 0
			for running := true; running; {
				select {
				case <-done:
					running = false
				case <-time.After(100 * time.Microsecond):
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := crossCheckStaleReaders(m); err != nil {
					t.Fatal(err)
				}
				audits++
			}
			if audits < 10 {
				t.Logf("only %d mid-run audits (slow machine?)", audits)
			}
			// Quiescent: no lock left in the table, no waiter filed.
			m.mu.Lock()
			if n := m.locks.LockCount(); n != 0 {
				t.Errorf("%d locks left in the table after quiescence", n)
			}
			filed := 0
			for i := range m.slots {
				filed += len(m.slots[i].waiters) + len(m.slots[i].begins)
			}
			if filed != 0 {
				t.Errorf("waiters not drained: %d filed in slots", filed)
			}
			m.mu.Unlock()
		})
	}
}

// TestResetHistory checks the bounded-op-log API: resetting at a quiescent
// point keeps the manager consistent and subsequent windows validate on
// their own.
func TestResetHistory(t *testing.T) {
	s, x, y := demoSet(t)
	m, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
	run := func() {
		tx, err := m.Begin(c, "updater")
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(c, x, 1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(c, y, 2); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(c); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if len(m.History().Ops) == 0 {
		t.Fatal("no history recorded")
	}
	m.ResetHistory()
	if len(m.History().Ops) != 0 {
		t.Fatalf("history not emptied: %d ops remain", len(m.History().Ops))
	}
	run()
	if got := len(m.History().Ops); got != 4 { // Begin, 2×Write, Commit
		t.Fatalf("post-reset window has %d ops, want 4", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Cross-window read: after another reset the reader observes versions
	// whose installing commits were discarded with the previous window. Those
	// runs are pre-reset and therefore assumed committed — not dirty reads.
	m.ResetHistory()
	tx, err := m.Begin(c, "reader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(c, x); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("cross-window read flagged: %v", err)
	}
}
