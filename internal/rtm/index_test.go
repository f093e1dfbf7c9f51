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

// Property tests for the incremental bookkeeping in index.go: under random
// seeded workloads, the O(1)-maintained ceiling index, donation-based running
// priorities and inverted stale-reader sets must agree at every sampled
// m.mu boundary with the quantities recomputed from scratch the way the
// pre-optimization manager did.

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

// slowSysceil recomputes Sysceil excluding holder excl by scanning the lock
// table — the pre-index definition. Caller holds m.mu.
func slowSysceil(m *Manager, excl rt.JobID) rt.Priority {
	c := rt.Dummy
	m.locks.EachReadLock(func(x rt.Item, holder rt.JobID) {
		if holder != excl {
			c = c.Max(m.ceil.Wceil(x))
		}
	})
	return c
}

// slowHolders recomputes the T* membership at ceiling c excluding excl by
// scanning the lock table. Caller holds m.mu.
func slowHolders(m *Manager, c rt.Priority, excl rt.JobID) map[rt.JobID]bool {
	out := make(map[rt.JobID]bool)
	m.locks.EachReadLock(func(x rt.Item, holder rt.JobID) {
		if holder != excl && m.ceil.Wceil(x) == c {
			out[holder] = true
		}
	})
	return out
}

// crossCheckIndex compares, under m.mu, every incremental quantity against
// its from-scratch definition: Sysceil and T* for each live transaction (and
// for "exclude nobody"), and the inverted stale-reader sets against the
// legacy DataRead-intersection scan.
func crossCheckIndex(m *Manager) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	excls := []rt.JobID{rt.NoJob}
	for _, s := range m.actList {
		excls = append(excls, s.job.ID)
	}
	var walked []rt.JobID
	for _, o := range excls {
		want := slowSysceil(m, o)
		got := m.SysceilExcluding(o)
		if got != want {
			return fmt.Errorf("SysceilExcluding(%d) = %v, scan says %v", o, got, want)
		}
		// The kernel's path: PCP-DA under an Env with no index asks the lock
		// table, and must be told what the manager's index says.
		var walk rt.Priority
		walk, walked = m.locks.Ceiling(o, m.ceil.WceilTable(), nil, walked)
		if walk != got {
			return fmt.Errorf("SysceilExcluding(%d) = %v, lock.Table.Ceiling says %v", o, got, walk)
		}
		fast := make(map[rt.JobID]bool)
		m.EachCeilingHolder(want, o, func(h rt.JobID) { fast[h] = true })
		if len(walked) != len(fast) {
			return fmt.Errorf("ceiling holders for %v excl %d: index %v, lock.Table.Ceiling %v", want, o, fast, walked)
		}
		for _, h := range walked {
			if !fast[h] {
				return fmt.Errorf("ceiling holder %d named by lock.Table.Ceiling, not by the index (ceiling %v excl %d)", h, want, o)
			}
		}
		if want.IsDummy() {
			continue
		}
		slow := slowHolders(m, want, o)
		if len(fast) != len(slow) {
			return fmt.Errorf("ceiling holders for %v excl %d: index %v, scan %v", want, o, fast, slow)
		}
		for h := range slow {
			if !fast[h] {
				return fmt.Errorf("ceiling holder %d missing from index (ceiling %v excl %d)", h, want, o)
			}
		}
	}

	for _, t := range m.actList {
		// Inverted: readers of t's written items, straight off the lock table.
		inv := make(map[rt.JobID]bool)
		t.job.WS.EachItem(func(x rt.Item) {
			m.locks.EachReader(x, func(o rt.JobID) bool {
				if o != t.job.ID {
					inv[o] = true
				}
				return true
			})
		})
		// Legacy: every live transaction whose DataRead meets t's write set.
		brute := make(map[rt.JobID]bool)
		for _, o := range m.actList {
			if o == t {
				continue
			}
			for _, x := range t.job.WS.Items() {
				if o.job.DataRead.Has(x) {
					brute[o.job.ID] = true
					break
				}
			}
		}
		if len(inv) != len(brute) {
			return fmt.Errorf("stale readers of job %d: inverted %v, brute force %v", t.job.ID, inv, brute)
		}
		for o := range brute {
			if !inv[o] {
				return fmt.Errorf("stale reader %d of job %d missing from inversion", o, t.job.ID)
			}
		}
	}
	return nil
}

// TestIncrementalIndexProperty drives random concurrent workloads while an
// auditor repeatedly (a) runs CheckInvariants — which already recomputes the
// ceiling profile, per-transaction counts and the priority-inheritance
// fixpoint from scratch and demands equality — and (b) cross-checks the
// CeilingIndex fast paths and the stale-reader inversion against lock-table
// scans. Every m.mu release is a potential sample point, so drift anywhere
// in the incremental bookkeeping surfaces as a diff against the scratch
// recomputation, not as a downstream scheduling anomaly.
func TestIncrementalIndexProperty(t *testing.T) {
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
				if err := crossCheckIndex(m); err != nil {
					t.Fatal(err)
				}
				audits++
			}
			if audits < 10 {
				t.Logf("only %d mid-run audits (slow machine?)", audits)
			}
			// Quiescent: the index must have drained to empty.
			m.mu.Lock()
			if m.ceilTop != -1 {
				t.Errorf("ceiling top %d after quiescence", m.ceilTop)
			}
			for r, c := range m.readCeil {
				if c != 0 {
					t.Errorf("ceiling count %d at rank %d after quiescence", c, r)
				}
			}
			filed := 0
			for i := range m.slots {
				filed += len(m.slots[i].waiters) + len(m.slots[i].begins)
			}
			if filed != 0 || len(m.allWaiters) != 0 {
				t.Errorf("waiter indexes not drained: %d filed in slots, %d all-waiters",
					filed, len(m.allWaiters))
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
