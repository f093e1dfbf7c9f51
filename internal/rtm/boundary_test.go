package rtm

import (
	"context"
	"fmt"
	"testing"

	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// TestHostileItemIDsSizeNothing: the lock table, the store and the item sets
// are slices indexed by item id, so an id the schema does not declare — the
// server passes a wire id through as rt.Item(int32(id)) — must be refused
// or read as "initial", never index or grow one of them. Every entry point
// that takes an item from outside is tried with ids below, just past and far
// past the catalog, against a manager that has committed (so the version
// chains exist) and while a transaction is live.
func TestHostileItemIDsSizeNothing(t *testing.T) {
	set := contendedSet()
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	c := context.Background()
	for _, tmpl := range set.Templates {
		if err := commitOne(c, m, tmpl); err != nil {
			t.Fatal(err)
		}
	}
	type extent struct{ items, holders, cells, journals int }
	measure := func() (e extent) {
		m.mu.Lock()
		defer m.mu.Unlock()
		e.items, e.holders = m.locks.Extent()
		e.cells, e.journals = m.store.Extent()
		return e
	}
	before := measure()

	hostile := []rt.Item{-1, -1 << 31, rt.Item(set.Catalog.Len()), 1 << 30}
	tx, err := m.Begin(c, "T0")
	if err != nil {
		t.Fatal(err)
	}
	ro, err := m.BeginReadOnly(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range hostile {
		if v := m.ReadCommitted(x); v != 0 {
			t.Errorf("ReadCommitted(%d) = %d, want the initial value", x, v)
		}
		if _, err := tx.Read(c, x); err == nil {
			t.Errorf("Read(%d) of an undeclared item succeeded", x)
		}
		if err := tx.Write(c, x, 1); err == nil {
			t.Errorf("Write(%d) of an undeclared item succeeded", x)
		}
		if v, err := ro.Read(c, x); err != nil || v != 0 {
			t.Errorf("read-only Read(%d) = %d, %v, want the initial value", x, v, err)
		}
		if v, ver, from, err := ro.ReadVersion(c, x); err != nil || v != 0 || ver != 0 || from != db.InitRun {
			t.Errorf("read-only ReadVersion(%d) = %d, v%d, run %d, %v", x, v, ver, from, err)
		}
	}
	ro.Abort()
	// The refusals left the transaction usable: it still commits.
	if _, err := tx.Read(c, set.Templates[0].Steps[0].Item); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(c); err != nil {
		t.Fatal(err)
	}
	if after := measure(); after != before {
		t.Fatalf("hostile ids moved an internal length: %+v -> %+v", before, after)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIDsSurviveTheInt32Boundary: job and run ids count every transaction a
// manager ever ran — 2^31 of them is under half an hour of the in-process
// benchmark's rate — and the live list's order, the history's low-water rule
// and the NoJob/NoRun/InitRun sentinels all assume they only grow. The
// counters are seeded just below 2^31 and 2^32 and overlapping instances are
// run across each boundary, with the full audit after every admission and
// every commit.
func TestIDsSurviveTheInt32Boundary(t *testing.T) {
	for _, bits := range []uint{31, 32} {
		t.Run(fmt.Sprintf("2^%d", bits), func(t *testing.T) {
			set := benchLowSet(2) // disjoint items: two instances overlap without blocking
			m, err := New(set)
			if err != nil {
				t.Fatal(err)
			}
			base := int64(1)<<bits - 3 // not a constant: the conversions compile at any id width
			m.mu.Lock()
			m.nextJob = rt.JobID(base)
			m.mu.Unlock()
			c := context.Background()
			audit := func(when string, tx *Txn) {
				t.Helper()
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("after %s job %d: %v", when, tx.ID(), err)
				}
				if st := m.Stats(); st.AuditViolations != 0 || st.CommitsAudited != uint64(st.Commits) {
					t.Fatalf("after %s job %d: audited %d of %d commits, %d violations",
						when, tx.ID(), st.CommitsAudited, st.Commits, st.AuditViolations)
				}
			}
			begin := func(i int) *Txn {
				tx, err := m.Begin(c, set.Templates[i].Name)
				if err != nil {
					t.Fatal(err)
				}
				audit("admitting", tx)
				return tx
			}
			commit := func(tx *Txn) {
				for _, st := range tx.Template().Steps {
					var err error
					if st.Kind == txn.ReadStep {
						_, err = tx.Read(c, st.Item)
					} else {
						err = tx.Write(c, st.Item, db.Value(tx.ID()))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(c); err != nil {
					t.Fatal(err)
				}
				audit("committing", tx)
			}
			a := begin(0)
			for i := 0; i < 8; i++ {
				b := begin(1) // live together with a
				commit(a)
				a = begin(0) // live together with b
				commit(b)
			}
			if got, want := int64(a.ID()), base+16; got != want {
				t.Fatalf("the 17th instance carries id %d, want %d", got, want)
			}
			a.Abort()
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
