package rtm

import (
	"context"
	"testing"

	"pcpda/internal/db"
	"pcpda/internal/rt"
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
