package db

import (
	"testing"
	"testing/quick"

	"pcpda/internal/rt"
)

const (
	x = rt.Item(0)
	y = rt.Item(1)
)

func TestInitialState(t *testing.T) {
	s := NewStore()
	v, ver, run := s.Read(x)
	if v != 0 || ver != 0 || run != InitRun {
		t.Fatalf("initial read = (%v,%v,%v), want (0,0,InitRun)", v, ver, run)
	}
}

func TestInstallBumpsVersion(t *testing.T) {
	s := NewStore()
	if ver := s.Install(RunID(5), x, 42); ver != 1 {
		t.Fatalf("first install version = %d, want 1", ver)
	}
	if ver := s.Install(RunID(6), x, 43); ver != 2 {
		t.Fatalf("second install version = %d, want 2", ver)
	}
	v, ver, run := s.Read(x)
	if v != 43 || ver != 2 || run != RunID(6) {
		t.Fatalf("read after installs = (%v,%v,%v)", v, ver, run)
	}
	if s.VersionOf(y) != 0 {
		t.Fatal("untouched items stay at version 0")
	}
}

func TestWriteInPlaceAndRollback(t *testing.T) {
	s := NewStore()
	s.Install(RunID(1), x, 10)
	s.WriteInPlace(RunID(2), x, 20)
	s.WriteInPlace(RunID(2), y, 30)
	s.WriteInPlace(RunID(2), x, 25) // second write to same item
	if v, _, _ := s.Read(x); v != 25 {
		t.Fatalf("in-place write not visible: %v", v)
	}
	if s.PendingUndo(RunID(2)) != 3 {
		t.Fatalf("undo journal = %d records, want 3", s.PendingUndo(RunID(2)))
	}
	s.Rollback(RunID(2))
	v, ver, run := s.Read(x)
	if v != 10 || ver != 1 || run != RunID(1) {
		t.Fatalf("rollback of x wrong: (%v,%v,%v)", v, ver, run)
	}
	v, ver, run = s.Read(y)
	if v != 0 || ver != 0 || run != InitRun {
		t.Fatalf("rollback of y wrong: (%v,%v,%v)", v, ver, run)
	}
	if s.PendingUndo(RunID(2)) != 0 {
		t.Fatal("journal must be discarded after rollback")
	}
}

func TestRollbackUnknownRunNoop(t *testing.T) {
	s := NewStore()
	s.Install(RunID(1), x, 10)
	s.Rollback(RunID(99))
	if v, _, _ := s.Read(x); v != 10 {
		t.Fatal("rollback of unknown run must not disturb state")
	}
}

func TestForget(t *testing.T) {
	s := NewStore()
	s.WriteInPlace(RunID(2), x, 20)
	s.Forget(RunID(2))
	if s.PendingUndo(RunID(2)) != 0 {
		t.Fatal("Forget must drop the journal")
	}
	s.Rollback(RunID(2)) // must now be a no-op
	if v, _, _ := s.Read(x); v != 20 {
		t.Fatal("rollback after forget must not undo")
	}
}

func TestWorkspaceReadOwnWrites(t *testing.T) {
	w := NewWorkspace()
	if _, ok := w.Get(x); ok {
		t.Fatal("empty workspace has no writes")
	}
	w.Write(x, 7)
	w.Write(y, 8)
	w.Write(x, 9) // overwrite
	if v, ok := w.Get(x); !ok || v != 9 {
		t.Fatalf("own write = (%v,%v)", v, ok)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	items := w.Items()
	if len(items) != 2 || items[0] != x || items[1] != y {
		t.Fatalf("Items = %v, want first-write order [x y]", items)
	}
}

func TestWorkspaceIsolationUntilInstall(t *testing.T) {
	s := NewStore()
	w := NewWorkspace()
	w.Write(x, 99)
	if v, _, _ := s.Read(x); v != 0 {
		t.Fatal("workspace write leaked into store before install")
	}
	installed := w.InstallInto(nil, s, RunID(3))
	if len(installed) != 1 || installed[0].Item != x || installed[0].Version != 1 {
		t.Fatalf("installed = %v", installed)
	}
	v, ver, run := s.Read(x)
	if v != 99 || ver != 1 || run != RunID(3) {
		t.Fatalf("post-install read = (%v,%v,%v)", v, ver, run)
	}
}

func TestWorkspaceInstallOrder(t *testing.T) {
	s := NewStore()
	w := NewWorkspace()
	w.Write(y, 1)
	w.Write(x, 2)
	installed := w.InstallInto(nil, s, RunID(4))
	if installed[0].Item != y || installed[1].Item != x {
		t.Fatalf("install must follow first-write order: %v", installed)
	}
}

func TestWorkspaceDiscard(t *testing.T) {
	w := NewWorkspace()
	w.Write(x, 1)
	w.Discard()
	if w.Len() != 0 {
		t.Fatal("discard must empty the workspace")
	}
	if _, ok := w.Get(x); ok {
		t.Fatal("discarded write still visible")
	}
	w.Write(y, 2)
	if items := w.Items(); len(items) != 1 || items[0] != y {
		t.Fatalf("workspace must be reusable after discard: %v", items)
	}
}

func TestSnapshot(t *testing.T) {
	s := NewStore()
	s.Install(RunID(1), x, 11)
	snap := s.Snapshot([]rt.Item{x, y})
	if snap[x] != 11 || snap[y] != 0 {
		t.Fatalf("snapshot = %v", snap)
	}
	s.Install(RunID(2), x, 22)
	if snap[x] != 11 {
		t.Fatal("snapshot must be a copy")
	}
}

func TestSyntheticValueUniquePerRunItem(t *testing.T) {
	f := func(r1, r2 uint16, i1, i2 uint8) bool {
		a := SyntheticValue(RunID(r1), rt.Item(i1))
		b := SyntheticValue(RunID(r2), rt.Item(i2))
		if r1 == r2 && i1 == i2 {
			return a == b
		}
		return a != b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRollbackLIFOProperty(t *testing.T) {
	// A sequence of in-place writes by one run followed by a rollback must
	// restore the exact pre-run state regardless of the write pattern.
	f := func(writes []uint8) bool {
		s := NewStore()
		s.Install(RunID(1), x, 100)
		s.Install(RunID(1), y, 200)
		before := s.Snapshot([]rt.Item{x, y})
		bv := [2]Version{s.VersionOf(x), s.VersionOf(y)}
		for i, wv := range writes {
			item := rt.Item(int32(wv) % 2)
			s.WriteInPlace(RunID(2), item, Value(i))
		}
		s.Rollback(RunID(2))
		after := s.Snapshot([]rt.Item{x, y})
		return before[x] == after[x] && before[y] == after[y] &&
			bv[0] == s.VersionOf(x) && bv[1] == s.VersionOf(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInstalledString(t *testing.T) {
	got := Installed{Item: 3, Version: 2}.String()
	if got != "3@v2" {
		t.Fatalf("String = %q", got)
	}
}
