package db

import (
	"math/rand"
	"strings"
	"testing"

	"pcpda/internal/rt"
	"pcpda/internal/testenv"
)

// mapWorkspace is the reference model: Workspace as it was when the pending
// values lived in a Go map beside the first-write order.
type mapWorkspace struct {
	writes map[rt.Item]Value
	order  []rt.Item
}

func newMapWorkspace() *mapWorkspace { return &mapWorkspace{writes: map[rt.Item]Value{}} }

func (w *mapWorkspace) write(x rt.Item, v Value) {
	if _, ok := w.writes[x]; !ok {
		w.order = append(w.order, x)
	}
	w.writes[x] = v
}

// TestWorkspaceVsMapModel drives random writes, reads, discards and installs
// against the map model: an overwrite keeps the item's first-write position,
// and a discarded workspace is reused from empty.
func TestWorkspaceVsMapModel(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		over := WorkspaceOver(make([]rt.Item, 0, 2), make([]Value, 0, 2)) // outgrown below
		for _, w := range []*Workspace{NewWorkspace(), &over} {
			model := newMapWorkspace()
			for step := 0; step < 300; step++ {
				x := rt.Item(rng.Intn(6))
				switch op := rng.Intn(10); {
				case op < 6:
					v := Value(rng.Int63())
					w.Write(x, v)
					model.write(x, v)
				case op < 7:
					w.Discard()
					model = newMapWorkspace()
				default:
					got, own := w.Get(x)
					want, wantOwn := model.writes[x]
					if own != wantOwn || got != want {
						t.Fatalf("seed %d step %d: Get(%d)=(%d,%v) want (%d,%v)", seed, step, x, got, own, want, wantOwn)
					}
				}
				if w.Len() != len(model.writes) {
					t.Fatalf("seed %d step %d: Len=%d want %d", seed, step, w.Len(), len(model.writes))
				}
				items := w.Items()
				if len(items) != len(model.order) {
					t.Fatalf("seed %d step %d: Items=%v want %v", seed, step, items, model.order)
				}
				for i, x := range model.order {
					if items[i] != x {
						t.Fatalf("seed %d step %d: Items=%v want %v", seed, step, items, model.order)
					}
				}
			}
			// Install order and values are the model's.
			s := NewStore()
			installed := w.InstallInto(nil, s, RunID(9))
			if len(installed) != len(model.order) {
				t.Fatalf("seed %d: installed %v want items %v", seed, installed, model.order)
			}
			for i, x := range model.order {
				if installed[i].Item != x {
					t.Fatalf("seed %d: installed %v want items %v", seed, installed, model.order)
				}
				if v, _, _ := s.Read(x); v != model.writes[x] {
					t.Fatalf("seed %d: item %d installed as %d want %d", seed, x, v, model.writes[x])
				}
			}
		}
	}
}

// TestWorkspaceOverNeverWritesPastItsStorage: carved storage is a capacity,
// not a licence — the neighbour in the slab must survive an overflow.
func TestWorkspaceOverNeverWritesPastItsStorage(t *testing.T) {
	items, vals := []rt.Item{9, 9, 9}, []Value{9, 9, 9}
	w := WorkspaceOver(items[0:0:1], vals[0:0:1])
	w.Write(1, 10)
	w.Write(2, 20)
	if items[1] != 9 || vals[1] != 9 {
		t.Fatalf("workspace wrote past its storage: %v %v", items, vals)
	}
	if v, ok := w.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = %d,%v", v, ok)
	}
}

// mapStore is the reference model of the flat store and its undo journals as
// they were when both were Go maps.
type mapStore struct {
	cells map[rt.Item]cell
	undo  map[RunID][]undoRecord
}

func (s *mapStore) writeInPlace(run RunID, x rt.Item, v Value) {
	prev := s.cells[x]
	s.undo[run] = append(s.undo[run], undoRecord{item: x, prev: prev})
	s.cells[x] = cell{val: v, version: prev.version + 1, writer: run}
}

func (s *mapStore) rollback(run RunID) {
	recs := s.undo[run]
	for i := len(recs) - 1; i >= 0; i-- {
		s.cells[recs[i].item] = recs[i].prev
	}
	delete(s.undo, run)
}

// TestStoreUndoInterleavedRuns: in-place runs journal alternately; each is in
// the end rolled back or forgotten, in random order, and new runs keep
// starting in the journals the finished ones leave behind. Values, versions
// and pending-undo counts track the map model throughout, and the journal
// pool stops growing at the number of runs live at once. Runs write disjoint
// items (the strict-2PL precondition Rollback documents).
func TestStoreUndoInterleavedRuns(t *testing.T) {
	const live, itemsPerRun = 3, 4
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		model := &mapStore{cells: map[rt.Item]cell{}, undo: map[RunID][]undoRecord{}}
		next := RunID(1)
		var runs [live]RunID // slot i owns items i*itemsPerRun..
		for i := range runs {
			runs[i], next = next, next+1
		}
		for step := 0; step < 500; step++ {
			i := rng.Intn(live)
			run := runs[i]
			switch op := rng.Intn(10); {
			case op < 7:
				x := rt.Item(i*itemsPerRun + rng.Intn(itemsPerRun))
				v := SyntheticValue(run, x) + Value(step)
				ver := s.WriteInPlace(run, x, v)
				model.writeInPlace(run, x, v)
				if ver != model.cells[x].version {
					t.Fatalf("seed %d step %d: version %d want %d", seed, step, ver, model.cells[x].version)
				}
			case op < 8:
				s.Rollback(run)
				model.rollback(run)
				runs[i], next = next, next+1
			case op < 9:
				s.Forget(run)
				delete(model.undo, run)
				runs[i], next = next, next+1
			default:
				s.Rollback(next + 100) // unknown run: no-op
				s.Forget(next + 100)
			}
			for x := rt.Item(0); x < live*itemsPerRun+2; x++ {
				v, ver, from := s.Read(x)
				if want := model.cells[x]; v != want.val || ver != want.version || from != want.writer {
					t.Fatalf("seed %d step %d: item %d reads (%d,v%d,run %d) want %+v", seed, step, x, v, ver, from, want)
				}
			}
			for _, r := range runs {
				if got, want := s.PendingUndo(r), len(model.undo[r]); got != want {
					t.Fatalf("seed %d step %d: PendingUndo(%d)=%d want %d", seed, step, r, got, want)
				}
			}
		}
		if _, journals := s.Extent(); journals > live {
			t.Fatalf("seed %d: %d journals for %d runs live at once (%d runs served): journals are not recycled", seed, journals, live, next)
		}
	}
}

// TestStoreBoundary: ids outside any catalog read as the initial state and
// grow nothing; a mutation with a negative id is a named panic.
func TestStoreBoundary(t *testing.T) {
	s := NewStore()
	s.InstallVersioned(1, 2, 7, 1) // the version chains exist too
	for _, x := range []rt.Item{-1, rt.NoItem, -1 << 31, 3, 1 << 30} {
		if v, ver, from := s.Read(x); v != 0 || ver != 0 || from != InitRun {
			t.Errorf("Read(%d) = %d,v%d,run %d", x, v, ver, from)
		}
		if s.VersionOf(x) != 0 || s.Snapshot([]rt.Item{x})[x] != 0 {
			t.Errorf("VersionOf/Snapshot(%d) not initial", x)
		}
		if _, _, _, err := s.ReadAt(x, 1); err != nil {
			t.Errorf("ReadAt(%d): %v", x, err)
		}
	}
	if cells, _ := s.Extent(); cells != 3 {
		t.Fatalf("queries grew the store to %d cells", cells)
	}
	for name, fn := range map[string]func(){
		"Install":          func() { s.Install(1, -1, 0) },
		"WriteInPlace":     func() { s.WriteInPlace(1, -1, 0) },
		"InstallVersioned": func() { s.InstallVersioned(1, -1, 0, 1) },
		"Workspace.Write":  func() { NewWorkspace().Write(-1, 0) },
	} {
		func() {
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.HasPrefix(msg, "rt: negative item id") {
					t.Errorf("%s(-1): want the named rt.Item.Index panic, got %v", name, msg)
				}
			}()
			fn()
		}()
	}
	if s.PendingUndo(1) != 0 {
		t.Fatal("a refused WriteInPlace left a journal entry")
	}
}

// TestWorkspaceWarmOpsAllocateNothing: once a workspace has held its
// high-water write set, Write, Get and Discard cost no allocation.
func TestWorkspaceWarmOpsAllocateNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	w := NewWorkspace()
	cycle := func() {
		for x := rt.Item(0); x < 4; x++ {
			w.Write(x, Value(x))
			w.Write(x, Value(x)+1)
		}
		if v, ok := w.Get(2); !ok || v != 3 {
			t.Fatal("Get wrong")
		}
		w.Discard()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm Write/Get/Discard allocate %v per cycle, want 0", allocs)
	}
}
