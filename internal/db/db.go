// Package db implements the memory-resident database underneath the
// concurrency-control protocols.
//
// Two write models coexist, matching the paper's Section 4:
//
//   - update-in-place: a write takes effect immediately (RW-PCP, CCP, the
//     original PCP, PIP and 2PL-HP). Each in-place write is journaled so an
//     abort-based protocol (2PL-HP) can roll it back.
//   - update-in-workspace: writes are buffered in the writing job's private
//     Workspace and installed atomically at commit (PCP-DA's deferred
//     updates). Readers always see committed/installed state; a job sees its
//     own workspace writes.
//
// Every installed value carries a monotonically increasing per-item version
// and the run that produced it, which is exactly what the serializability
// checker in package history consumes.
package db

import (
	"fmt"
	"slices"
	"sync/atomic"

	"pcpda/internal/rt"
)

// Value is the content of a data item. Simulations write synthetic values
// derived from the writing run so that reads-from relationships are
// observable in final states.
type Value int64

// RunID identifies one execution attempt of a job. A job that is aborted
// and restarted gets a fresh RunID for the retry, so the history can tell
// the attempts apart. Run 0 ("the initializer") denotes the initial database
// state.
type RunID int64

// InitRun is the pseudo-run that wrote every item's initial version.
const InitRun RunID = 0

// NoRun is the sentinel for "no run".
const NoRun RunID = -1

// Version numbers the successive installed states of one item, starting at
// 0 for the initial state.
type Version int32

// cell is the stored state of one item.
type cell struct {
	val     Value
	version Version
	writer  RunID
}

// undoRecord remembers the state an in-place write replaced.
type undoRecord struct {
	item rt.Item
	prev cell
}

// journal is the undo log of one in-place run.
type journal struct {
	run  RunID
	recs []undoRecord
}

// Store is the memory-resident database.
type Store struct {
	// cells is indexed by item id and reaches one past the highest item ever
	// written; an item beyond it is in the initial state.
	cells []cell
	// undo[:live] are the journals of the in-place runs not yet forgotten or
	// rolled back, found by a scan (run ids are unbounded, the runs journaling
	// at one instant are at most the live jobs); undo[live:] are finished
	// journals kept for their storage.
	undo []journal
	live int

	// Multiversion read support (mvcc.go): one version ring per item, by
	// item id. The slice grows copy-on-write under the writer lock; a reader
	// holding an old one still sees new versions, the rings being shared.
	chains atomic.Pointer[[]*chainHead]
}

// NewStore returns a store where every item implicitly holds Value(0) at
// Version 0, written by InitRun.
func NewStore() *Store { return &Store{} }

// cell returns x's stored state; an id outside the store (never written, or
// not an item id at all) reads as the initial state.
func (s *Store) cell(x rt.Item) cell {
	if x < 0 || int(x) >= len(s.cells) {
		return cell{}
	}
	return s.cells[x]
}

// Read returns the current value of x together with its version and the run
// that installed it. Unwritten items read as the initial state.
func (s *Store) Read(x rt.Item) (Value, Version, RunID) {
	c := s.cell(x)
	return c.val, c.version, c.writer
}

// Install writes v into x on behalf of run, bumping the version. It is used
// both for commit-time installation of a workspace and (via WriteInPlace)
// for immediate updates. A negative item id panics (rt.Item.Index).
func (s *Store) Install(run RunID, x rt.Item, v Value) Version {
	i := x.Index()
	if i >= len(s.cells) {
		s.cells = append(s.cells, make([]cell, i+1-len(s.cells))...)
	}
	c := &s.cells[i]
	c.val, c.writer = v, run
	c.version++
	return c.version
}

// journalOf returns run's journal among the live ones, nil when run has
// journaled nothing.
func (s *Store) journalOf(run RunID) *journal {
	for i := range s.undo[:s.live] {
		if s.undo[i].run == run {
			return &s.undo[i]
		}
	}
	return nil
}

// WriteInPlace applies an immediate (update-in-place) write and journals the
// previous state so Rollback(run) can undo it. A negative item id panics
// (rt.Item.Index) before anything is journaled.
func (s *Store) WriteInPlace(run RunID, x rt.Item, v Value) Version {
	x.Index()
	j := s.journalOf(run)
	if j == nil {
		if s.live == len(s.undo) {
			s.undo = append(s.undo, journal{})
		}
		j = &s.undo[s.live]
		j.run = run
		s.live++
	}
	j.recs = append(j.recs, undoRecord{item: x, prev: s.cell(x)})
	return s.Install(run, x, v)
}

// Rollback undoes every in-place write made by run, in reverse order, and
// discards its journal. Rolling back a run with no journal is a no-op.
// Under strict two-phase locking no other run can have overwritten the
// journaled items in the meantime, so restoration is exact; the checker in
// package history would flag any dirty read regardless.
func (s *Store) Rollback(run RunID) {
	if j := s.journalOf(run); j != nil {
		for r := len(j.recs) - 1; r >= 0; r-- {
			s.cells[j.recs[r].item] = j.recs[r].prev
		}
		s.Forget(run)
	}
}

// Forget discards run's undo journal (called on successful commit of an
// in-place run): emptied, it swaps places with the last live one.
func (s *Store) Forget(run RunID) {
	if j := s.journalOf(run); j != nil {
		s.live--
		last := &s.undo[s.live]
		*j, *last = *last, journal{recs: j.recs[:0]}
	}
}

// PendingUndo returns the number of journaled writes for run (for tests and
// invariant checks).
func (s *Store) PendingUndo(run RunID) int {
	if j := s.journalOf(run); j != nil {
		return len(j.recs)
	}
	return 0
}

// Extent returns how far the store's slices have grown: item cells, and undo
// journals live or retired. A long-running caller asserts both flat.
func (s *Store) Extent() (cells, journals int) { return len(s.cells), len(s.undo) }

// Snapshot returns a copy of the current values of the given items.
func (s *Store) Snapshot(items []rt.Item) map[rt.Item]Value {
	out := make(map[rt.Item]Value, len(items))
	for _, x := range items {
		out[x] = s.cell(x).val
	}
	return out
}

// VersionOf returns the current version of x.
func (s *Store) VersionOf(x rt.Item) Version { return s.cell(x).version }

// Workspace is a job's private update buffer under the update-in-workspace
// model: "before a transaction commits, it reads and updates data items only
// in its private workspace, and then data items are written into the
// database only upon successful commit."
//
// The buffer is two parallel slices in first-write order, searched linearly:
// a job writes only its template's declared WriteSet, and no write set in
// this tree exceeds four items (every workload.Config sets OpsMax <= 4, the
// paper's examples write at most two). The zero value is an empty workspace.
type Workspace struct {
	order []rt.Item
	vals  []Value // vals[i] is the pending value of order[i]
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// WorkspaceOver returns an empty workspace that buffers in the storage of
// order and vals; outgrowing it reallocates, never writes past it.
func WorkspaceOver(order []rt.Item, vals []Value) Workspace {
	return Workspace{order: order[:0], vals: vals[:0]}
}

// Write buffers v as the pending update of x. A negative item id panics
// (rt.Item.Index): it could never be installed.
func (w *Workspace) Write(x rt.Item, v Value) {
	if i := slices.Index(w.order, x); i >= 0 {
		w.vals[i] = v
		return
	}
	x.Index()
	w.order = append(w.order, x)
	w.vals = append(w.vals, v)
}

// Get returns the buffered value of x, if any (a job reads its own writes).
//
//pcpda:alloc-free
func (w *Workspace) Get(x rt.Item) (Value, bool) {
	if i := slices.Index(w.order, x); i >= 0 {
		return w.vals[i], true
	}
	return 0, false
}

// Len returns the number of distinct buffered items.
func (w *Workspace) Len() int { return len(w.order) }

// Items returns the buffered items in first-write order: the workspace's own
// list, valid until the next Write or Discard, which the caller must not
// modify.
func (w *Workspace) Items() []rt.Item { return w.order }

// InstallInto atomically applies the workspace to the store on behalf of
// run, appending the installed (item, version) pairs to dst (which the
// kernel's commit path reuses) in first-write order.
func (w *Workspace) InstallInto(dst []Installed, s *Store, run RunID) []Installed {
	for i, x := range w.order {
		dst = append(dst, Installed{Item: x, Version: s.Install(run, x, w.vals[i])})
	}
	return dst
}

// Discard empties the workspace (abort path), keeping its storage.
//
//pcpda:alloc-free
func (w *Workspace) Discard() {
	w.order = w.order[:0]
	w.vals = w.vals[:0]
}

// Installed records one commit-time installation.
type Installed struct {
	Item    rt.Item
	Version Version
}

// SyntheticValue derives the value a run writes into an item: unique per
// (run, item) so final-state checks can identify the last writer.
func SyntheticValue(run RunID, x rt.Item) Value {
	return Value(int64(run)<<20 | int64(x)&0xfffff)
}

// String renders an Installed pair for diagnostics.
func (i Installed) String() string {
	return fmt.Sprintf("%d@v%d", int(i.Item), int(i.Version))
}
