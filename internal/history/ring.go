package history

import (
	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// RingCap is how many of the newest operations a Recorder retains
// (2.6 MB of Op). It is a constant on purpose: what a long-running manager
// may keep is a property of the design, not a knob.
const RingCap = 1 << 16

// Recorder is the live manager's history: the same five record calls as
// History, feeding a fixed-capacity window of the newest RingCap operations
// (the flight recorder, and what the batch checker still sees) and a
// continuous Audit that validates every transaction at its own commit, so
// what the window forgets has already been checked. Memory is
// O(RingCap + items + live reads) at any uptime.
//
// Dropping an operation — by eviction or by Reset — advances the low-water
// run id past its run (History.base), so a snapshot's Check treats a reader
// of a dropped run's version as reading validated state rather than as a
// dirty read.
//
// A Recorder is not safe for concurrent use; the manager guards it with its
// mutex.
type Recorder struct {
	ops     []Op     // the window: grown until RingCap, then overwritten oldest-first
	head    int      // index of the oldest retained op once the window is full
	base    db.RunID // low-water run id, handed to snapshots as History.base
	evicted uint64   // ops no longer retained (pushed out, or discarded by Reset)
	audit   Audit
}

// NewRecorder returns an empty recorder. The window grows with use, so a
// short-lived manager never pays for the full ring.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin records the start of a run.
func (r *Recorder) Begin(t rt.Ticks, run db.RunID, id txn.ID) {
	r.record(Op{Time: t, Run: run, Txn: id, Kind: BeginOp})
}

// Read records that run observed version ver of x, installed by from.
func (r *Recorder) Read(t rt.Ticks, run db.RunID, id txn.ID, x rt.Item, ver db.Version, from db.RunID) {
	r.record(Op{Time: t, Run: run, Txn: id, Kind: ReadOp, Item: x, Ver: ver, From: from})
}

// Write records that run installed version ver of x.
func (r *Recorder) Write(t rt.Ticks, run db.RunID, id txn.ID, x rt.Item, ver db.Version) {
	r.record(Op{Time: t, Run: run, Txn: id, Kind: WriteOp, Item: x, Ver: ver})
}

// Commit records a successful commit.
func (r *Recorder) Commit(t rt.Ticks, run db.RunID, id txn.ID) {
	r.record(Op{Time: t, Run: run, Txn: id, Kind: CommitOp})
}

// Abort records an abort.
func (r *Recorder) Abort(t rt.Ticks, run db.RunID, id txn.ID) {
	r.record(Op{Time: t, Run: run, Txn: id, Kind: AbortOp})
}

func (r *Recorder) record(op Op) {
	r.push(op)
	r.audit.Observe(op)
}

// push retains op, evicting the oldest retained operation once the window
// is full.
//
//pcpda:alloc-free
func (r *Recorder) push(op Op) {
	if len(r.ops) < RingCap {
		r.grow(op)
		return
	}
	old := &r.ops[r.head]
	if old.Run >= r.base {
		r.base = old.Run + 1
	}
	*old = op
	r.head = (r.head + 1) % RingCap
	r.evicted++
}

// grow appends op while the window is still filling, doubling the backing
// array up to exactly RingCap.
func (r *Recorder) grow(op Op) {
	if len(r.ops) == cap(r.ops) {
		n := min(max(2*cap(r.ops), 256), RingCap)
		r.ops = append(make([]Op, 0, n), r.ops...)
	}
	r.ops = append(r.ops, op)
}

// Reset discards the retained window, keeping its allocation and advancing
// the low-water mark past every run in it. The audit is continuous and is
// not reset.
func (r *Recorder) Reset() {
	for i := range r.ops {
		if run := r.ops[i].Run; run >= r.base {
			r.base = run + 1
		}
	}
	r.evicted += uint64(len(r.ops))
	r.ops = r.ops[:0]
	r.head = 0
}

// Retained returns how many operations the window holds (at most RingCap).
func (r *Recorder) Retained() int { return len(r.ops) }

// Evicted returns how many recorded operations are no longer retained:
// evicted by newer ones or discarded by Reset.
func (r *Recorder) Evicted() uint64 { return r.evicted }

// Audit returns the continuous audit fed by the record calls.
func (r *Recorder) Audit() *Audit { return &r.audit }

// Snapshot returns the retained window as a linear History, oldest
// operation first, carrying the low-water mark so that Check and
// CheckSnapshot report no violation the full log does not have.
func (r *Recorder) Snapshot() *History { return r.Tail(len(r.ops)) }

// Tail is Snapshot restricted to the newest n retained operations; the
// retained operations it leaves out count as evicted.
func (r *Recorder) Tail(n int) *History {
	n = max(0, min(n, len(r.ops)))
	h := &History{Ops: make([]Op, n), base: r.base}
	if n == 0 {
		return h
	}
	skip := len(r.ops) - n
	for i := 0; i < skip; i++ {
		if run := r.ops[(r.head+i)%len(r.ops)].Run; run >= h.base {
			h.base = run + 1
		}
	}
	k := copy(h.Ops, r.ops[(r.head+skip)%len(r.ops):])
	copy(h.Ops[k:], r.ops)
	return h
}
