package history

import (
	"fmt"

	"pcpda/internal/db"
	"pcpda/internal/rt"
)

// Audit validates a deferred-update log one operation at a time, in
// O(items + live reads) memory, so a log that is being forgotten behind it
// (Recorder) is still checked in full. It keeps, per item, the newest
// committed (version, installer), and per live run the versions it read:
//
//   - a read must observe the newest committed version (no dirty read, so
//     every wr edge points forward in commit order);
//   - at commit, every version the run read must still be the newest (no
//     later version was committed in between, so no rw edge points backward);
//   - a commit's installs must extend each item's chain by exactly one (ww
//     order is commit order).
//
// Every edge of the serialization graph then runs forward in commit order,
// which is Check's Serializable ∧ CommitOrderOK verdict (Theorem 3) — for
// every transaction ever committed, not only those still in a window.
// Commit order here is log order, and writes are installs recorded with
// their commit (deferred update); on such logs Check flags ⇒ Audit flags
// (audit_test.go holds that differentially). The chain rule has no
// counterpart in Check, so the audit may be stricter, never laxer.
//
// Live runs are indexed by template id — the manager admits one live
// instance per template — so a second live run of a template is itself a
// violation. Violations are counted, and the first few latched with their
// detail. The zero value is ready to use; tables grow to the log's item
// and template range in the first operations and are reused thereafter.
type Audit struct {
	heads   []itemHead // per item: newest committed version
	slots   []auditRun // per template id: its live run, if any
	commits uint64
	flagged uint64
	latched []Violation
}

// maxLatched bounds the violations kept with their detail.
const maxLatched = 8

type itemHead struct {
	ver db.Version
	by  db.RunID
}

type itemVer struct {
	item rt.Item
	ver  db.Version
}

type auditRun struct {
	run    db.RunID
	live   bool
	reads  []itemVer // versions observed, each (item, version) once
	writes []itemVer // installs staged until the run's CommitOp
}

// Commits returns how many commits the audit has validated.
func (a *Audit) Commits() uint64 { return a.commits }

// Flagged returns how many violations the audit has seen, ever.
func (a *Audit) Flagged() uint64 { return a.flagged }

// Violations returns the first violations seen (at most a handful), with
// their detail; Flagged counts them all.
func (a *Audit) Violations() []Violation { return a.latched }

// Replay audits a whole log.
func Replay(ops []Op) *Audit {
	a := &Audit{}
	for _, op := range ops {
		a.Observe(op)
	}
	return a
}

// Observe feeds the audit the next operation of the log.
//
//pcpda:alloc-free
func (a *Audit) Observe(op Op) {
	if op.Txn < 0 || op.Item < 0 {
		a.flag("malformed", op, 0, db.NoRun)
		return
	}
	if int(op.Txn) >= len(a.slots) || int(op.Item) >= len(a.heads) {
		a.grow(int(op.Txn)+1, int(op.Item)+1)
	}
	s := &a.slots[op.Txn]
	if !s.live || s.run != op.Run {
		if s.live {
			a.flag("live-overlap", op, 0, s.run)
		}
		s.run, s.live = op.Run, true
		s.reads, s.writes = s.reads[:0], s.writes[:0]
	}
	switch op.Kind {
	case ReadOp:
		if op.From == op.Run {
			return // own workspace write: no version observed
		}
		if h := a.heads[op.Item]; op.Ver != h.ver || op.From != h.by {
			a.flag("dirty-read", op, h.ver, h.by)
		}
		s.reads = addOnce(s.reads, op.Item, op.Ver)
	case WriteOp:
		s.writes = addOnce(s.writes, op.Item, op.Ver) // installed by the run's CommitOp
	case CommitOp:
		for _, r := range s.reads {
			if h := a.heads[r.item]; h.ver > r.ver { // a version ahead of the chain was flagged when read
				op.Item, op.Ver = r.item, r.ver
				a.flag("commit-order", op, h.ver, h.by)
			}
		}
		for _, w := range s.writes {
			h := &a.heads[w.item]
			if w.ver != h.ver+1 {
				op.Item, op.Ver = w.item, w.ver
				a.flag("version-chain", op, h.ver, h.by)
			}
			h.ver, h.by = w.ver, op.Run
		}
		a.commits++
		s.live = false
	case AbortOp:
		s.live = false
	}
}

// grow sizes the tables to at least slots templates and heads items.
func (a *Audit) grow(slots, heads int) {
	if n := slots - len(a.slots); n > 0 {
		a.slots = append(a.slots, make([]auditRun, n)...)
	}
	if n := heads - len(a.heads); n > 0 {
		a.heads = append(a.heads, make([]itemHead, n)...)
	}
}

// addOnce appends (x, ver) unless the list already holds it. The lists live
// in the template slot and keep their capacity from one run to the next, so
// this allocates only until a slot has seen its template's widest run.
func addOnce(list []itemVer, x rt.Item, ver db.Version) []itemVer {
	v := itemVer{x, ver}
	for _, have := range list {
		if have == v {
			return list
		}
	}
	return append(list, v)
}

// flag counts a violation and latches the first few with their detail. op
// carries the offending run, item and version; (ver, by) the committed
// state — or, for live-overlap, the run already live — it was judged against.
func (a *Audit) flag(kind string, op Op, ver db.Version, by db.RunID) {
	a.flagged++
	if len(a.latched) >= maxLatched {
		return
	}
	var detail string
	switch kind {
	case "dirty-read":
		detail = fmt.Sprintf("run %d read item %d v%d from run %d, but the newest committed version is v%d from run %d",
			op.Run, op.Item, op.Ver, op.From, ver, by)
	case "commit-order":
		detail = fmt.Sprintf("run %d commits having read item %d v%d, but v%d from run %d was committed since (rw edge against commit order)",
			op.Run, op.Item, op.Ver, ver, by)
	case "version-chain":
		detail = fmt.Sprintf("run %d installs item %d v%d over committed v%d from run %d (ww order must extend the chain by one)",
			op.Run, op.Item, op.Ver, ver, by)
	case "live-overlap":
		detail = fmt.Sprintf("run %d of template %d recorded while run %d of the same template is live", op.Run, op.Txn, by)
	default:
		detail = fmt.Sprintf("operation %s of run %d has negative template %d or item %d", op.Kind, op.Run, op.Txn, op.Item)
	}
	a.latched = append(a.latched, Violation{Kind: kind, Detail: detail})
}
