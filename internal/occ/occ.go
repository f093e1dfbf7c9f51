// Package occ implements optimistic concurrency control with broadcast
// commit (forward validation), the optimistic member of the abort-based
// family the paper cites as [18,19,21] and argues against in Section 2.
//
// Transactions run completely unobstructed: every lock request is granted
// immediately (the lock table only records access, it never conflicts) and
// updates buffer in the private workspace. At commit, the committing
// transaction broadcasts its write set; every still-active transaction that
// has READ one of the written items holds a stale value and is restarted.
// This keeps all histories serializable in commit order — reads observe
// committed versions, and any rw conflict with a later committer kills the
// reader before it can commit out of order.
//
// The protocol is deadlock-free (nothing ever blocks) and priority-blind at
// the data level: a lower-priority committer can wipe out an arbitrarily
// expensive higher-priority reader, and the number of restarts a
// transaction suffers is unbounded — exactly why the paper's Section 2
// rules the abort-based strategies out for hard real-time schedulability
// analysis. The X4 experiment quantifies the restart overhead.
package occ

import (
	"slices"

	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Protocol is the OCC broadcast-commit policy.
type Protocol struct {
	// Scratch for the victim list, reused across commits (one instance
	// drives one single-threaded run); CommitVictims' result points into it
	// until the next call (cc.CommitArbiter).
	victims []rt.JobID
}

var _ cc.Protocol = (*Protocol)(nil)
var _ cc.CommitArbiter = (*Protocol)(nil)

// New returns an OCC-BC instance.
func New() *Protocol { return &Protocol{} }

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "OCC-BC" }

// Deferred is true: updates buffer in the workspace until commit.
func (p *Protocol) Deferred() bool { return true }

// Init is a no-op.
func (p *Protocol) Init(*txn.Set, *txn.Ceilings) {}

// Request always grants: optimistic execution never blocks.
func (p *Protocol) Request(cc.Env, *cc.Job, rt.Item, rt.Mode) cc.Decision {
	return cc.Grant("occ-ok")
}

// CommitVictims implements broadcast commit: every active job that read an
// item the committer wrote is invalidated.
func (p *Protocol) CommitVictims(env cc.Env, j *cc.Job) []rt.JobID {
	p.victims = p.victims[:0]
	if j.WS == nil {
		return p.victims
	}
	written := j.WS.Items()
	for _, other := range env.ActiveJobs() {
		if other == j || (other.Status != cc.Ready && other.Status != cc.Blocked) {
			continue
		}
		if slices.ContainsFunc(written, other.DataRead.Has) {
			p.victims = append(p.victims, other.ID)
		}
	}
	return p.victims
}
