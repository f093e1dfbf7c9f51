// Package pip implements plain two-phase locking with the basic priority
// inheritance protocol ([14] in the paper): read/write locks with classical
// compatibility, a blocked transaction's priority inherited by the lock
// holders, and no priority ceilings at all.
//
// PIP bounds each individual inversion but suffers the two problems that
// motivated the ceiling protocols (paper Section 1): chained blocking (a
// high-priority transaction can be blocked once per lower-priority lock
// holder) and deadlock (the kernel's waits-for detector fires on it, which
// the tests and experiments rely on).
package pip

import (
	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Protocol is the 2PL + priority inheritance policy.
type Protocol struct {
	// Scratch for the conflict list, reused across Request calls (one
	// instance drives one single-threaded run); a denial's Blockers point
	// into it until the next Request (cc.Decision).
	conflicts []rt.JobID
}

var _ cc.Protocol = (*Protocol)(nil)

// New returns a PIP instance.
func New() *Protocol { return &Protocol{} }

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "2PL-PIP" }

// Deferred is false: update-in-place, strict 2PL.
func (p *Protocol) Deferred() bool { return false }

// Init is a no-op: PIP needs no static preparation.
func (p *Protocol) Init(*txn.Set, *txn.Ceilings) {}

// Request applies classical lock compatibility: a read conflicts with
// foreign write locks, a write with any foreign lock.
func (p *Protocol) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	p.conflicts = Conflicts(env, j, x, m, p.conflicts[:0])
	if len(p.conflicts) == 0 {
		return cc.Grant("2pl-ok")
	}
	return cc.Block("2pl-conflict", p.conflicts...)
}

// Conflicts appends to dst the jobs other than j whose locks on x are
// incompatible with mode m under classical read/write locking: the write
// holders, and for a write request the read holders too. A job holding x in
// both modes is appended twice.
func Conflicts(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode, dst []rt.JobID) []rt.JobID {
	other := func(id rt.JobID) bool {
		if id != j.ID {
			dst = append(dst, id)
		}
		return true
	}
	locks := env.Locks()
	locks.EachWriter(x, other)
	if m == rt.Write {
		locks.EachReader(x, other)
	}
	return dst
}
