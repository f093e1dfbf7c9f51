// Package opcp implements the original Priority Ceiling Protocol of Sha,
// Rajkumar and Lehoczky (the paper's [16]) applied to transactions.
//
// The original PCP predates read/write semantics: every lock is exclusive,
// and each item carries a single static ceiling — the priority of the
// highest-priority transaction that may access it (Aceil). A transaction may
// lock an item iff its priority is strictly higher than the highest ceiling
// among items locked by other transactions. The protocol is single-blocking
// and deadlock-free but ignores read/read compatibility entirely, which is
// why RW-PCP and CCP extend it; it serves here as the most conservative
// baseline.
package opcp

import (
	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Protocol is the original-PCP policy with exclusive locks.
type Protocol struct {
	ceil *txn.Ceilings

	// Scratch for the holder list, reused across Request calls (one
	// instance drives one single-threaded run); a denial's Blockers point
	// into it until the next Request (cc.Decision).
	holdBuf []rt.JobID
}

var _ cc.Protocol = (*Protocol)(nil)
var _ cc.CeilingReporter = (*Protocol)(nil)

// New returns an original-PCP instance.
func New() *Protocol { return &Protocol{} }

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "PCP" }

// Deferred is false: update-in-place, strict 2PL.
func (p *Protocol) Deferred() bool { return false }

// Init captures the ceilings.
func (p *Protocol) Init(_ *txn.Set, ceil *txn.Ceilings) { p.ceil = ceil }

// sysceilFor computes the highest Aceil over items locked (in any mode) by
// jobs other than o (rt.NoJob: by anyone), plus the holders realizing it. The
// holder slice aliases p.holdBuf, valid until the next Request.
func (p *Protocol) sysceilFor(env cc.Env, o rt.JobID) (rt.Priority, []rt.JobID) {
	aceil := p.ceil.AceilTable()
	sys, holders := env.Locks().Ceiling(o, aceil, aceil, p.holdBuf)
	p.holdBuf = holders
	return sys, holders
}

// Request grants iff P_i > Sysceil_i (exclusive-lock PCP rule). The mode is
// recorded as requested so the kernel performs the right data access, but
// compatibility-wise everything behaves exclusively: the ceiling raised by
// any lock is Aceil, which denies every other would-be accessor.
func (p *Protocol) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	sys, holders := p.sysceilFor(env, j.ID)
	if j.BasePri() > sys {
		return cc.Grant("pcp-ok")
	}
	return cc.Block("ceiling", holders...)
}

// SystemCeiling reports the highest Aceil in force over all locked items.
func (p *Protocol) SystemCeiling(env cc.Env) rt.Priority {
	sys, _ := p.sysceilFor(env, rt.NoJob)
	return sys
}
