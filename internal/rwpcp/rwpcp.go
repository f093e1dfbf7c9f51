// Package rwpcp implements the Read/Write Priority Ceiling Protocol of Sha,
// Rajkumar and Lehoczky (the paper's [17]) — the baseline PCP-DA is measured
// against.
//
// RW-PCP combines strict two-phase locking with priority ceilings under the
// update-in-place model. Each item x carries two static ceilings:
//
//	Wceil(x): priority of the highest-priority transaction that may write x.
//	Aceil(x): priority of the highest-priority transaction that may read or
//	          write x.
//
// At runtime the r/w ceiling RWceil(x) is Aceil(x) while x is write-locked
// and Wceil(x) while x is (only) read-locked. A transaction T_i may lock x
// (in either mode) iff its priority is strictly higher than Sysceil_i, the
// highest RWceil over all items locked by transactions other than T_i.
// This single test subsumes explicit read/write conflict checking (paper
// Section 3) at the price of the ceiling and conflict blockings PCP-DA
// eliminates.
package rwpcp

import (
	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Protocol is the RW-PCP policy.
type Protocol struct {
	ceil *txn.Ceilings

	// Scratch for the holder list, reused across Request calls (one
	// instance drives one single-threaded run); a denial's Blockers point
	// into it until the next Request (cc.Decision).
	holdBuf []rt.JobID
}

var _ cc.Protocol = (*Protocol)(nil)
var _ cc.CeilingReporter = (*Protocol)(nil)

// New returns an RW-PCP instance.
func New() *Protocol { return &Protocol{} }

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "RW-PCP" }

// Deferred is false: RW-PCP uses the update-in-place model.
func (p *Protocol) Deferred() bool { return false }

// Init captures the ceilings.
func (p *Protocol) Init(_ *txn.Set, ceil *txn.Ceilings) { p.ceil = ceil }

// sysceilFor computes Sysceil_o — the highest RWceil over items locked by
// jobs other than o (rt.NoJob: by anyone) — and the jobs holding the lock(s)
// that realize it.
//
// The walk reads the ceiling off each LOCK (a read lock raises Wceil(x), a
// write lock Aceil(x)) where the package comment's definition reads it off
// each ITEM (Aceil(x) once anyone write-locks x). For the ceiling the two are the same
// number in every state: a read lock on a write-locked item adds Wceil(x) ≤
// Aceil(x), which the write lock already contributes. For the holder set
// they agree on every state the protocol can reach, because under RW-PCP's
// own admission rule no item is ever read-locked and write-locked by
// different transactions (the would-be second locker always fails the
// ceiling test against the first), so an item's RWceil is realized exactly
// by the locks its holders actually hold. The holder slice aliases p.holdBuf
// and is valid until the next Request.
func (p *Protocol) sysceilFor(env cc.Env, o rt.JobID) (rt.Priority, []rt.JobID) {
	sys, holders := env.Locks().Ceiling(o, p.ceil.WceilTable(), p.ceil.AceilTable(), p.holdBuf)
	p.holdBuf = holders
	return sys, holders
}

// Request implements RW-PCP's single locking condition P_i > Sysceil_i.
// Original priorities are used, consistent with the static ceiling
// definitions (inheritance only affects dispatch).
func (p *Protocol) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	sys, holders := p.sysceilFor(env, j.ID)
	if j.BasePri() > sys {
		return cc.Grant("ceiling-ok")
	}
	return cc.Block("ceiling", holders...)
}

// SystemCeiling reports the highest RWceil in force over all locked items
// (the Max_Sysceil track of Figures 3 and 5).
func (p *Protocol) SystemCeiling(env cc.Env) rt.Priority {
	sys, _ := p.sysceilFor(env, rt.NoJob)
	return sys
}
