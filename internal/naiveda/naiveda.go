// Package naiveda implements the strawman protocol of the paper's Section 7
// (Example 5): PCP-DA's write rule (LC1) combined with the two "sufficient
// for single-blocking" read conditions
//
//	(1) P_i > Sysceil_i
//	(2) P_i ≥ HPW(x)
//
// without LC3/LC4's "x ∉ WriteSet(T*)" and No_Rlock safeguards. The paper
// shows condition (2) alone cannot avoid deadlocks: on Example 5 the two
// transactions read-lock each other's write targets and then block each
// other. This package exists so the experiments and tests can demonstrate
// the deadlock and thereby justify the derivation of LC3 and LC4.
package naiveda

import (
	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Protocol is the condition-(2) strawman.
type Protocol struct {
	ceil *txn.Ceilings

	// Scratch for the holder list, reused across Request calls (one
	// instance drives one single-threaded run); a denial's Blockers point
	// into it until the next Request (cc.Decision).
	holdBuf []rt.JobID
}

var _ cc.Protocol = (*Protocol)(nil)

// New returns a naive-DA instance.
func New() *Protocol { return &Protocol{} }

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "naive-DA" }

// Deferred is true: same update-in-workspace model as PCP-DA.
func (p *Protocol) Deferred() bool { return true }

// Init captures the ceilings.
func (p *Protocol) Init(_ *txn.Set, ceil *txn.Ceilings) { p.ceil = ceil }

// Request implements LC1 for writes and conditions (1)/(2) for reads.
func (p *Protocol) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	locks := env.Locks()
	if m == rt.Write {
		if locks.NoRlockByOthers(x, j.ID) {
			return cc.Grant("LC1")
		}
		p.holdBuf = p.holdBuf[:0]
		locks.EachReader(x, func(id rt.JobID) bool {
			if id != j.ID {
				p.holdBuf = append(p.holdBuf, id)
			}
			return true
		})
		return cc.Block("rw-conflict", p.holdBuf...)
	}

	pri := j.BasePri()
	sys, holders := p.sysceilFor(env, j)
	if pri > sys {
		return cc.Grant("cond1")
	}
	if pri >= p.ceil.Wceil(x) {
		return cc.Grant("cond2")
	}
	return cc.Block("ceiling", holders...)
}

// sysceilFor computes Sysceil_i (highest Wceil over items read-locked by
// others) and the holders realizing it. The holder slice aliases p.holdBuf
// and is valid until the next Request.
func (p *Protocol) sysceilFor(env cc.Env, j *cc.Job) (rt.Priority, []rt.JobID) {
	sys, holders := env.Locks().Ceiling(j.ID, p.ceil.WceilTable(), nil, p.holdBuf)
	p.holdBuf = holders
	return sys, holders
}
