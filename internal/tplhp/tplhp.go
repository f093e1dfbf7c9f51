// Package tplhp implements High-Priority two-phase locking (2PL-HP, Abbott
// and Garcia-Molina), the representative of the abortion-based strategies
// the paper cites as [18,19,21]: data conflicts are resolved in favour of
// the higher-priority transaction by restarting lower-priority lock holders.
//
// On a conflicting request, every conflicting holder with lower (original)
// priority is aborted and restarted; if conflicting holders with higher
// priority remain, the requester waits for them. Because every wait is for
// a strictly higher-priority transaction, the waits-for graph cannot cycle,
// so 2PL-HP is deadlock-free — but, as the paper argues in Section 2, the
// number of restarts a lower-priority transaction suffers is unbounded,
// which is why the abort-based family cannot provide a worst-case
// schedulability analysis. The restart-count experiments (X4) quantify it.
package tplhp

import (
	"slices"

	"pcpda/internal/cc"
	"pcpda/internal/pip"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Protocol is the 2PL-HP policy.
type Protocol struct {
	// Scratch reused across Request calls (one instance drives one
	// single-threaded run); a decision's Blockers and AbortVictims point
	// into it until the next Request (cc.Decision).
	conflicts, victims, waits []rt.JobID
}

var _ cc.Protocol = (*Protocol)(nil)

// New returns a 2PL-HP instance.
func New() *Protocol { return &Protocol{} }

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "2PL-HP" }

// Deferred is false: update-in-place (aborts roll back via the store's undo
// journal).
func (p *Protocol) Deferred() bool { return false }

// Init is a no-op.
func (p *Protocol) Init(*txn.Set, *txn.Ceilings) {}

// Request resolves conflicts by priority: lower-priority conflicting
// holders become abort victims; higher-priority ones make the requester
// wait. The kernel aborts each victim it is handed, so a holder of x in both
// modes is named once.
func (p *Protocol) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	p.conflicts = pip.Conflicts(env, j, x, m, p.conflicts[:0])
	if len(p.conflicts) == 0 {
		return cc.Grant("2pl-ok")
	}
	p.victims, p.waits = p.victims[:0], p.waits[:0]
	for _, id := range p.conflicts {
		h := env.Job(id)
		switch {
		case h == nil:
		case h.BasePri() >= j.BasePri():
			p.waits = append(p.waits, id)
		case !slices.Contains(p.victims, id):
			p.victims = append(p.victims, id)
		}
	}
	if len(p.waits) == 0 {
		return cc.Decision{Granted: true, Rule: "hp-restart", AbortVictims: p.victims}
	}
	return cc.Decision{Granted: false, Rule: "hp-wait", Blockers: p.waits, AbortVictims: p.victims}
}
