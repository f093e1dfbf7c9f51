// Package ccp implements the Convex Ceiling Protocol of Nakazato and Lin
// (the paper's [13]) — RW-PCP's ceilings with pre-commit unlocking.
//
// Reconstruction note (see DESIGN.md §3/§4): the original CCP paper is not
// available offline; this implementation reproduces the behaviour the
// PCP-DA paper attributes to CCP — "CCP reduces the transaction blocking by
// unlocking the data item with the highest priority ceiling before the end
// of the transaction ... when a transaction does not need them any more" —
// in a form that provably preserves serializability in this kernel: once a
// transaction completes its last lock step (its data accesses are over and
// only trailing computation remains), all of its READ locks are released
// immediately instead of at commit. Write locks are held to commit so that
// abort-based terminations (firm deadlines) can never expose dirty data.
//
// Releasing read locks at the last lock step is safe because the
// transaction performs no further data operations: no serialization-graph
// edge into the transaction can be created after the release that closes a
// cycle with the rw edges out of it. The effect the PCP-DA paper relies on
// is preserved: held read ceilings drop earlier than under RW-PCP, so CCP
// blocks strictly no more than RW-PCP and strictly less whenever a
// transaction has trailing computation after its final data access.
package ccp

import (
	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/rwpcp"
	"pcpda/internal/txn"
)

// Protocol is the CCP policy: RW-PCP admission plus early read-lock release.
type Protocol struct {
	*rwpcp.Protocol
}

var _ cc.Protocol = (*Protocol)(nil)
var _ cc.CeilingReporter = (*Protocol)(nil)
var _ cc.EarlyReleaser = (*Protocol)(nil)

// New returns a CCP instance.
func New() *Protocol { return &Protocol{Protocol: rwpcp.New()} }

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "CCP" }

// EarlyRelease drops every read lock as soon as the job has no lock steps
// left to execute.
func (p *Protocol) EarlyRelease(env cc.Env, j *cc.Job) []rt.Item {
	for _, s := range j.Tmpl.Steps[j.StepIdx:] {
		if s.Kind != txn.Compute {
			return nil
		}
	}
	return env.Locks().ReadHeldBy(j.ID)
}
