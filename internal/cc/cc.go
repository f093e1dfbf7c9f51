// Package cc defines the contract between the scheduling kernel (package
// sched) and the concurrency-control protocols (pcpda, rwpcp, ccp, opcp,
// pip, tplhp, naiveda).
//
// The kernel owns jobs, the CPU, the lock table, the database and the
// history; a Protocol owns only the admission policy: given a lock request
// it answers "granted" (possibly after aborting victims) or "blocked by
// these jobs". What is identical across protocols, which keeps every
// protocol comparison apples-to-apples, is written once here over Env and
// called by both engines, the kernel and the live manager (package rtm): the
// transition — Apply, one request's outcome; Wait, a block, which is Apply's
// denial and the manager's commit wait; Retire, a job leaving — the rule,
// Inherit, run wherever a transition reports a change; and the two checks,
// WaitCycle (the kernel's deadlock verdict, the manager's cycle breaker) and
// CheckState (the kernel's Paranoid mode, the manager's CheckInvariants).
// Data movement (store, workspace, history, trace) stays with each engine.
package cc

import (
	"pcpda/internal/db"
	"pcpda/internal/lock"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Status is a job's lifecycle state.
type Status uint8

const (
	// Ready: released, not blocked, competing for the CPU.
	Ready Status = iota
	// Blocked: waiting for a lock grant.
	Blocked
	// Done: committed.
	Done
	// Aborted: terminated without restart (firm deadline policy).
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	case Aborted:
		return "aborted"
	}
	return "?"
}

// Job is one released instance of a periodic transaction, including its
// runtime execution state. The engine that runs it manages every field, the
// lock and blocking state through Apply, Wait and Retire; protocols read
// them (notably Tmpl's declared write set and DataRead) but must not mutate
// them. DataRead, WS and the Blockers backing are working state the engine
// provides only while the job is live: the kernel lends them from a box it
// takes back when the job leaves, setting the three to nil, and the manager
// keeps one set per template slot.
type Job struct {
	ID          rt.JobID
	Run         db.RunID // current attempt; changes on restart
	Tmpl        *txn.Template
	Release     rt.Ticks
	AbsDeadline rt.Ticks // 0 = no deadline

	// Execution progress.
	StepIdx  int      // index into Tmpl.Steps
	StepDone rt.Ticks // ticks executed within the current step
	HasLock  bool     // current lock step's lock already acquired
	Status   Status

	// Scheduling.
	RunPri rt.Priority // current (possibly inherited) priority

	// Data state.
	DataRead *rt.ItemSet   // the paper's DataRead(T_i): items read so far
	WS       *db.Workspace // non-nil under deferred-update protocols

	// Blocking state (valid while Status == Blocked), written by Wait:
	// Blockers is a set, ascending and without repeats.
	BlockedOn   rt.Item
	BlockedMode rt.Mode
	Blockers    []rt.JobID
	// EverBlockedBy accumulates every distinct job that ever appeared in
	// Blockers — the evidence the single-blocking property tests examine.
	EverBlockedBy []rt.JobID

	// Statistics.
	FinishTick    rt.Ticks // commit boundary; -1 until done
	BlockedTicks  rt.Ticks // ticks spent Status == Blocked
	InvBlockTicks rt.Ticks // blocked ticks while a lower-base-priority job ran
	Restarts      int
	MissedAt      rt.Ticks // first tick the deadline was observed missed; -1 otherwise
}

// BasePri returns the job's original (uninherited) priority.
func (j *Job) BasePri() rt.Priority { return j.Tmpl.Priority }

// CurStep returns the step the job is currently executing and false when
// the job has exhausted its body.
func (j *Job) CurStep() (txn.Step, bool) {
	if j.StepIdx >= len(j.Tmpl.Steps) {
		return txn.Step{}, false
	}
	return j.Tmpl.Steps[j.StepIdx], true
}

// NeedsLock reports whether the job is at the start of a lock step whose
// lock it has not yet acquired, and returns the item and mode.
func (j *Job) NeedsLock() (rt.Item, rt.Mode, bool) {
	step, ok := j.CurStep()
	if !ok || j.HasLock || step.Kind == txn.Compute {
		return rt.NoItem, rt.Read, false
	}
	m := rt.Read
	if step.Kind == txn.WriteStep {
		m = rt.Write
	}
	return step.Item, m, true
}

// Finished reports whether every step has fully executed.
func (j *Job) Finished() bool { return j.StepIdx >= len(j.Tmpl.Steps) }

// ResponseTime returns FinishTick-Release, or -1 if not finished.
func (j *Job) ResponseTime() rt.Ticks {
	if j.Status != Done {
		return -1
	}
	return j.FinishTick - j.Release
}

// Missed reports whether the job's deadline was missed.
func (j *Job) Missed() bool { return j.MissedAt >= 0 }

// Decision is a protocol's answer to a lock request. Blockers and
// AbortVictims may point into the protocol's own scratch, reused by its next
// call: an engine reads them before it calls the protocol again, and keeps
// nothing of them but what Wait copies into the job's Blockers.
type Decision struct {
	// Granted: the lock may be taken now.
	Granted bool
	// Rule names the clause that fired; each engine counts rules in a Tally.
	// Grants: "LC1".."LC4" (PCP-DA), "cond1"/"cond2" (naive-DA),
	// "ceiling-ok" (RW-PCP, CCP), "pcp-ok" (PCP), "2pl-ok" (PIP, 2PL-HP),
	// "hp-restart" (2PL-HP, after aborting its victims), "occ-ok" (OCC).
	// Denials: "rw-conflict" (a write behind foreign readers), "wr-conflict"
	// (PCP-DA's Table 1 side condition on the LC4 path), "table1-on-LC2" and
	// "table1-on-LC3" (the same condition where LC2 or LC3 would grant, which
	// the paper proves never happens), "ceiling", "2pl-conflict" (PIP),
	// "hp-wait" (2PL-HP).
	Rule string
	// Blockers: on denial, the jobs responsible; they inherit the
	// requester's priority (transitively) until the request is granted. The
	// list may name a job more than once and in any order: Wait keeps the
	// set.
	Blockers []rt.JobID
	// AbortVictims: jobs the protocol sacrifices for the requester (2PL-HP),
	// each named once. The kernel aborts and restarts them before acting on
	// Granted, so a decision may abort the lower-priority holders and still
	// block on the higher-priority ones.
	AbortVictims []rt.JobID
}

// Grant is shorthand for a granted decision under rule.
func Grant(rule string) Decision { return Decision{Granted: true, Rule: rule} }

// Block is shorthand for a denial under rule, blocked by the given jobs.
func Block(rule string, blockers ...rt.JobID) Decision {
	return Decision{Granted: false, Rule: rule, Blockers: blockers}
}

// Env is the kernel-side state a protocol may inspect while deciding.
type Env interface {
	// Locks returns the shared lock table (read-only use by protocols).
	Locks() *lock.Table
	// Job resolves a job id; nil when the job has left the system.
	Job(id rt.JobID) *Job
	// ActiveJobs returns the live (Ready/Blocked) jobs in id order.
	ActiveJobs() []*Job
}

// Inherit runs priority inheritance: every job ActiveJobs lists starts at its
// base priority and is raised to the running priority of every Blocked job
// that names it among its Blockers, until nothing changes — the least
// fixpoint, so a wait cycle inflates nothing. A blocker env.Job no longer
// resolves, or one that is not Ready or Blocked, receives nothing; a Ready
// job donates nothing, whatever its Blockers say.
//
// Both engines follow one rule: call it when Apply, Wait or Retire reports a
// change to the Blocked set — a job blocks, re-blocks behind different
// Blockers, is granted after a block, or is retired while Blocked (aborted,
// or restarted by the kernel) — so between calls every RunPri already is the
// fixpoint and a scheduler reads it as is. Nothing else moves a priority: a
// re-block behind the same set, a grant to a Ready job, a Ready job leaving
// ActiveJobs.
//
//pcpda:alloc-free
func Inherit(env Env) {
	active := env.ActiveJobs()
	for _, j := range active {
		j.RunPri = j.BasePri()
	}
	for changed := true; changed; {
		changed = false
		for _, j := range active {
			if j.Status != Blocked {
				continue
			}
			for _, id := range j.Blockers {
				b := env.Job(id)
				if b == nil || (b.Status != Ready && b.Status != Blocked) {
					continue
				}
				if b.RunPri < j.RunPri {
					b.RunPri = j.RunPri
					changed = true
				}
			}
		}
	}
}

// Protocol is a pluggable concurrency-control policy. What a protocol may
// do beyond deciding requests is an optional interface: CeilingReporter,
// CommitArbiter, EarlyReleaser.
type Protocol interface {
	// Name returns the short protocol name used in reports ("PCP-DA").
	Name() string
	// Deferred reports whether the protocol uses the update-in-workspace
	// model (writes buffered, installed at commit) rather than
	// update-in-place.
	Deferred() bool
	// Init receives the static transaction set and its priority ceilings
	// before the simulation starts.
	Init(set *txn.Set, ceil *txn.Ceilings)
	// Request decides a lock request by j for x in mode m.
	Request(env Env, j *Job, x rt.Item, m rt.Mode) Decision
}

// CeilingReporter is implemented by ceiling-based protocols so the kernel
// can record the paper's Max_Sysceil track: the highest priority ceiling
// currently in effect across all held locks.
type CeilingReporter interface {
	SystemCeiling(env Env) rt.Priority
}

// CommitArbiter is implemented by optimistic protocols that resolve
// conflicts at commit time: just before j's effects install, the kernel
// asks which active jobs must be restarted (forward validation / broadcast
// commit). The returned jobs are aborted and re-released after j commits.
// Like a Decision's lists, the result may point into the protocol's scratch
// and is read before the protocol is called again.
type CommitArbiter interface {
	CommitVictims(env Env, j *Job) []rt.JobID
}

// EarlyReleaser is implemented by protocols that unlock before commit (CCP):
// after j completes a step, j's read locks on the returned items are
// released at once; its write locks are kept to commit. A protocol without
// it keeps strict two-phase locking.
type EarlyReleaser interface {
	EarlyRelease(env Env, j *Job) []rt.Item
}
