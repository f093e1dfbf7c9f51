// Package sched is the discrete-time scheduling kernel underneath every
// protocol comparison in this repository.
//
// It models the paper's system assumptions (Section 5): a single processor,
// a memory-resident database, periodic transactions with statically assigned
// priorities, priority-driven preemptive scheduling, and the priority
// inheritance mechanism ("if a transaction blocks a higher priority
// transaction, its running priority will inherit that of the higher priority
// transaction").
//
// Time advances in integer ticks. Each tick the kernel:
//
//  1. releases the jobs whose arrival time has come (periodic, sporadic
//     with jitter, or one-shot),
//  2. records deadline misses (and, under the firm policy, aborts the late
//     job),
//  3. dispatches: candidates are the Ready jobs plus the Blocked ones, in
//     descending current priority. A blocked candidate re-issues its
//     pending lock request exactly when it would otherwise run — which is
//     when the real system would hand it the lock; a denial (re-)blocks it
//     (with priority inheritance applied to the blockers) and the next
//     candidate is considered, until one job executes for one tick or the
//     tick idles.
//
// A job that finishes its last tick commits at the following tick boundary:
// deferred workspaces install atomically, locks release, and waiting jobs
// re-request at the top of the next tick. Every changed block searches the
// waits-for graph (cc.WaitCycle); protocols that can deadlock (PIP, the
// naive strawman of the paper's Example 5) are caught and reported rather
// than hanging the simulation.
package sched

import (
	"fmt"
	"math/rand"
	"slices"

	"pcpda/internal/cc"
	"pcpda/internal/db"
	"pcpda/internal/history"
	"pcpda/internal/lock"
	"pcpda/internal/rt"
	"pcpda/internal/trace"
	"pcpda/internal/txn"
)

// DeadlinePolicy says what happens when a job is still live at its deadline.
type DeadlinePolicy uint8

const (
	// HardRecord records the miss and lets the job run to completion (the
	// paper's hard-RT analysis setting: a miss is a system failure we want
	// to observe, not mask).
	HardRecord DeadlinePolicy = iota
	// FirmAbort aborts the job at its deadline (firm real-time semantics,
	// used by the miss-ratio experiments).
	FirmAbort
)

// Config parameterizes a simulation run.
type Config struct {
	// Horizon is the number of ticks to simulate.
	Horizon rt.Ticks
	// Deadline selects the deadline policy.
	Deadline DeadlinePolicy
	// RecordTrace enables the per-tick Gantt timeline (costs memory
	// proportional to rows × horizon).
	RecordTrace bool
	// TrackCeiling records the protocol's system ceiling every tick
	// (requires the protocol to implement cc.CeilingReporter).
	TrackCeiling bool
	// StopOnDeadlock halts the run when the waits-for graph develops a
	// cycle; the result carries the cycle. When false the kernel still
	// detects the cycle but idles through it (every involved job is
	// blocked forever).
	StopOnDeadlock bool
	// SporadicJitter stretches the inter-arrival of templates marked
	// Sporadic: each gap is drawn uniformly from
	// [Period, Period·(1+SporadicJitter)], seeded by Seed so runs are
	// reproducible. Zero keeps sporadic templates strictly periodic.
	SporadicJitter float64
	// Seed drives the sporadic-arrival RNG (and nothing else).
	Seed int64
	// DisableFastForward forces tick-by-tick execution. By default, when
	// the per-tick trace is not recorded, the kernel fast-forwards across
	// inert spans (a job mid-segment with no release, deadline or
	// scheduling event before the segment ends, or a fully idle gap).
	// Ceiling tracking alone does not inhibit it — locks cannot change
	// mid-span, so MaxSysceil is unaffected (see fastForward); the
	// differential tests assert the two modes produce identical results.
	DisableFastForward bool
	// Paranoid validates the kernel's structural invariants every tick
	// (see checkInvariants) and halts the run on the first violation,
	// which is then reported in Result.Invariant. Used by the randomized
	// test sweeps; costs O(jobs × locks) per tick.
	Paranoid bool
	// FaultAbortProb injects seeded transient faults: after every executed
	// tick, with this probability, the job that ran is firm-aborted (locks
	// released, workspace discarded, instance terminated — the kernel
	// counterpart of the live manager's fault injector). Drawn from a
	// dedicated RNG seeded by FaultSeed, so fault schedules are
	// reproducible and independent of the sporadic-arrival stream. Nonzero
	// probability forces tick-by-tick execution for executing spans (every
	// executed tick needs a fault draw); idle spans still fast-forward.
	FaultAbortProb float64
	// FaultSeed seeds the fault RNG (meaningful when FaultAbortProb > 0).
	FaultSeed int64
}

// Result is everything a run produced.
//
// Jobs holds one JobRecord per released job, indexed by job id: what the
// job was when it left (committed or firm-aborted), or at the end of the run
// if it was still live. A record holds no pointer, so a finished result
// costs the collector nothing to scan however many jobs it ran; the template
// is res.Set.Templates[j.Tmpl], and the jobs that blocked it are
// res.EverBlockedBy(j), a range of the result-wide Blockers.
type Result struct {
	Protocol string
	Set      *txn.Set
	Horizon  rt.Ticks

	Jobs     []JobRecord
	Blockers []rt.JobID // every job's EverBlockedBy, one range per record
	History  *history.History
	Timeline *trace.Timeline // nil unless Config.RecordTrace
	Store    *db.Store

	Committed int
	Misses    int
	Aborts    int // firm-deadline terminations
	Restarts  int // 2PL-HP style restarts
	IdleTicks rt.Ticks

	Deadlocked    bool
	DeadlockAt    rt.Ticks
	DeadlockCycle []rt.JobID

	// FaultAborts counts jobs terminated by the injected-fault layer
	// (Config.FaultAbortProb); they are not included in Aborts, which
	// stays the firm-deadline count.
	FaultAborts int

	// Decisions counts Decision.Rule: every grant, and every fresh denial
	// (retries of an already blocked job do not re-count, though a rule met
	// only on a retry still has its line) — the tally the live manager keeps
	// in rtm.Stats.
	Decisions cc.Tally
	// MaxSysceil is the highest ceiling observed (dummy when untracked).
	MaxSysceil rt.Priority
	// ItemBlocked attributes blocked ticks to the item being waited for,
	// indexed by item — the per-item contention profile (ceiling blockings
	// attribute to the requested item).
	ItemBlocked []rt.Ticks
	// Invariant carries the first violated kernel invariant under
	// Config.Paranoid (nil on healthy runs).
	Invariant *InvariantError
}

// JobRecord is what a result keeps of one released job: the statistics and
// the final execution state of its cc.Job, and nothing that points anywhere.
type JobRecord struct {
	Release       rt.Ticks
	AbsDeadline   rt.Ticks // 0 = no deadline
	FinishTick    rt.Ticks // commit boundary; -1 unless committed
	MissedAt      rt.Ticks // first tick the deadline was observed missed; -1 otherwise
	BlockedTicks  rt.Ticks // ticks spent Blocked
	InvBlockTicks rt.Ticks // blocked ticks while a lower-base-priority job ran
	RunPri        rt.Priority
	StepIdx       int
	Restarts      int
	Tmpl          txn.ID // index into Result.Set.Templates
	Status        cc.Status
	// EverBlockedBy is the range of Result.Blockers holding every distinct
	// job that ever blocked this one, in the order they first did.
	EverBlockedBy Span
}

// Span is the range [Lo, Hi) of a result-wide slice.
type Span struct{ Lo, Hi int32 }

// Missed reports whether the job's deadline was missed.
func (j JobRecord) Missed() bool { return j.MissedAt >= 0 }

// ResponseTime returns FinishTick-Release, or -1 if the job did not commit.
func (j JobRecord) ResponseTime() rt.Ticks {
	if j.Status != cc.Done {
		return -1
	}
	return j.FinishTick - j.Release
}

// EverBlockedBy returns the jobs that ever blocked j, a record of r.
func (r *Result) EverBlockedBy(j JobRecord) []rt.JobID {
	return r.Blockers[j.EverBlockedBy.Lo:j.EverBlockedBy.Hi:j.EverBlockedBy.Hi]
}

// Kernel drives one simulation run. Create with New, call Run once.
type Kernel struct {
	set   *txn.Set
	ceil  *txn.Ceilings
	proto cc.Protocol
	early cc.EarlyReleaser // proto, when it unlocks before commit; else nil
	cfg   Config

	locks *lock.Table
	store *db.Store
	hist  *history.History
	tl    *trace.Timeline

	now     rt.Ticks
	passes  int        // iterations of Run's loop: dispatches, each then fast-forwarded
	active  []*cc.Job  // live jobs (Ready or Blocked), id order; active[i] is &boxes[i].job
	boxes   []*box     // boxes[i] is active[i]'s; those past len(active) are spare
	nextRel []rt.Ticks // per template: next release time (-1 done)
	nextRun db.RunID
	rng     *rand.Rand // sporadic arrivals only; built at the first draw
	frng    *rand.Rand // injected-fault draws only; nil when faults are off

	// Event-time lower bounds so the per-tick release and deadline scans
	// skip entirely between events. Both are conservative: a stale bound
	// only costs one wasted rescan, never a missed event.
	relMin rt.Ticks // no template releases before this tick
	dlMin  rt.Ticks // no unmissed deadline expires before this tick

	// Per-tick scratch reused across the whole run (the kernel is
	// single-threaded): the waits-for search's state and the commit's
	// installed list.
	cycle     cc.CycleScratch
	installed []db.Installed

	res Result
}

// box is a live job: its cc.Job, the backing of its DataRead and workspace,
// and dispatch's stamp. The job's DataRead and WS point into the box from
// the moment it is made, and its Blockers and EverBlockedBy keep the backing
// they grew, so lending a box to the next job writes none of them. spawn
// lends one, a spare when there is one; leave writes the job's JobRecord and
// takes the box back, so a run makes no more boxes than it has jobs live at
// once and a departed job keeps only its record.
type box struct {
	job   cc.Job
	read  rt.ItemSet
	ws    db.Workspace
	tried rt.Ticks // == now when dispatch tried the job this tick
}

// Pre-sizing bounds: a horizon that implies more jobs or history operations
// than these gets this much up front and ordinary append growth after, so a
// run that stops early (deadlock) never paid for its horizon.
const maxPresizeJobs, maxPresizeOps = 1 << 16, 1 << 18

// expectedLoad returns how many jobs a run of set to horizon releases when
// every template arrives strictly periodically, and how many history
// operations they record when each runs once to commit (a begin, a commit,
// one per read or write step; compute steps record none), each capped at its
// pre-sizing bound. Jitter releases fewer jobs and restarts record more
// operations: the figures size buffers, nothing depends on them being exact.
func expectedLoad(set *txn.Set, horizon rt.Ticks) (jobs, ops int) {
	for _, t := range set.Templates {
		if t.Offset >= horizon {
			continue
		}
		n := 1
		if !t.OneShot() {
			n = int(min((horizon-t.Offset+t.Period-1)/t.Period, maxPresizeOps))
		}
		per := 2
		for _, s := range t.Steps {
			if s.Kind != txn.Compute {
				per++
			}
		}
		jobs = min(jobs+n, maxPresizeJobs)
		ops = min(ops+n*per, maxPresizeOps)
	}
	return jobs, ops
}

// New builds a kernel for one run of proto over set. The set must validate.
func New(set *txn.Set, proto cc.Protocol, cfg Config) (*Kernel, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid transaction set: %w", err)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sched: non-positive horizon %d", cfg.Horizon)
	}
	if cfg.FaultAbortProb < 0 || cfg.FaultAbortProb > 1 {
		return nil, fmt.Errorf("sched: fault-abort probability %v out of [0,1]", cfg.FaultAbortProb)
	}
	ceil := txn.ComputeCeilings(set)
	proto.Init(set, ceil)
	jobs, ops := expectedLoad(set, cfg.Horizon)
	k := &Kernel{
		set:     set,
		ceil:    ceil,
		proto:   proto,
		cfg:     cfg,
		locks:   lock.NewTable(),
		store:   db.NewStore(),
		hist:    history.New(),
		nextRel: make([]rt.Ticks, len(set.Templates)),
		nextRun: db.InitRun + 1,
		active:  make([]*cc.Job, 0, len(set.Templates)),
		boxes:   make([]*box, 0, len(set.Templates)),
	}
	k.hist.Ops = make([]history.Op, 0, ops)
	if cfg.FaultAbortProb > 0 {
		k.frng = rand.New(rand.NewSource(cfg.FaultSeed))
	}
	for i, t := range set.Templates {
		k.nextRel[i] = t.Offset
	}
	k.early, _ = proto.(cc.EarlyReleaser)
	if cfg.RecordTrace {
		k.tl = trace.New(len(set.Templates), cfg.Horizon)
	}
	k.res = Result{
		Protocol:    proto.Name(),
		Set:         set,
		Horizon:     cfg.Horizon,
		Jobs:        make([]JobRecord, 0, jobs),
		ItemBlocked: make([]rt.Ticks, set.Catalog.Len()),
		MaxSysceil:  rt.Dummy,
	}
	return k, nil
}

// --- cc.Env implementation -------------------------------------------------

// Locks returns the shared lock table.
func (k *Kernel) Locks() *lock.Table { return k.locks }

// Job resolves a job id; nil when the job is not live (Ready or Blocked).
func (k *Kernel) Job(id rt.JobID) *cc.Job {
	for _, j := range k.active {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// ActiveJobs returns the live jobs in id order.
func (k *Kernel) ActiveJobs() []*cc.Job { return k.active }

// --- main loop --------------------------------------------------------------

// Run executes the simulation and returns the result. It must be called at
// most once per Kernel.
func (k *Kernel) Run() *Result {
	for k.now < k.cfg.Horizon {
		k.passes++
		k.release()
		k.checkDeadlines()
		j, released := k.dispatch()
		if k.res.Deadlocked && k.cfg.StopOnDeadlock {
			break
		}
		k.accountTick(j)
		k.now++
		k.fastForward(j, released)
		if j != nil && k.frng != nil && k.frng.Float64() < k.cfg.FaultAbortProb {
			// Injected transient fault: the job that just ran is terminated
			// at this tick boundary — even one that just finished (a commit
			// failure). Locks release and the workspace discards exactly as
			// on a firm-deadline abort.
			k.abort(j, false)
			k.res.FaultAborts++
		} else if j != nil && j.Finished() {
			k.commit(j)
		}
		if k.cfg.Paranoid {
			if err := k.checkInvariants(); err != nil {
				k.res.Invariant = err
				break
			}
		}
	}
	for _, j := range k.active {
		k.res.Jobs[j.ID] = k.record(j)
	}
	k.res.History = k.hist
	k.res.Timeline = k.tl
	k.res.Store = k.store
	return &k.res
}

// release creates jobs whose release time has arrived. Between releases the
// per-template scan is skipped entirely via the relMin bound (exact: nextRel
// only changes here).
func (k *Kernel) release() {
	if k.now < k.relMin {
		return
	}
	next := k.cfg.Horizon + 1
	for i, tmpl := range k.set.Templates {
		for k.nextRel[i] >= 0 && k.nextRel[i] <= k.now {
			rel := k.nextRel[i]
			switch {
			case tmpl.OneShot():
				k.nextRel[i] = -1
			case tmpl.Sporadic && k.cfg.SporadicJitter > 0:
				if k.rng == nil {
					k.rng = rand.New(rand.NewSource(k.cfg.Seed))
				}
				gap := tmpl.Period
				extra := float64(tmpl.Period) * k.cfg.SporadicJitter * k.rng.Float64()
				gap += rt.Ticks(extra)
				k.nextRel[i] = rel + gap
			default:
				k.nextRel[i] = rel + tmpl.Period
			}
			k.spawn(tmpl, rel)
		}
		if k.nextRel[i] >= 0 && k.nextRel[i] < next {
			next = k.nextRel[i]
		}
	}
	k.relMin = next
}

// spawn releases one job of tmpl into the box it is lent. Only the fields a
// job starts from are written: the box's pointers stay as they are, and
// cc.Retire left the blocking state of the box's last job cleared.
func (k *Kernel) spawn(tmpl *txn.Template, rel rt.Ticks) {
	b := k.lend()
	j := &b.job
	j.ID = rt.JobID(len(k.res.Jobs))
	j.Run = k.nextRun
	j.Tmpl = tmpl
	j.Release = rel
	j.AbsDeadline = 0
	if d := tmpl.RelativeDeadline(); d > 0 {
		j.AbsDeadline = rel + d
	}
	j.StepIdx, j.StepDone, j.HasLock = 0, 0, false
	j.Status, j.RunPri = cc.Ready, tmpl.Priority
	j.FinishTick, j.MissedAt = -1, -1
	j.BlockedTicks, j.InvBlockTicks, j.Restarts = 0, 0, 0
	k.nextRun++
	k.res.Jobs = append(k.res.Jobs, k.record(j))
	k.active = append(k.active, j)
	if j.AbsDeadline > 0 && j.AbsDeadline < k.dlMin {
		k.dlMin = j.AbsDeadline
	}
	k.hist.Begin(k.now, j.Run, tmpl.ID)
	k.annotate(j, "arr")
}

// lend returns the box of the job about to join k.active: a spare, or a new
// one whose containers hold the set's largest read and write sets, which
// bound what any job puts in them.
func (k *Kernel) lend() *box {
	if n := len(k.active); n < len(k.boxes) {
		b := k.boxes[n]
		b.tried = -1
		return b
	}
	reads, writes := 0, 0
	for _, t := range k.set.Templates {
		reads = max(reads, t.ReadSet().Len())
		writes = max(writes, t.WriteSet().Len())
	}
	b := &box{read: rt.ItemSetOver(make([]rt.Item, 0, reads)), tried: -1}
	b.job.DataRead = &b.read
	if k.proto.Deferred() {
		b.ws = db.WorkspaceOver(make([]rt.Item, 0, writes), make([]db.Value, 0, writes))
		b.job.WS = &b.ws
	}
	k.boxes = append(k.boxes, b)
	return b
}

// record is j's JobRecord, its EverBlockedBy appended to the result's
// Blockers. Most jobs never block, and for them the slice header is not
// stored at all: even an empty append would store it, under the write
// barrier while the collector marks.
func (k *Kernel) record(j *cc.Job) JobRecord {
	ever := Span{int32(len(k.res.Blockers)), int32(len(k.res.Blockers))}
	if len(j.EverBlockedBy) > 0 {
		k.res.Blockers = append(k.res.Blockers, j.EverBlockedBy...)
		ever.Hi = int32(len(k.res.Blockers))
	}
	return JobRecord{
		Release:       j.Release,
		AbsDeadline:   j.AbsDeadline,
		FinishTick:    j.FinishTick,
		MissedAt:      j.MissedAt,
		BlockedTicks:  j.BlockedTicks,
		InvBlockTicks: j.InvBlockTicks,
		RunPri:        j.RunPri,
		StepIdx:       j.StepIdx,
		Restarts:      j.Restarts,
		Tmpl:          j.Tmpl.ID,
		Status:        j.Status,
		EverBlockedBy: ever,
	}
}

// higherPriority is the kernel's total dispatch order.
func higherPriority(a, b *cc.Job) bool {
	if a.RunPri != b.RunPri {
		return a.RunPri > b.RunPri
	}
	if a.BasePri() != b.BasePri() {
		return a.BasePri() > b.BasePri()
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.ID < b.ID
}

// checkDeadlines records misses at the deadline boundary; under FirmAbort
// the late job is terminated. The dlMin bound (a conservative lower bound,
// lowered by spawn and recomputed on every scan) skips the whole pass
// between deadline events.
func (k *Kernel) checkDeadlines() {
	if k.now < k.dlMin {
		return
	}
	next := k.cfg.Horizon + 1
	for i := 0; i < len(k.active); i++ {
		j := k.active[i]
		if j.AbsDeadline <= 0 || j.MissedAt >= 0 {
			continue
		}
		if k.now < j.AbsDeadline {
			if j.AbsDeadline < next {
				next = j.AbsDeadline
			}
			continue
		}
		j.MissedAt = k.now
		k.res.Misses++
		k.annotate(j, "MISS")
		if k.cfg.Deadline == FirmAbort {
			k.abort(j, false) // j leaves k.active: its successor moves to i
			k.res.Aborts++
			i--
		}
	}
	k.dlMin = next
}

// dispatch runs one tick of the highest-priority runnable job.
//
// Candidates are the Ready jobs plus the Blocked jobs — a blocked job
// re-issues its pending lock request exactly when it would otherwise be the
// one dispatched, which is when the real system would hand it the lock. A
// denial (re-)blocks the candidate, inheritance kicks in, and the next
// candidate is considered; a grant unblocks the job and it executes this
// tick. cc.Apply makes either change. Running priorities are already the
// inheritance fixpoint here: wherever cc.Apply or cc.Retire reports a change
// to the Blocked set, cc.Inherit runs at once. Returns the job that executed,
// or nil for an idle tick, and whether its tick ended a segment with an early
// lock release.
//
//pcpda:alloc-free
func (k *Kernel) dispatch() (*cc.Job, bool) {
	for {
		i := k.bestCandidate()
		if i < 0 {
			return nil, false
		}
		j, b := k.active[i], k.boxes[i]
		if x, m, need := j.NeedsLock(); need {
			fresh := j.Status != cc.Blocked
			dec := k.proto.Request(k, j, x, m)
			k.applyDecision(j, dec)
			changed := cc.Apply(k, j, x, m, dec, &k.res.Decisions)
			if changed {
				cc.Inherit(k)
			}
			if !dec.Granted {
				k.blocked(j, fresh, changed)
				b.tried = k.now
				if k.res.Deadlocked && k.cfg.StopOnDeadlock {
					return nil, false
				}
				continue
			}
			k.grant(j)
		}
		return j, k.exec(j)
	}
}

// bestCandidate returns the index in k.active of the highest-priority Ready
// or Blocked job not tried this tick (tick stamps in the boxes replace a
// per-tick set), or -1 when there is none.
func (k *Kernel) bestCandidate() int {
	best := -1
	for i, j := range k.active {
		if k.boxes[i].tried == k.now {
			continue
		}
		if j.Status != cc.Ready && j.Status != cc.Blocked {
			continue
		}
		if best < 0 || higherPriority(j, k.active[best]) {
			best = i
		}
	}
	return best
}

// applyDecision aborts 2PL-HP victims before a grant takes effect.
func (k *Kernel) applyDecision(j *cc.Job, dec cc.Decision) {
	for _, vid := range dec.AbortVictims {
		if v := k.Job(vid); v != nil && v != j {
			k.abort(v, true)
			k.res.Restarts++
		}
	}
}

// grant performs the data access of the lock step cc.Apply just granted j:
// the store read or write, the history and the timeline.
func (k *Kernel) grant(j *cc.Job) {
	step, _ := j.CurStep()
	x := step.Item
	id := j.Tmpl.ID
	switch step.Kind {
	case txn.ReadStep:
		if j.WS != nil {
			if _, own := j.WS.Get(x); own {
				// Reading its own pending write: no inter-transaction edge.
				k.hist.Read(k.now, j.Run, id, x, -1, j.Run)
			} else {
				_, ver, from := k.store.Read(x)
				k.hist.Read(k.now, j.Run, id, x, ver, from)
			}
		} else {
			_, ver, from := k.store.Read(x)
			k.hist.Read(k.now, j.Run, id, x, ver, from)
		}
		if k.tl != nil {
			k.annotate(j, "RL("+k.set.Catalog.Name(x)+")")
		}
	case txn.WriteStep:
		val := db.SyntheticValue(j.Run, x)
		if j.WS != nil {
			j.WS.Write(x, val)
		} else {
			ver := k.store.WriteInPlace(j.Run, x, val)
			k.hist.Write(k.now, j.Run, id, x, ver)
		}
		if k.tl != nil {
			k.annotate(j, "WL("+k.set.Catalog.Name(x)+")")
		}
	}
	j.HasLock = true
}

// exec burns one tick of j's current step and advances the step machine. It
// reports whether the tick ended the segment with an early lock release.
func (k *Kernel) exec(j *cc.Job) bool {
	step, ok := j.CurStep()
	if !ok {
		return false
	}
	j.StepDone++
	return j.StepDone >= step.Dur && k.endStep(j)
}

// endStep moves j past its finished segment and lets a cc.EarlyReleaser
// release read locks early (only CCP is one). It reports whether any lock was
// released.
func (k *Kernel) endStep(j *cc.Job) (released bool) {
	j.StepIdx++
	j.StepDone = 0
	j.HasLock = false
	if k.early == nil {
		return false
	}
	for _, x := range k.early.EarlyRelease(k, j) {
		k.locks.Release(j.ID, x, rt.Read)
		released = true
		if k.tl != nil {
			k.annotate(j, "UL("+k.set.Catalog.Name(x)+")")
		}
	}
	return released
}

// blocked follows a denial cc.Apply recorded: a fresh block is annotated,
// and a changed one — after the caller's cc.Inherit — searches the waits-for
// graph for a deadlock.
func (k *Kernel) blocked(j *cc.Job, fresh, changed bool) {
	if fresh && k.tl != nil {
		k.annotate(j, fmt.Sprintf("blocked %s(%s)", j.BlockedMode, k.set.Catalog.Name(j.BlockedOn)))
	}
	if !changed {
		return
	}
	if cyc := cc.WaitCycle(k, j, &k.cycle); cyc != nil && !k.res.Deadlocked {
		k.res.Deadlocked = true
		k.res.DeadlockAt = k.now
		k.res.DeadlockCycle = slices.Clone(cyc)
		k.annotate(j, "DEADLOCK")
	}
}

// commit finalizes a finished job at the current tick boundary.
func (k *Kernel) commit(j *cc.Job) {
	id := j.Tmpl.ID
	// Optimistic protocols name their restart victims before the install
	// (forward validation); the aborts land after the commit completes so
	// the victims observe the new state on their re-run.
	var victims []rt.JobID
	if arb, ok := k.proto.(cc.CommitArbiter); ok {
		victims = arb.CommitVictims(k, j)
	}
	if j.WS != nil {
		k.installed = j.WS.InstallInto(k.installed[:0], k.store, j.Run)
		for _, ins := range k.installed {
			k.hist.Write(k.now, j.Run, id, ins.Item, ins.Version)
		}
	} else {
		k.store.Forget(j.Run)
	}
	k.hist.Commit(k.now, j.Run, id)
	// j has just run, so it is Ready, and a Ready job leaving moves nobody's
	// priority: no cc.Inherit.
	cc.Retire(k, j, cc.Done)
	j.FinishTick = k.now
	k.leave(j)
	k.res.Committed++
	k.annotate(j, "commit")
	for _, vid := range victims {
		if v := k.Job(vid); v != nil {
			k.abort(v, true)
			k.res.Restarts++
		}
	}
}

// abort rolls back j; restart=true re-arms it from its first step (2PL-HP),
// restart=false removes it (firm deadline). Either way j donates nothing
// from here on: when it was Blocked, inheritance is recomputed at once.
func (k *Kernel) abort(j *cc.Job, restart bool) {
	if j.WS != nil {
		j.WS.Discard()
	} else {
		k.store.Rollback(j.Run)
	}
	wasBlocked := cc.Retire(k, j, cc.Aborted)
	k.hist.Abort(k.now, j.Run, j.Tmpl.ID)
	k.annotate(j, "abort")
	if restart {
		j.Run = k.nextRun
		k.nextRun++
		j.StepIdx = 0
		j.StepDone = 0
		j.HasLock = false
		j.Status = cc.Ready
		j.Restarts++
		k.hist.Begin(k.now, j.Run, j.Tmpl.ID)
	} else {
		k.leave(j)
	}
	if wasBlocked {
		cc.Inherit(k)
	}
}

// leave writes the record of j, just retired, takes j off the live list and
// takes back its box: the workspace and EverBlockedBy emptied (cc.Retire
// emptied DataRead and Blockers), every backing kept at the capacity it grew
// to.
func (k *Kernel) leave(j *cc.Job) {
	k.res.Jobs[j.ID] = k.record(j)
	j.EverBlockedBy = j.EverBlockedBy[:0]
	i, n := slices.Index(k.active, j), len(k.active)-1
	b := k.boxes[i]
	b.ws.Discard()
	k.active = append(k.active[:i], k.active[i+1:]...)
	copy(k.boxes[i:n], k.boxes[i+1:n+1])
	k.boxes[n] = b // the first spare
}

// accountTick updates traces and statistics for the tick that just ran.
func (k *Kernel) accountTick(executed *cc.Job) {
	if executed == nil {
		k.res.IdleTicks++
	}
	for _, j := range k.active {
		if j == executed {
			continue
		}
		switch j.Status {
		case cc.Blocked:
			j.BlockedTicks++
			if j.BlockedOn >= 0 {
				k.res.ItemBlocked[j.BlockedOn]++
			}
			if executed != nil && executed.BasePri() < j.BasePri() {
				j.InvBlockTicks++
			}
		}
	}
	if k.tl != nil {
		if executed != nil {
			k.tl.Set(executed.Tmpl.ID, k.now, trace.Exec)
		}
		for _, j := range k.active {
			if j == executed {
				continue
			}
			switch j.Status {
			case cc.Blocked:
				k.tl.Set(j.Tmpl.ID, k.now, trace.BlockedMark)
			case cc.Ready:
				k.tl.Set(j.Tmpl.ID, k.now, trace.Preempted)
			}
		}
	}
	if k.cfg.TrackCeiling {
		if cr, ok := k.proto.(cc.CeilingReporter); ok {
			c := cr.SystemCeiling(k)
			k.res.MaxSysceil = k.res.MaxSysceil.Max(c)
			if k.tl != nil {
				k.tl.SetCeiling(k.now, c)
			}
		}
	}
}

func (k *Kernel) annotate(j *cc.Job, text string) {
	if k.tl != nil {
		k.tl.Annotate(j.Tmpl.ID, k.now, text)
	}
}
