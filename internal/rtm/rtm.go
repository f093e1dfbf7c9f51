// Package rtm is a live, goroutine-based transaction manager running the
// PCP-DA protocol — the paper's contribution as an adoptable concurrency
// control component rather than a simulation policy.
//
// Transaction types are registered up front (a txn.Set, as the ceiling
// protocols require: static read/write sets and a total priority order).
// Each running transaction is a handle used by one goroutine:
//
//	mgr, _ := rtm.New(set)
//	tx, _ := mgr.Begin(ctx, "sensor-update")
//	v, _ := tx.Read(ctx, gyro)
//	_ = tx.Write(ctx, attitude, fuse(v))
//	_ = tx.Commit(ctx)
//
// Admission decisions are made by the very same code that drives the
// simulator (pcpda.Protocol.Request over the cc.Env interface), so the
// library and the reproduction cannot drift apart.
//
// # Failure model
//
// Every error exit is self-cleaning: when an operation fails, the manager
// has already aborted the transaction — workspace discarded, locks
// released, ceilings restored, template slot freed — before the error is
// returned. Callers never need to pair an error with Abort() (though a
// later Abort() is a harmless no-op). The sentinel tells the caller what
// happened and what to do:
//
//   - ErrAborted: sacrificed (cycle victim or injected fault); retry.
//   - ErrCancelled: the caller's context was cancelled or expired (the
//     concrete context error is wrapped and still matches errors.Is);
//     don't retry on the same context.
//   - ErrDeadlineMissed: firm-deadline enforcement (Options.FirmDeadlines)
//     aborted the transaction at its deadline; retry iff a fresh instance
//     can still be useful.
//   - ErrClosed: handle already finished (programming error).
//
// Exec wraps Begin/op/Commit in a bounded retry loop with jittered backoff
// for the retryable sentinels. Options.Injector plugs seeded fault
// injection (package fault) into every blocking/grant/commit boundary, and
// Manager.CheckInvariants audits the lock table, live maps, ceilings and
// history after any schedule, faulty or not.
//
// # Deviation from the paper's execution model
//
// The paper assumes a single processor with priority-driven scheduling;
// several of its guarantees (notably "T_H commits before the write-locked
// items it read are installed", Lemma 9) fall out of that scheduling model
// rather than the locking conditions alone. A free-threaded Go program has
// no priority scheduler, so the manager adds one explicit guard: Commit
// WAITS until no active transaction holds a stale read of the committer's
// write set (every such reader must serialize, and therefore commit,
// first). With that guard every history is serializable in commit order by
// construction — reads only ever observe committed state, and a version is
// never installed while a reader of its predecessor is still live.
//
// Under the paper's assumptions the combined wait graph (lock waits +
// commit waits) is acyclic, and the simulator sweep machine-checks that.
// Under free threading the obvious two-transaction cycles turn out to be
// unreachable too: PCP-DA's own guards close both interleavings (the
// Table-1 side condition in one order, the Wceil ceiling raised by the
// stale reader in the other — see the cycle_test.go walkthrough). The
// manager still carries a defensive cycle breaker: if a wait cycle is ever
// detected it aborts the lowest-priority transaction in the cycle
// (discarding its private workspace — deferred updates make this safe and
// invisible), returning ErrAborted so the caller can retry. The hammer
// tests count these aborts and observe zero.
package rtm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pcpda/internal/cc"
	"pcpda/internal/db"
	"pcpda/internal/fault"
	"pcpda/internal/history"
	"pcpda/internal/lock"
	"pcpda/internal/pcpda"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// ErrAborted is returned when the manager sacrifices a transaction — to
// break a wait cycle, or because an injected fault forced the same path.
// The transaction's effects are fully discarded; the caller may Begin (or
// Exec will) again.
var ErrAborted = errors.New("rtm: transaction aborted to break a wait cycle")

// ErrClosed is returned for operations on a finished transaction handle.
var ErrClosed = errors.New("rtm: transaction already committed or aborted")

// ErrCancelled is returned when a transaction was torn down because its
// caller's context was cancelled or expired (or an injected fault emulated
// that). The returned error also matches the concrete context error
// (context.Canceled / context.DeadlineExceeded) via errors.Is.
var ErrCancelled = errors.New("rtm: transaction cancelled; workspace discarded and locks released")

// ErrDeadlineMissed is returned when firm-deadline enforcement
// (Options.FirmDeadlines) aborted the transaction at its deadline — the
// live counterpart of sched.FirmAbort.
var ErrDeadlineMissed = errors.New("rtm: firm deadline missed; transaction aborted")

// cancelledError couples ErrCancelled with the concrete cause (a context
// error, or fault.ErrInjected) so both match under errors.Is.
type cancelledError struct{ cause error }

func (e *cancelledError) Error() string {
	return ErrCancelled.Error() + " (" + e.cause.Error() + ")"
}
func (e *cancelledError) Is(target error) bool { return target == ErrCancelled }
func (e *cancelledError) Unwrap() error        { return e.cause }

// Options configures optional manager behaviour. The zero value is the
// plain manager: no firm deadlines, no fault injection.
type Options struct {
	// FirmDeadlines aborts a live transaction with ErrDeadlineMissed once
	// the manager's logical clock passes its absolute deadline — the live
	// counterpart of sched.FirmAbort. Deadlines are measured in manager
	// ticks (one tick per manager operation), not wall time, so fault
	// schedules stay deterministic and unit-testable.
	FirmDeadlines bool
	// DeadlineOf overrides the relative deadline (in ticks) applied to a
	// template under FirmDeadlines. Nil, or a non-positive return value,
	// falls back to Template.RelativeDeadline().
	DeadlineOf func(tmpl *txn.Template) rt.Ticks
	// Injector, when non-nil, is consulted at every blocking, grant and
	// commit boundary (see package fault). Nil costs one branch per
	// boundary.
	Injector fault.Injector
	// Seed drives Exec's retry jitter (any value is fine; zero included).
	Seed int64
}

// Manager is a live PCP-DA transaction manager. All methods are safe for
// concurrent use.
type Manager struct {
	mu sync.Mutex

	set   *txn.Set        //pcpda:guardedby immutable
	ceil  *txn.Ceilings   //pcpda:guardedby immutable
	proto *pcpda.Protocol //pcpda:guardedby immutable
	locks *lock.Table     //pcpda:guardedby immutable
	store *db.Store       //pcpda:guardedby immutable

	opts Options        //pcpda:guardedby immutable
	inj  fault.Injector //pcpda:guardedby immutable — copy of opts.Injector; nil ⇒ injection disabled

	active  map[rt.JobID]*Txn //pcpda:guardedby mu
	byTmpl  map[txn.ID]*Txn   //pcpda:guardedby mu — one live instance per template
	actList []*Txn            //pcpda:guardedby mu — live transactions in ascending job-id order
	nextJob rt.JobID          //pcpda:guardedby mu
	nextRun db.RunID          //pcpda:guardedby mu
	clock   rt.Ticks          //pcpda:guardedby mu — logical time: one tick per manager operation

	// hist retains the newest history.RingCap operations and audits every
	// commit as it happens (history.Recorder): bounded at any uptime.
	hist *history.Recorder //pcpda:guardedby mu

	// Incremental read-lock ceiling index (see index.go).
	dom       *rt.PriorityDomain //pcpda:guardedby immutable
	wceilRank []int16            //pcpda:guardedby immutable — per item: dense rank of Wceil(x); -1 for dummy
	readCeil  []int32            //pcpda:guardedby mu — live read locks per ceiling rank, all holders
	ceilTop   int                //pcpda:guardedby mu — highest rank with readCeil > 0; -1 when none

	// Targeted-wakeup machinery (see wait.go).
	waitOn     map[rt.JobID][]*waitNode //pcpda:guardedby mu — parked waiters per blocking job
	tmplWait   map[txn.ID][]*waitNode   //pcpda:guardedby mu — Begin waiters per template slot
	allWaiters []*waitNode              //pcpda:guardedby mu — every parked waiter (injected wakeups)
	freeNodes  []*waitNode              //pcpda:guardedby mu — pooled Begin-waiter nodes
	freeLists  [][]*waitNode            //pcpda:guardedby mu — retired waits-on index lists
	freeRes    []*txnRes                //pcpda:guardedby mu — pooled per-transaction resources

	// resolveCycle scratch, reused across parks.
	cycleColor map[rt.JobID]int //pcpda:guardedby mu
	cycleStack []rt.JobID       //pcpda:guardedby mu

	rng *rand.Rand //pcpda:guardedby mu — Exec backoff jitter

	aborts int   //pcpda:guardedby mu — cycle-breaking aborts, for introspection
	stats  Stats //pcpda:guardedby mu — lifetime counters (CycleAborts/Live filled on read)

	// Multiversion snapshot state (snapshot.go). snapTick is the commit
	// tick of the newest fully installed commit, stored (release) at the
	// end of Commit while m.mu is still held; read-only transactions load
	// it (acquire) with no lock and are then guaranteed to see every
	// version chained at or before it. The ro* counters are atomics
	// because the read-only path never touches m.mu.
	snapTick    atomic.Int64
	nextROID    atomic.Int64
	roBegins    atomic.Int64
	roReads     atomic.Int64
	roCommits   atomic.Int64
	roAborts    atomic.Int64
	roEvictions atomic.Int64
}

// Txn is a live transaction handle, owned by a single goroutine.
type Txn struct {
	mgr *Manager
	job *cc.Job
	res *txnRes // pooled resources; nil once finished
	// donatedPri is the running priority this transaction is currently
	// donating to its blockers (dummy = not donating). Guarded by mgr.mu.
	donatedPri rt.Priority
	done       bool
	// aborted is set by the manager (under mgr.mu) when this transaction
	// is chosen as a cycle victim; the owning goroutine observes it at its
	// next (or current) blocking operation.
	aborted bool
	// waitingCommit marks a transaction blocked in Commit (its Blockers
	// then carry commit-wait edges rather than lock-wait edges).
	waitingCommit bool
}

// New validates the transaction set and returns a manager for it with
// default options.
func New(set *txn.Set) (*Manager, error) { return NewWithOptions(set, Options{}) }

// NewWithOptions validates the transaction set and returns a manager
// configured by opts.
func NewWithOptions(set *txn.Set, opts Options) (*Manager, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("rtm: %w", err)
	}
	ceil := txn.ComputeCeilings(set)
	p := pcpda.New()
	p.Init(set, ceil)
	m := &Manager{
		set:     set,
		ceil:    ceil,
		proto:   p,
		locks:   lock.NewTable(),
		store:   db.NewStore(),
		hist:    history.NewRecorder(),
		opts:    opts,
		inj:     opts.Injector,
		active:  make(map[rt.JobID]*Txn),
		byTmpl:  make(map[txn.ID]*Txn),
		nextRun: db.InitRun + 1,
		rng:     rand.New(rand.NewSource(opts.Seed)),

		waitOn:     make(map[rt.JobID][]*waitNode),
		tmplWait:   make(map[txn.ID][]*waitNode),
		cycleColor: make(map[rt.JobID]int),
	}
	m.initCeilIndex()
	return m, nil
}

// --- cc.Env over the live state ---------------------------------------------

// Now returns the logical clock (one tick per manager operation).
// Called by protocol hooks while the kernel runs under the manager lock.
//
//pcpda:holds mu
func (m *Manager) Now() rt.Ticks { return m.clock }

// Locks returns the shared lock table.
func (m *Manager) Locks() *lock.Table { return m.locks }

// Job resolves a live job id.
//
//pcpda:holds mu
func (m *Manager) Job(id rt.JobID) *cc.Job {
	if t, ok := m.active[id]; ok {
		return t.job
	}
	return nil
}

// ActiveJobs returns the live jobs in id order. The live list is maintained
// in that order already (job ids are assigned monotonically and removals
// splice), so no sort is needed.
//
//pcpda:holds mu
func (m *Manager) ActiveJobs() []*cc.Job {
	out := make([]*cc.Job, 0, len(m.actList))
	for _, t := range m.actList {
		out = append(out, t.job)
	}
	return out
}

var _ cc.Env = (*Manager)(nil)
var _ cc.CeilingIndex = (*Manager)(nil)

// --- public API ---------------------------------------------------------------

// Begin starts an instance of the named transaction type. It blocks while
// another instance of the same type is live (periodic transactions are
// non-reentrant; the ceiling analysis assumes a total priority order among
// live transactions).
func (m *Manager) Begin(ctx context.Context, name string) (*Txn, error) {
	tmpl := m.set.ByName(name)
	if tmpl == nil {
		return nil, fmt.Errorf("rtm: unknown transaction type %q", name)
	}
	if err := ctx.Err(); err != nil {
		return nil, &cancelledError{cause: err}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.byTmpl[tmpl.ID] != nil {
		if err := m.parkBegin(ctx, tmpl.ID); err != nil {
			return nil, err
		}
	}
	t := m.admit(tmpl)
	if err := m.inject(fault.BeginTxn, t, true); err != nil {
		return nil, err
	}
	return t, nil
}

// admit creates and registers a new instance of tmpl — the admission body
// shared by Begin and BeginBatch. Caller holds m.mu and has already
// established that tmpl's slot is free.
func (m *Manager) admit(tmpl *txn.Template) *Txn {
	m.clock++
	res := m.getRes()
	// The handle and its job are one allocation. Neither is pooled: a
	// finished handle's job stays inspectable.
	a := &struct {
		t Txn
		j cc.Job
	}{}
	j, t := &a.j, &a.t
	*j = cc.Job{
		ID:         m.nextJob,
		Run:        m.nextRun,
		Tmpl:       tmpl,
		Release:    m.clock,
		Status:     cc.Ready,
		RunPri:     tmpl.Priority,
		DataRead:   res.dataRead,
		WS:         res.ws,
		FinishTick: -1,
		MissedAt:   -1,
	}
	if m.opts.FirmDeadlines {
		if d := m.relDeadline(tmpl); d > 0 {
			j.AbsDeadline = j.Release + d
		}
	}
	m.nextJob++
	m.nextRun++
	*t = Txn{mgr: m, job: j, res: res}
	res.wn.t = t
	m.active[j.ID] = t
	m.byTmpl[tmpl.ID] = t
	m.actList = append(m.actList, t)
	m.hist.Begin(m.clock, j.Run, tmpl.ID)
	m.stats.Begins++
	return t
}

// relDeadline resolves the relative firm deadline (in ticks) for tmpl.
func (m *Manager) relDeadline(tmpl *txn.Template) rt.Ticks {
	if m.opts.DeadlineOf != nil {
		if d := m.opts.DeadlineOf(tmpl); d > 0 {
			return d
		}
	}
	return tmpl.RelativeDeadline()
}

// Read acquires a PCP-DA read lock on item (blocking while the locking
// conditions deny it) and returns the visible value: the transaction's own
// pending write if present, the last committed value otherwise.
func (t *Txn) Read(ctx context.Context, item rt.Item) (db.Value, error) {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.entry(ctx, t); err != nil {
		return 0, err
	}
	if !t.job.Tmpl.ReadSet().Has(item) && !t.job.Tmpl.WriteSet().Has(item) {
		return 0, fmt.Errorf("rtm: %s reads undeclared item %d", t.job.Tmpl.Name, item)
	}
	for {
		if err := m.inject(fault.LockRequest, t, true); err != nil {
			return 0, err
		}
		dec := m.proto.Request(m, t.job, item, rt.Read)
		if dec.Granted {
			break
		}
		t.job.Status = cc.Blocked
		t.job.BlockedOn = item
		t.job.BlockedMode = rt.Read
		t.job.Blockers = dec.Blockers
		m.stats.LockWaits++
		// No unlock-delay here: the deny decision must stay atomic with the
		// park, or the blocker's wakeup broadcast can be lost.
		if err := m.inject(fault.BlockWait, t, false); err != nil {
			return 0, err
		}
		if err := m.park(ctx, t, waitLock); err != nil {
			return 0, err
		}
	}
	t.job.Status = cc.Ready
	t.job.Blockers = nil
	m.clock++
	if m.locks.Acquire(t.job.ID, item, rt.Read) {
		m.ceilAdd(t, item)
	}
	t.job.DataRead.Add(item)
	if err := m.inject(fault.LockGrant, t, false); err != nil {
		return 0, err
	}
	if v, own := t.job.WS.Get(item); own {
		m.hist.Read(m.clock, t.job.Run, t.job.Tmpl.ID, item, -1, t.job.Run)
		return v, nil
	}
	v, ver, from := m.store.Read(item)
	m.hist.Read(m.clock, t.job.Run, t.job.Tmpl.ID, item, ver, from)
	return v, nil
}

// Write acquires a PCP-DA write lock on item (LC1: blocking while a foreign
// read lock exists) and buffers v in the private workspace.
func (t *Txn) Write(ctx context.Context, item rt.Item, v db.Value) error {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.entry(ctx, t); err != nil {
		return err
	}
	if !t.job.Tmpl.WriteSet().Has(item) {
		return fmt.Errorf("rtm: %s writes undeclared item %d", t.job.Tmpl.Name, item)
	}
	for {
		if err := m.inject(fault.LockRequest, t, true); err != nil {
			return err
		}
		dec := m.proto.Request(m, t.job, item, rt.Write)
		if dec.Granted {
			break
		}
		t.job.Status = cc.Blocked
		t.job.BlockedOn = item
		t.job.BlockedMode = rt.Write
		t.job.Blockers = dec.Blockers
		m.stats.LockWaits++
		// See Read: no unlock-delay between the deny decision and the park.
		if err := m.inject(fault.BlockWait, t, false); err != nil {
			return err
		}
		if err := m.park(ctx, t, waitLock); err != nil {
			return err
		}
	}
	t.job.Status = cc.Ready
	t.job.Blockers = nil
	m.clock++
	m.locks.Acquire(t.job.ID, item, rt.Write)
	t.job.WS.Write(item, v)
	if err := m.inject(fault.LockGrant, t, false); err != nil {
		return err
	}
	return nil
}

// Commit installs the workspace and releases every lock. It blocks until no
// live transaction still depends on the pre-commit versions of the items
// being written (see the package comment).
func (t *Txn) Commit(ctx context.Context) error {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.entry(ctx, t); err != nil {
		return err
	}
	if err := m.inject(fault.CommitEntry, t, true); err != nil {
		return err
	}
	for {
		stale := m.staleReaders(t)
		if len(stale) == 0 {
			break
		}
		t.job.Status = cc.Blocked
		t.job.BlockedOn = rt.NoItem
		t.job.Blockers = stale
		t.waitingCommit = true
		m.stats.CommitWaits++
		// See Read: no unlock-delay between the stale-reader decision and
		// the park.
		if err := m.inject(fault.CommitWait, t, false); err != nil {
			t.waitingCommit = false
			return err
		}
		err := m.park(ctx, t, waitCommit)
		t.waitingCommit = false
		if err != nil {
			return err
		}
	}
	t.job.Status = cc.Ready
	t.job.Blockers = nil
	// No unlock between the stale-reader decision and installation: a new
	// reader admitted in between could otherwise observe a torn state.
	if err := m.inject(fault.CommitInstall, t, false); err != nil {
		return err
	}
	m.clock++
	t.res.installed = t.job.WS.InstallIntoAt(t.res.installed[:0], m.store, t.job.Run, int64(m.clock))
	for _, ins := range t.res.installed {
		m.hist.Write(m.clock, t.job.Run, t.job.Tmpl.ID, ins.Item, ins.Version)
	}
	m.hist.Commit(m.clock, t.job.Run, t.job.Tmpl.ID)
	t.job.FinishTick = m.clock
	t.job.Status = cc.Done
	m.stats.Commits++
	// Publish the snapshot horizon only after every version of this commit
	// is chained: a read-only transaction that loads snapTick >= m.clock
	// (acquire) is then guaranteed to observe all of them (release).
	m.snapTick.Store(int64(m.clock))
	m.finish(t)
	return nil
}

// Abort discards the transaction's workspace and releases its locks. Safe
// to call at any point before Commit returns nil; idempotent, including
// after a failure that already cleaned the transaction up.
func (t *Txn) Abort() {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.done {
		return
	}
	m.clock++
	m.hist.Abort(m.clock, t.job.Run, t.job.Tmpl.ID)
	t.job.Status = cc.Aborted
	m.stats.Aborts++
	m.finish(t)
}

// Aborts returns the number of cycle-breaking aborts the manager has
// performed (zero under the paper's execution assumptions).
func (m *Manager) Aborts() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aborts
}

// Stats is a snapshot of the manager's lifetime counters.
type Stats struct {
	Begins         int // transactions started
	Batches        int // BeginBatch calls that admitted at least one instance
	Commits        int // successful commits
	Aborts         int // explicit Abort() calls + injected forced aborts
	CycleAborts    int // cycle-breaking victim aborts
	Cancellations  int // transactions torn down by context cancellation/expiry
	DeadlineAborts int // firm-deadline aborts (ErrDeadlineMissed)
	Retries        int // Exec retry attempts after a retryable failure
	InjectedFaults int // injector actions applied (delays, wakeups, aborts, cancels)
	Live           int // currently active transactions
	LockWaits      int // blocking episodes on lock requests
	CommitWaits    int // blocking episodes waiting out stale readers

	// Clock and LockTableOps witness the read-only path's isolation: every
	// operation that holds the manager mutex ticks the clock, and every
	// lock-table mutation bumps the ops counter, so a pure read-only phase
	// leaves both exactly unchanged while the RO* counters advance.
	Clock        int64 // logical clock (ticks once per mutex-held manager operation)
	LockTableOps int64 // lock-table acquire/release mutations, lifetime

	ROBegins    int64 // read-only snapshot transactions started
	ROReads     int64 // snapshot reads answered from the version chains
	ROCommits   int64 // read-only transactions finished via Commit
	ROAborts    int64 // read-only transactions finished via Abort
	ROEvictions int64 // snapshot reads refused because the version was truncated

	// The update-transaction history: a window of the newest operations and
	// a continuous audit of every commit (history.Recorder). Read-only
	// snapshot commits never enter it, so CommitsAudited tracks Commits.
	HistoryRetained int    // operations in the window (at most history.RingCap)
	HistoryEvicted  uint64 // operations recorded and no longer retained
	CommitsAudited  uint64 // commits validated by the continuous audit
	AuditViolations uint64 // violations the audit has latched, lifetime (must read 0)
}

// Stats returns the current counter snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.CycleAborts = m.aborts
	s.Live = len(m.active)
	s.Clock = int64(m.clock)
	s.LockTableOps = m.locks.Ops()
	s.ROBegins = m.roBegins.Load()
	s.ROReads = m.roReads.Load()
	s.ROCommits = m.roCommits.Load()
	s.ROAborts = m.roAborts.Load()
	s.ROEvictions = m.roEvictions.Load()
	s.HistoryRetained = m.hist.Retained()
	s.HistoryEvicted = m.hist.Evicted()
	s.CommitsAudited = m.hist.Audit().Commits()
	s.AuditViolations = m.hist.Audit().Flagged()
	return s
}

// History returns the retained history window — the newest history.RingCap
// operations, oldest first — as a snapshot taken under the manager mutex:
// safe to call and to inspect at any time, whatever is live. Older
// operations are gone from it, but not unchecked: every commit was audited
// as it happened (Stats.CommitsAudited, CheckInvariants).
func (m *Manager) History() *history.History { return m.HistoryTail(history.RingCap) }

// HistoryTail is History restricted to the newest n operations: what a
// failed audit prints beside its violation.
func (m *Manager) HistoryTail(n int) *history.History {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hist.Tail(n)
}

// ResetHistory empties the retained window, keeping its allocation, so the
// next History or CheckInvariants sees only what is recorded from here on
// (the benchmark's audit windows). Memory is bounded without it; the
// continuous audit is unaffected by it.
func (m *Manager) ResetHistory() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hist.Reset()
}

// ReadCommitted returns the last committed value of item without starting a
// transaction (a dirty-read-free peek, usable for monitoring).
func (m *Manager) ReadCommitted(item rt.Item) db.Value {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, _, _ := m.store.Read(item)
	return v
}

// CheckInvariants audits the manager's internal consistency: every lock in
// the table belongs to a live transaction and lies inside its declared
// sets, every read/buffered-write is backed by the matching lock (so the
// dynamic ceilings derived from the table agree with what transactions
// actually did), the per-template live map matches the active map exactly,
// and the recorded history is serializable with commit-order intact — the
// retained window by the batch checker, every commit ever made by the
// continuous audit, so the cost is bounded at any uptime.
//
// It is safe to call at any time; after a quiescent point (no live
// transactions) it additionally proves that no failure path leaked state.
// The chaos harness calls it after every fault schedule.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var probs []string
	badf := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	m.locks.EachReadLock(func(x rt.Item, o rt.JobID) {
		if _, ok := m.active[o]; !ok {
			badf("leaked read lock on item %d held by finished job %d", x, o)
		}
	})
	m.locks.EachWriteLock(func(x rt.Item, o rt.JobID) {
		if _, ok := m.active[o]; !ok {
			badf("leaked write lock on item %d held by finished job %d", x, o)
		}
	})

	ids := make([]rt.JobID, 0, len(m.active))
	for id := range m.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := m.active[id]
		if t.done {
			badf("job %d is finished but still in the active map", id)
		}
		if t.job.ID != id {
			badf("active map key %d holds job %d", id, t.job.ID)
		}
		if t.job.Status != cc.Ready && t.job.Status != cc.Blocked {
			badf("live job %d has terminal status %v", id, t.job.Status)
		}
		for _, x := range t.job.DataRead.Items() {
			if !m.locks.HoldsRead(id, x) {
				badf("job %d read item %d without a surviving read lock", id, x)
			}
		}
		for _, x := range t.job.WS.Items() {
			if !m.locks.HoldsWrite(id, x) {
				badf("job %d buffered a write of item %d without a write lock", id, x)
			}
		}
		for _, x := range m.locks.HeldBy(id) {
			if !t.job.Tmpl.ReadSet().Has(x) && !t.job.Tmpl.WriteSet().Has(x) {
				badf("job %d holds a lock on undeclared item %d", id, x)
			}
		}
		if m.byTmpl[t.job.Tmpl.ID] != t {
			badf("active job %d missing from the per-template map", id)
		}
	}
	for tid, t := range m.byTmpl {
		if t.job.Tmpl.ID != tid {
			badf("per-template map key %d holds template %d", tid, t.job.Tmpl.ID)
		}
		if m.active[t.job.ID] != t {
			badf("orphaned per-template entry for template %d (job %d not active)", tid, t.job.ID)
		}
	}
	if len(m.byTmpl) != len(m.active) {
		badf("map cardinality mismatch: %d active vs %d per-template entries", len(m.active), len(m.byTmpl))
	}

	// The ordered live list must mirror the active map exactly.
	if len(m.actList) != len(m.active) {
		badf("live list cardinality mismatch: %d listed vs %d active", len(m.actList), len(m.active))
	}
	for i, t := range m.actList {
		if m.active[t.job.ID] != t {
			badf("live list entry %d (job %d) not in the active map", i, t.job.ID)
		}
		if i > 0 && m.actList[i-1].job.ID >= t.job.ID {
			badf("live list out of order at %d: job %d after job %d", i, t.job.ID, m.actList[i-1].job.ID)
		}
	}

	// The incremental ceiling index must agree with a from-scratch
	// recomputation over the lock table.
	wantCeil := make([]int32, m.dom.Size())
	wantPer := make(map[rt.JobID][]int32, len(m.active))
	m.locks.EachReadLock(func(x rt.Item, o rt.JobID) {
		if int(x) >= len(m.wceilRank) {
			badf("read lock on item %d outside the declared item range", x)
			return
		}
		r := int(m.wceilRank[x])
		if r < 0 {
			return
		}
		wantCeil[r]++
		per, ok := wantPer[o]
		if !ok {
			per = make([]int32, m.dom.Size())
			wantPer[o] = per
		}
		per[r]++
	})
	wantTop := -1
	for r := range wantCeil {
		if wantCeil[r] != m.readCeil[r] {
			badf("ceiling index drift at rank %d: counted %d, recomputed %d", r, m.readCeil[r], wantCeil[r])
		}
		if wantCeil[r] > 0 {
			wantTop = r
		}
	}
	if wantTop != m.ceilTop {
		badf("ceiling top drift: counted %d, recomputed %d", m.ceilTop, wantTop)
	}
	for _, t := range m.actList {
		want := wantPer[t.job.ID]
		for r, c := range t.res.ceilCounts {
			w := int32(0)
			if want != nil {
				w = want[r]
			}
			if c != w {
				badf("job %d ceiling counts drift at rank %d: counted %d, recomputed %d", t.job.ID, r, c, w)
			}
		}
	}

	// Incremental donation-based running priorities must agree with the
	// classical inheritance fixpoint recomputed from scratch.
	wantPri := make(map[rt.JobID]rt.Priority, len(m.active))
	m.fixpointPri(wantPri)
	for _, id := range ids {
		t := m.active[id]
		if t.job.RunPri != wantPri[id] {
			badf("job %d running priority drift: %v, fixpoint says %v", id, t.job.RunPri, wantPri[id])
		}
	}

	// Waiter-index sanity: the all-waiters list is position-consistent and
	// every waits-on entry is a registered node.
	for i, n := range m.allWaiters {
		if n.allIdx != i {
			badf("waiter at slot %d carries index %d", i, n.allIdx)
		}
	}
	for id, s := range m.waitOn {
		for _, n := range s {
			if !n.parked() {
				badf("unregistered wait node filed under job %d", id)
			}
		}
	}

	// The multiversion chain index must agree with the flat store and the
	// lock table: every item's newest chain node is exactly the cell state,
	// chain ticks never outrun the clock, the published snapshot horizon
	// covers every chained commit, no chain exceeds its bound, and no
	// chain head was written by a still-live run (versions are installed
	// only at commit, after which the writer's locks are gone).
	snap := m.snapTick.Load()
	if snap > int64(m.clock) {
		badf("published snapshot tick %d ahead of clock %d", snap, m.clock)
	}
	liveRuns := make(map[db.RunID]rt.JobID, len(m.actList))
	for _, t := range m.actList {
		liveRuns[t.job.Run] = t.job.ID
	}
	m.store.EachNewestVersion(func(x rt.Item, v db.Value, ver db.Version, writer db.RunID, tick int64) {
		cv, cver, cw := m.store.Read(x)
		if cv != v || cver != ver || cw != writer {
			badf("item %d chain head %d@v%d by run %d disagrees with store cell %d@v%d by run %d",
				x, v, ver, writer, cv, cver, cw)
		}
		if tick > int64(m.clock) {
			badf("item %d chain head stamped tick %d ahead of clock %d", x, tick, m.clock)
		}
		if tick > snap {
			badf("item %d chain head (tick %d) not covered by published snapshot tick %d", x, tick, snap)
		}
		if id, live := liveRuns[writer]; live {
			badf("item %d chain head written by run %d of still-live job %d", x, writer, id)
		}
		if n := m.store.ChainLen(x); n > m.store.ChainLimit() {
			badf("item %d chain length %d exceeds limit %d", x, n, m.store.ChainLimit())
		}
	})

	// The batch check covers the retained window; the continuous audit has
	// covered every commit since the manager was built, evicted or not.
	rep := m.hist.Snapshot().Check()
	if !rep.Serializable {
		badf("history not serializable: %v", rep.Violations)
	}
	if !rep.CommitOrderOK {
		badf("history violates commit order: %v", rep.Violations)
	}
	if a := m.hist.Audit(); a.Flagged() > 0 {
		badf("continuous audit latched %d violations over %d commits, first: %v", a.Flagged(), a.Commits(), a.Violations())
	}

	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("rtm: invariant violations: %s", strings.Join(probs, "; "))
}

// --- internals ----------------------------------------------------------------

// entry performs the common checks at the top of every Txn operation:
// handle still open, pending cycle-victim abort, caller context alive, firm
// deadline not passed. Any failure is self-cleaning. Caller holds m.mu.
func (m *Manager) entry(ctx context.Context, t *Txn) error {
	if err := t.usable(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return m.cancel(t, err)
	}
	return m.checkDeadline(t)
}

func (t *Txn) usable() error {
	if t.done {
		return ErrClosed
	}
	if t.aborted {
		m := t.mgr
		m.clock++
		m.hist.Abort(m.clock, t.job.Run, t.job.Tmpl.ID)
		t.job.Status = cc.Aborted
		m.finish(t)
		return ErrAborted
	}
	return nil
}

// cancel tears t down exactly as Abort would (workspace discarded, locks
// released, slot freed) and returns ErrCancelled wrapping cause. Caller
// holds m.mu.
func (m *Manager) cancel(t *Txn, cause error) error {
	if !t.done {
		m.clock++
		m.hist.Abort(m.clock, t.job.Run, t.job.Tmpl.ID)
		t.job.Status = cc.Aborted
		m.stats.Cancellations++
		m.finish(t)
	}
	return &cancelledError{cause: cause}
}

// checkDeadline aborts t with ErrDeadlineMissed once firm deadlines are on
// and the logical clock has reached t's absolute deadline. Caller holds
// m.mu.
func (m *Manager) checkDeadline(t *Txn) error {
	if !m.opts.FirmDeadlines || t.done || t.job.AbsDeadline <= 0 || m.clock < t.job.AbsDeadline {
		return nil
	}
	m.clock++
	t.job.MissedAt = m.clock
	m.hist.Abort(m.clock, t.job.Run, t.job.Tmpl.ID)
	t.job.Status = cc.Aborted
	m.stats.DeadlineAborts++
	m.finish(t)
	return ErrDeadlineMissed
}

// inject consults the configured injector at point p on behalf of t and
// applies the chosen action through the regular failure paths. Caller holds
// m.mu. mayUnlock permits the Delay action to release the manager lock
// while yielding; pass false at points where the preceding decision must
// stay atomic with the following state change (post-grant bookkeeping,
// commit installation).
func (m *Manager) inject(p fault.Point, t *Txn, mayUnlock bool) error {
	if m.inj == nil {
		return nil
	}
	switch m.inj.At(p, t.job.Tmpl.Name) {
	case fault.Delay:
		m.stats.InjectedFaults++
		if mayUnlock {
			m.mu.Unlock()
			runtime.Gosched()
			m.mu.Lock()
		}
		return t.usable() // the world may have moved while we yielded
	case fault.Wakeup:
		m.stats.InjectedFaults++
		// A spurious broadcast: wake every parked waiter so each re-evaluates
		// its condition (the chaos harness relies on this exercising the
		// re-check paths exactly as the legacy condition broadcast did).
		m.wakeAll()
		return nil
	case fault.ForceAbort:
		m.stats.InjectedFaults++
		m.stats.Aborts++
		m.clock++
		m.hist.Abort(m.clock, t.job.Run, t.job.Tmpl.ID)
		t.job.Status = cc.Aborted
		m.finish(t)
		return ErrAborted
	case fault.ForceCancel:
		m.stats.InjectedFaults++
		return m.cancel(t, fault.ErrInjected)
	}
	return nil
}

// finish removes t from the live structures and wakes exactly the waiters
// whose blocking condition could have changed: those filed under t's job id
// (lock and commit waiters — locks release only here, so any deny→grant flip
// traces to a finishing blocker) and Begin waiters for t's template slot.
// Caller holds m.mu; t.job.Status must already be Done or Aborted, and t's
// wait node must not be registered (park always deregisters before any
// failure path reaches here).
func (m *Manager) finish(t *Txn) {
	if t.done {
		return
	}
	t.done = true
	if t.job.Status == cc.Aborted {
		t.job.WS.Discard()
	}
	m.ceilRelease(t)
	m.locks.ReleaseAllUnordered(t.job.ID)
	delete(m.active, t.job.ID)
	if m.byTmpl[t.job.Tmpl.ID] == t {
		delete(m.byTmpl, t.job.Tmpl.ID)
	}
	for i, o := range m.actList {
		if o == t {
			m.actList = append(m.actList[:i], m.actList[i+1:]...)
			break
		}
	}
	m.wakeWaitersOn(t.job.ID)
	m.wakeTmpl(t.job.Tmpl.ID)
	res := t.res
	t.res = nil
	// Detach the pooled containers from the (never reused) job so a handle
	// inspected after the fact cannot observe a successor's data.
	t.job.DataRead = nil
	t.job.WS = nil
	m.putRes(res)
}

// staleReaders lists live transactions (other than t) that have read an item
// in t's pending write set: they observed the pre-commit version and must
// commit first. In this manager DataRead(o) coincides exactly with o's read
// locks (strict 2PL, locks release only at finish), so the set inverts to
// "readers of t's written items" straight off the lock-table entry lists —
// O(write set × readers) instead of O(live × write set), and allocation-free
// (the result reuses t's blocker scratch buffer, stable while t is parked).
func (m *Manager) staleReaders(t *Txn) []rt.JobID {
	buf := t.res.blockers[:0]
	self := t.job.ID
	t.job.WS.EachItem(func(x rt.Item) {
		m.locks.EachReader(x, func(o rt.JobID) bool {
			if o != self {
				buf = appendUniqueID(buf, o)
			}
			return true
		})
	})
	slices.Sort(buf)
	t.res.blockers = buf
	return buf
}

func appendUniqueID(ids []rt.JobID, id rt.JobID) []rt.JobID {
	for _, have := range ids {
		if have == id {
			return ids
		}
	}
	return append(ids, id)
}

// resolveCycle looks for a wait cycle reachable from start (lock waits and
// commit waits combined) and returns the lowest-base-priority member as the
// victim, or nil when no cycle exists. The DFS colouring reuses manager
// scratch (this runs on every park).
func (m *Manager) resolveCycle(start *Txn) *Txn {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	clear(m.cycleColor)
	color := m.cycleColor
	stack := m.cycleStack[:0]
	defer func() { m.cycleStack = stack[:0] }()
	var cycle []rt.JobID

	var dfs func(t *Txn) bool
	dfs = func(t *Txn) bool {
		color[t.job.ID] = grey
		stack = append(stack, t.job.ID)
		if t.job.Status == cc.Blocked {
			for _, bid := range t.job.Blockers {
				b, ok := m.active[bid]
				if !ok || b.job.Status != cc.Blocked {
					continue
				}
				switch color[b.job.ID] {
				case grey:
					for i := len(stack) - 1; i >= 0; i-- {
						if stack[i] == b.job.ID {
							cycle = append(cycle, stack[i:]...)
							return true
						}
					}
					cycle = append(cycle, b.job.ID, t.job.ID)
					return true
				case white:
					if dfs(b) {
						return true
					}
				}
			}
		}
		color[t.job.ID] = black
		stack = stack[:len(stack)-1]
		return false
	}
	if !dfs(start) {
		return nil
	}
	var victim *Txn
	for _, id := range cycle {
		t, ok := m.active[id]
		if !ok {
			continue
		}
		if victim == nil || t.job.BasePri() < victim.job.BasePri() {
			victim = t
		}
	}
	return victim
}
