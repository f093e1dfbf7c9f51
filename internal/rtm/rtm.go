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
// simulator (pcpda.Protocol.Request over the cc.Env interface, its ceiling
// query lock.Table.Ceiling's walk over the locks held under both), so the
// library and the reproduction cannot drift apart.
//
// # Failure model
//
// Every error exit but one is self-cleaning: when an operation fails, the
// manager has already aborted the transaction — workspace discarded, locks
// released (a ceiling is a function of the locks held, so it falls with
// them), template slot freed — before the error is returned, and a later
// Abort() is a harmless no-op. The exception is a Read or Write of an item
// the template did not declare: that error carries no sentinel and leaves
// the transaction live and usable, so a caller that gives up on it must
// call Abort(), or the template's slot stays taken and every later Begin of
// it waits. The sentinels tell the caller what happened and what to do:
//
//   - ErrAborted: sacrificed (cycle victim or injected fault); retry.
//   - ErrCancelled: the caller's context was cancelled or expired (the
//     concrete context error is wrapped and still matches errors.Is);
//     don't retry on the same context. The context is the caller's one
//     deadline: give it one with context.WithTimeout.
//   - ErrClosed: handle already finished (programming error).
//
// Exec wraps Begin/op/Commit in a bounded retry loop with jittered backoff
// for the retryable sentinels. Options.Injector plugs fault injection
// (package fault) into every blocking/grant/commit boundary, and
// Manager.CheckInvariants audits the lock table, slot table, inherited
// priorities and history after any schedule, faulty or not.
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
// In the kernel's order the manager makes the kernel's decisions and closes
// no wait cycle (sim.TestExploreManagerKernelOrder). Free threading lets a
// low-priority transaction be ceiling-blocked at its own priority before a
// higher one blocks on it; the block raises it, and park re-asks the
// protocol for every lock waiter a block raised before it searches for a
// cycle, as the kernel retries a blocked job at its next dispatch. So no
// interleaving of two templates of up to three steps closes a cycle
// (sim.TestExploreManagerFreeOrder requires none). Should one close, the
// manager aborts its lowest-priority member, its deferred updates discarded
// unseen, with ErrAborted for a retry.
package rtm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
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

// cancelledError couples ErrCancelled with the concrete cause (a context
// error, or fault.ErrInjected) so both match under errors.Is.
type cancelledError struct{ cause error }

func (e *cancelledError) Error() string {
	return ErrCancelled.Error() + " (" + e.cause.Error() + ")"
}
func (e *cancelledError) Is(target error) bool { return target == ErrCancelled }
func (e *cancelledError) Unwrap() error        { return e.cause }

// Options configures optional manager behaviour. The zero value is the
// plain manager: no fault injection.
type Options struct {
	// Injector, when non-nil, is consulted at every blocking, grant and
	// commit boundary (see package fault). Nil costs one branch per
	// boundary.
	Injector fault.Injector
}

// Manager is a live PCP-DA transaction manager. All methods are safe for
// concurrent use.
type Manager struct {
	mu sync.Mutex

	set   *txn.Set        //pcpda:guardedby immutable
	proto *pcpda.Protocol //pcpda:guardedby immutable
	locks *lock.Table     //pcpda:guardedby immutable
	store *db.Store       //pcpda:guardedby immutable

	opts Options        //pcpda:guardedby immutable
	inj  fault.Injector //pcpda:guardedby immutable — copy of opts.Injector; nil ⇒ injection disabled

	// One slot per template, indexed by txn.ID (slot.go): everything the
	// manager keeps about a transaction type and its at-most-one live
	// instance. The slice is built once; its elements are guarded by mu.
	slots   []slot    //pcpda:guardedby immutable
	active  []*cc.Job //pcpda:guardedby mu — the live instances' jobs, in admission (= ascending job-id) order
	nextJob rt.JobID  //pcpda:guardedby mu — the next instance's job id; its run id is runOf that
	clock   rt.Ticks  //pcpda:guardedby mu — logical time: one tick per manager operation

	// hist retains the newest history.RingCap operations and audits every
	// commit as it happens (history.Recorder): bounded at any uptime.
	hist *history.Recorder //pcpda:guardedby mu

	pris []rt.Priority //pcpda:guardedby mu — inherit's scratch, one per slot: running priorities before the recompute, in active order

	// Targeted-wakeup machinery (see wait.go).
	freeNodes []*waitNode //pcpda:guardedby mu — pooled Begin-waiter nodes

	cycle cc.CycleScratch //pcpda:guardedby mu — resolveCycle's search state, reused across parks

	stats Stats //pcpda:guardedby mu — lifetime counters (Stats fills the rest on read)

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

// Txn is a live transaction handle, owned by a single goroutine. It holds
// only what must outlive the instance; everything else is in the slot, which
// the next instance of the template reuses. Once done is set the handle
// answers from its own fields and never looks at the slot's state again.
// slot and id are set before Begin returns and never change; done and
// aborted are guarded by the manager mutex (slot.mgr.mu).
type Txn struct {
	slot *slot
	id   rt.JobID
	done bool
	// aborted is set by the manager when this transaction is chosen as a
	// cycle victim; the owning goroutine observes it at its next (or
	// current) blocking operation.
	aborted bool
}

// runOf is the run id of the manager's job id: an instance runs once (a
// retry after an abort is a new Begin, so a new job), which makes one counter
// enough for both id spaces; runs start above db.InitRun.
func runOf(id rt.JobID) db.RunID { return db.InitRun + 1 + db.RunID(id) }

// run is the run id this instance's history records and versions carry. It
// answers from the handle, so it is safe after the instance finished and its
// slot was admitted again.
func (t *Txn) run() db.RunID { return runOf(t.id) }

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
		set:   set,
		proto: p,
		locks: lock.NewTable(),
		store: db.NewStore(),
		hist:  history.NewRecorder(),
		opts:  opts,
		inj:   opts.Injector,
	}
	m.initSlots()
	return m, nil
}

// --- cc.Env over the live state ---------------------------------------------

// Locks returns the shared lock table.
func (m *Manager) Locks() *lock.Table { return m.locks }

// Job resolves a live job id.
//
//pcpda:holds mu
func (m *Manager) Job(id rt.JobID) *cc.Job {
	if s := m.live(id); s != nil {
		return &s.job
	}
	return nil
}

// ActiveJobs returns the live jobs in id order: the live list itself, kept in
// that order (job ids are assigned monotonically and removals splice).
//
//pcpda:holds mu
func (m *Manager) ActiveJobs() []*cc.Job { return m.active }

var _ cc.Env = (*Manager)(nil)

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
	select { // a poll of Done: Err would take the context's mutex
	case <-ctx.Done():
		return nil, &cancelledError{cause: ctx.Err()}
	default:
	}
	t := new(Txn) // the one allocation, made outside the critical section
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &m.slots[tmpl.ID]
	for s.cur != nil {
		if err := m.parkBegin(ctx, s); err != nil {
			return nil, err
		}
	}
	m.admit(s, t)
	if err := m.inject(fault.BeginTxn, t, true); err != nil {
		return nil, err
	}
	return t, nil
}

// admit starts a new instance in the free slot s under the fresh handle t —
// the admission body shared by Begin and BeginBatch, which make t before
// they take the mutex. Caller holds m.mu. The slot's job is reset field by
// field: its template, read set and workspace never change, and finish left
// the rest of the slot clean.
func (m *Manager) admit(s *slot, t *Txn) {
	m.clock++
	j := &s.job
	j.ID = m.nextJob
	j.Run = runOf(j.ID)
	j.Release = m.clock
	j.Status = cc.Ready
	j.RunPri = s.tmpl.Priority
	j.EverBlockedBy = j.EverBlockedBy[:0]
	j.FinishTick = -1
	m.nextJob++
	t.slot, t.id = s, j.ID
	s.cur = t
	m.active = append(m.active, j)
	m.hist.Begin(m.clock, j.Run, s.tmpl.ID)
	m.stats.Begins++
}

// acquire takes t's lock on item in the given mode, blocking while the
// locking conditions deny it: request, apply the decision (cc.Apply, the
// kernel's transition), and on a denial park and ask again. A woken waiter
// stays Blocked until its next request is decided, as in the kernel. Every
// lock decision the manager makes is made here. It returns with the lock in
// the table, a read recorded in DataRead, and one tick charged. Caller holds
// m.mu and has passed entry.
func (m *Manager) acquire(ctx context.Context, t *Txn, item rt.Item, mode rt.Mode) error {
	j := &t.slot.job
	for {
		if err := m.inject(fault.LockRequest, t, true); err != nil {
			return err
		}
		dec := m.proto.Request(m, j, item, mode)
		changed := cc.Apply(m, j, item, mode, dec, &m.stats.Decisions)
		if dec.Granted {
			if changed {
				m.inherit()
			}
			m.clock++
			return nil
		}
		m.stats.LockWaits++
		// No unlock-delay here: the deny decision must stay atomic with the
		// park, or the blocker's wakeup broadcast can be lost.
		if err := m.inject(fault.BlockWait, t, false); err != nil {
			return err
		}
		if err := m.park(ctx, t, waitLock, changed); err != nil {
			return err
		}
		if j.Status != cc.Blocked { // granted by a retry in another call's park
			m.clock++
			return nil
		}
	}
}

// Read acquires a PCP-DA read lock on item (blocking while the locking
// conditions deny it) and returns the visible value: the transaction's own
// pending write if present, the last committed value otherwise.
func (t *Txn) Read(ctx context.Context, item rt.Item) (db.Value, error) {
	m := t.slot.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	j := &t.slot.job
	if err := m.entry(ctx, t); err != nil {
		return 0, err
	}
	if !j.Tmpl.ReadSet().Has(item) && !j.Tmpl.WriteSet().Has(item) {
		return 0, fmt.Errorf("rtm: %s reads undeclared item %d", j.Tmpl.Name, item)
	}
	if err := m.acquire(ctx, t, item, rt.Read); err != nil {
		return 0, err
	}
	if err := m.inject(fault.LockGrant, t, false); err != nil {
		return 0, err
	}
	if v, own := j.WS.Get(item); own {
		m.hist.Read(m.clock, j.Run, j.Tmpl.ID, item, -1, j.Run)
		return v, nil
	}
	v, ver, from := m.store.Read(item)
	m.hist.Read(m.clock, j.Run, j.Tmpl.ID, item, ver, from)
	return v, nil
}

// Write acquires a PCP-DA write lock on item (LC1: blocking while a foreign
// read lock exists) and buffers v in the private workspace.
func (t *Txn) Write(ctx context.Context, item rt.Item, v db.Value) error {
	m := t.slot.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	j := &t.slot.job
	if err := m.entry(ctx, t); err != nil {
		return err
	}
	if !j.Tmpl.WriteSet().Has(item) {
		return fmt.Errorf("rtm: %s writes undeclared item %d", j.Tmpl.Name, item)
	}
	if err := m.acquire(ctx, t, item, rt.Write); err != nil {
		return err
	}
	j.WS.Write(item, v)
	return m.inject(fault.LockGrant, t, false)
}

// Commit installs the workspace and releases every lock. It blocks until no
// live transaction still depends on the pre-commit versions of the items
// being written (see the package comment).
func (t *Txn) Commit(ctx context.Context) error {
	m := t.slot.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	j := &t.slot.job
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
		changed := cc.Wait(j, rt.NoItem, rt.Write, stale)
		m.stats.CommitWaits++
		// See acquire: no unlock-delay between the stale-reader decision and
		// the park.
		if err := m.inject(fault.CommitWait, t, false); err != nil {
			return err
		}
		if err := m.park(ctx, t, waitCommit, changed); err != nil {
			return err
		}
	}
	// A job that waited is still Blocked, on readers that have all finished:
	// it donates to nobody, and finish's cc.Retire reports it. No unlock
	// between the stale-reader decision and installation: a new reader
	// admitted in between could otherwise observe a torn state.
	if err := m.inject(fault.CommitInstall, t, false); err != nil {
		return err
	}
	m.clock++
	t.slot.installed = j.WS.InstallIntoAt(t.slot.installed[:0], m.store, j.Run, int64(m.clock))
	for _, ins := range t.slot.installed {
		m.hist.Write(m.clock, j.Run, j.Tmpl.ID, ins.Item, ins.Version)
	}
	m.hist.Commit(m.clock, j.Run, j.Tmpl.ID)
	j.FinishTick = m.clock
	m.stats.Commits++
	// Publish the snapshot horizon only after every version of this commit
	// is chained: a read-only transaction that loads snapTick >= m.clock
	// (acquire) is then guaranteed to observe all of them (release).
	m.snapTick.Store(int64(m.clock))
	m.finish(t, cc.Done)
	return nil
}

// Abort discards the transaction's workspace and releases its locks. Safe
// to call at any point before Commit returns nil; idempotent, including
// after a failure that already cleaned the transaction up.
func (t *Txn) Abort() {
	m := t.slot.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.done {
		return
	}
	m.clock++
	m.stats.Aborts++
	m.kill(t)
}

// Stats is a snapshot of the manager's lifetime counters.
type Stats struct {
	Begins         int // transactions started
	Batches        int // BeginBatch calls that admitted at least one instance
	Commits        int // successful commits
	Aborts         int // explicit Abort() calls + injected forced aborts
	CycleAborts    int // cycle-breaking victim aborts: none in the kernel's order nor in any free order the explorer reaches (sim.TestExploreManagerFreeOrder)
	Cancellations  int // transactions torn down by context cancellation/expiry
	Retries        int // Exec retry attempts after a retryable failure
	InjectedFaults int // injector actions applied (delays, wakeups, aborts, cancels)
	Live           int // currently active transactions
	LockWaits      int // blocking episodes on lock requests
	CommitWaits    int // blocking episodes waiting out stale readers

	// Decisions counts lock decisions by the rule that fired (LC1–LC4 for
	// grants, "ceiling", "rw-conflict" or "wr-conflict" for denials): every
	// grant, and a denial once per blocking episode, however often a woken
	// waiter is denied again; a rule met only on such a retry still has its
	// line, with no Blocks. LockWaits counts every denial.
	Decisions cc.Tally

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
	s.Decisions = slices.Clone(s.Decisions)
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

// CheckInvariants audits the manager's internal consistency. First the
// audit the kernel runs too (cc.CheckState): every lock belongs to a live
// transaction, lies inside its declared sets and, for a read lock, is
// recorded in DataRead; the live list is in id order; running priorities
// equal the inheritance fixpoint. Then what holds for the manager alone:
// every read and buffered write is backed by the matching lock (strict
// 2PL), the slot table matches the live list exactly and every free slot is
// clean, the wait lists and version chains are consistent, and the recorded
// history is serializable with commit-order intact — the retained window by
// the batch checker, every commit ever made by the continuous audit, so the
// cost is bounded at any uptime. The batch check runs on a copy of the
// window after the manager mutex is released, so transactions keep
// committing while it runs.
//
// It is safe to call at any time; after a quiescent point (no live
// transactions) it additionally proves that no failure path leaked state.
// The live explorer (sim.TestExploreManager*) calls it at every settled
// point of every run and after each, cancelled and faulted runs included.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	probs := m.auditState()
	if a := m.hist.Audit(); a.Flagged() > 0 {
		probs = append(probs, fmt.Sprintf("continuous audit latched %d violations over %d commits, first: %v", a.Flagged(), a.Commits(), a.Violations()))
	}
	window := m.hist.Snapshot()
	m.mu.Unlock()

	// The batch check covers the retained window; the continuous audit has
	// covered every commit since the manager was built, evicted or not.
	rep := window.Check()
	if !rep.Serializable {
		probs = append(probs, fmt.Sprintf("history not serializable: %v", rep.Violations))
	}
	if !rep.CommitOrderOK {
		probs = append(probs, fmt.Sprintf("history violates commit order: %v", rep.Violations))
	}
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("rtm: invariant violations: %s", strings.Join(probs, "; "))
}

// auditState is CheckInvariants' pass over the live structures: the shared
// audit, then the manager's own checks. Caller holds m.mu.
func (m *Manager) auditState() []string {
	probs := cc.CheckState(m)
	badf := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	// The live list holds exactly the jobs of the slots with a live instance,
	// and under strict 2PL every read and buffered write is backed by its
	// lock.
	for i, j := range m.active {
		s, id := &m.slots[j.Tmpl.ID], j.ID
		switch {
		case j != &s.job:
			badf("live list entry %d (job %d) is not template %d's slot", i, id, j.Tmpl.ID)
		case s.cur == nil:
			badf("live list entry %d (job %d) sits in a free slot", i, id)
		case s.cur.done:
			badf("job %d is finished but still in the live list", id)
		case s.cur.slot != s || s.cur.id != id:
			badf("slot of job %d is held by the handle of job %d", id, s.cur.id)
		}
		for _, x := range j.DataRead.Items() {
			if !m.locks.HoldsRead(id, x) {
				badf("job %d read item %d without a surviving read lock", id, x)
			}
		}
		for _, x := range j.WS.Items() {
			if !m.locks.HoldsWrite(id, x) {
				badf("job %d buffered a write of item %d without a write lock", id, x)
			}
		}
	}

	// Every slot: a taken one is in the live list, a free one (or one held
	// for a finished handle still leaving park) carries nothing of its last
	// instance, and whatever is filed in its lists is a registered node.
	for i := range m.slots {
		s := &m.slots[i]
		if s.cur != nil && !s.cur.done {
			if m.live(s.job.ID) != s {
				badf("orphaned slot for template %d (job %d not in the live list)", i, s.job.ID)
			}
		} else if len(s.waiters) != 0 || s.wn.parked() || s.job.DataRead.Len() != 0 || s.job.WS.Len() != 0 {
			badf("free slot of template %d still carries state of job %d", i, s.job.ID)
		}
		for _, n := range s.waiters {
			if !n.parked() {
				badf("unregistered wait node filed under job %d", s.job.ID)
			}
		}
		for _, n := range s.begins {
			if !n.parked() {
				badf("unregistered Begin waiter queued for template %d", i)
			}
		}
	}

	// The version rings must be sound, agree with the flat store and lie
	// within the published snapshot horizon, which never outruns the clock
	// (db.CheckVersions); and no newest version may be by a still-live run
	// (versions are installed only at commit, after which the writer's
	// locks are gone).
	snap := m.snapTick.Load()
	if snap > int64(m.clock) {
		badf("published snapshot tick %d ahead of clock %d", snap, m.clock)
	}
	probs = append(probs, m.store.CheckVersions(snap)...)
	for _, j := range m.active {
		for _, x := range j.Tmpl.WriteSet().Items() {
			if _, _, w := m.store.Read(x); w == j.Run {
				badf("item %d newest version written by run %d of still-live job %d", x, w, j.ID)
			}
		}
	}
	return probs
}

// --- internals ----------------------------------------------------------------

// entry performs the common checks at the top of every Txn operation:
// handle still open, pending cycle-victim abort, caller context alive. Any
// failure is self-cleaning. Caller holds m.mu.
func (m *Manager) entry(ctx context.Context, t *Txn) error {
	if err := m.usable(t); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return m.cancel(t, err)
	}
	return nil
}

func (m *Manager) usable(t *Txn) error {
	if t.done {
		return ErrClosed
	}
	if t.aborted {
		m.clock++
		m.kill(t)
		return ErrAborted
	}
	return nil
}

// kill records live t's abort at the current tick and tears it down: the
// shared tail of every failure path. Caller holds m.mu.
func (m *Manager) kill(t *Txn) {
	j := &t.slot.job
	m.hist.Abort(m.clock, j.Run, j.Tmpl.ID)
	m.finish(t, cc.Aborted)
}

// cancel tears t down exactly as Abort would (workspace discarded, locks
// released, slot freed) and returns ErrCancelled wrapping cause. Caller
// holds m.mu.
func (m *Manager) cancel(t *Txn, cause error) error {
	if !t.done {
		m.clock++
		m.stats.Cancellations++
		m.kill(t)
	}
	return &cancelledError{cause: cause}
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
	switch m.inj.At(p, t.slot.tmpl.Name) {
	case fault.Delay:
		m.stats.InjectedFaults++
		if mayUnlock {
			m.mu.Unlock()
			runtime.Gosched()
			m.mu.Lock()
		}
		return m.usable(t) // the world may have moved while we yielded
	case fault.Wakeup:
		m.stats.InjectedFaults++
		// A spurious broadcast: wake every parked waiter so each re-evaluates
		// its condition. The live explorer's wakeup letters fire it inside
		// its runs and demand that each renders the run without it: a
		// re-evaluation may change nothing the targeted wakes did not.
		m.wakeAll()
		return nil
	case fault.ForceAbort:
		m.stats.InjectedFaults++
		m.stats.Aborts++
		m.clock++
		m.kill(t)
		return ErrAborted
	case fault.ForceCancel:
		m.stats.InjectedFaults++
		return m.cancel(t, fault.ErrInjected)
	}
	return nil
}

// finish ends t's instance and cleans its slot for the next one, waking
// exactly the waiters whose blocking condition could have changed: those
// filed under the slot (lock and commit waiters — locks release only here,
// so any deny→grant flip traces to a finishing blocker) and Begin waiters
// for the slot. The waiter list is emptied, not left for its nodes to leave
// one by one: each node deregisters by looking its blockers up by job id,
// the finished id is no longer live, and so a late deregister can never
// reach into the list of the slot's next instance. The lock side is
// cc.Retire, the kernel's; inheritance is recomputed when it reports the job
// was Blocked. Caller holds m.mu; st is Done or Aborted.
func (m *Manager) finish(t *Txn, st cc.Status) {
	if t.done {
		return
	}
	t.done = true
	s := t.slot
	// The owner tears itself down only after park has unfiled its node, so a
	// node still filed means another goroutine is aborting a parked
	// transaction (the server's watchdog). Unfile it here, and leave the
	// slot taken until the owner is out of park: a successor must not share
	// the node's channel with a goroutine still selecting on it.
	parked := s.wn.parked()
	if parked {
		m.deregister(&s.wn)
	}
	s.job.WS.Discard()
	wasBlocked := cc.Retire(m, &s.job, st)
	for i, j := range m.active {
		if j == &s.job {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	if wasBlocked {
		m.inherit()
	}
	for i, n := range s.waiters {
		n.wake()
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
	if parked {
		s.wn.wake()
		return
	}
	m.vacate(s)
}

// vacate frees the slot and wakes the Begin calls queued for it.
func (m *Manager) vacate(s *slot) {
	s.cur = nil
	for _, n := range s.begins {
		n.wake()
	}
}

// staleReaders lists live transactions (other than t) that have read an item
// in t's pending write set: they observed the pre-commit version and must
// commit first. In this manager DataRead(o) coincides exactly with o's read
// locks (strict 2PL, locks release only at finish), so the set inverts to
// "readers of t's written items" straight off the lock-table entry lists —
// O(write set × readers) instead of O(live × write set), and allocation-free
// (the result reuses the slot's blocker scratch buffer). A reader of two
// items is listed twice: cc.Wait keeps the set.
func (m *Manager) staleReaders(t *Txn) []rt.JobID {
	s := t.slot
	buf := s.blockers[:0]
	for _, x := range s.job.WS.Items() {
		m.locks.EachReader(x, func(o rt.JobID) bool {
			if o != t.id {
				buf = append(buf, o)
			}
			return true
		})
	}
	s.blockers = buf
	return buf
}

// resolveCycle looks for a wait cycle reachable from start (lock waits and
// commit waits combined; the search is cc.WaitCycle, the kernel's) and
// returns its lowest-base-priority member as the victim, nil when there is
// no cycle. It runs on every park.
func (m *Manager) resolveCycle(start *Txn) *Txn {
	var victim *slot
	for _, id := range cc.WaitCycle(m, &start.slot.job, &m.cycle) {
		if s := m.live(id); victim == nil || s.job.BasePri() < victim.job.BasePri() {
			victim = s
		}
	}
	if victim == nil {
		return nil
	}
	return victim.cur
}
