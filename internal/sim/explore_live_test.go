package sim

// The live manager under the explorer. A transaction set runs on a fresh
// rtm.Manager with one goroutine per template, and a baton lets exactly one
// of them issue its next operation: Begin, each Read or Write, Commit.
// Before the baton moves on, every goroutine is back at it or parked in the
// manager. Two sources order the baton: the kernel's traced schedule
// (TestExploreManagerKernelOrder) and every interleaving of the templates'
// operations (TestExploreManagerFreeOrder), with one more letter beside the
// calls: a job's context cancelled, a fault injected, or a job run as a
// read-only snapshot transaction.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/db"
	"pcpda/internal/fault"
	"pcpda/internal/history"
	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/sched"
	"pcpda/internal/testenv"
	"pcpda/internal/txn"
)

// liveJob is one template's goroutine and the test's record of it. The test
// sets op before it passes the baton; the goroutine sets err before it
// reports on liveRun.done.
type liveJob struct {
	tmpl  *txn.Template
	steps []txn.Step // the body's reads and writes; compute steps make no call
	op    int        // 0 Begin, 1..len(steps) a step, len(steps)+1 Commit
	busy  bool       // the operation was issued and has not returned
	at    int        // its index in liveRun.calls
	ended bool       // committed, or its last operation failed
	err   error
	reads []db.Value // what each returned read read, in order
	ok    int        // steps that returned nil; a snapshot job's are not counted
	baton chan struct{}
	gid   string // the goroutine's id, set before it first takes the baton

	ctx    context.Context // a child of the run's: a cancel letter ends it
	cancel context.CancelFunc
	// A job an RO letter names runs as a snapshot transaction: every step a
	// read of its item at the snapshot tick, each observation kept for
	// history.CheckSnapshot.
	snapshot bool
	snap     rt.Ticks
	seen     []history.SnapshotRead
	consults [fault.CommitInstall + 1]int // the injector's consultations on its behalf, by point
}

// access returns the mode and item of j's current call when it is a read
// or a write.
func (j *liveJob) access() (m rt.Mode, x rt.Item, ok bool) {
	if j.op == 0 || j.op > len(j.steps) {
		return 0, 0, false
	}
	s := j.steps[j.op-1]
	if s.Kind == txn.ReadStep || j.snapshot {
		return rt.Read, s.Item, true
	}
	return rt.Write, s.Item, true
}

// call renders j's current operation the way a run's order is written.
func (j *liveJob) call(cat *rt.Catalog) string {
	if m, x, ok := j.access(); ok {
		return fmt.Sprintf("%s:%s(%s)", j.tmpl.Name, strings.ToLower(m.String()), cat.Name(x))
	}
	if j.op == 0 {
		return j.tmpl.Name + ":begin"
	}
	return j.tmpl.Name + ":commit"
}

// kernelText is the annotation the kernel's timeline makes when it grants
// j's current call, and when it blocks it (none for Begin or Commit).
func (j *liveJob) kernelText(cat *rt.Catalog) (grant, block string) {
	if m, x, ok := j.access(); ok {
		return fmt.Sprintf("%vL(%s)", m, cat.Name(x)), fmt.Sprintf("blocked %v(%s)", m, cat.Name(x))
	}
	if j.op == 0 {
		return "arr", ""
	}
	return "commit", ""
}

// liveRun is one run of a set on a fresh manager.
type liveRun struct {
	set    *txn.Set
	m      *rtm.Manager
	ctx    context.Context
	stop   context.CancelFunc
	jobs   []*liveJob
	done   chan *liveJob
	busy   int
	issued int
	// calls are the letters applied, in order: a call still parked when a
	// later letter was applied is marked *, one that returned ErrAborted !.
	calls  []string
	letter letter // the run's one letter that is not a call, if any
	fired  bool   // its fault was injected; written under the manager mutex
	// strict asks settle to find every busy job asleep in the manager, not
	// only filed there: after a spurious wake and before a cancel, a woken
	// job may still be on its way out of its wait.
	strict atomic.Bool
}

// newLiveRun starts one goroutine per template, each waiting for the baton,
// on a manager that consults the run's injector (consult).
func newLiveRun(set *txn.Set, l letter) (*liveRun, error) {
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	r := &liveRun{set: set, ctx: ctx, stop: stop, letter: l, done: make(chan *liveJob, len(set.Templates))}
	m, err := rtm.NewWithOptions(set, rtm.Options{Injector: fault.Func(r.consult)})
	if err != nil {
		stop()
		return nil, err
	}
	r.m = m
	for _, tmpl := range set.Templates {
		j := &liveJob{tmpl: tmpl, baton: make(chan struct{}), snapshot: l.ro && l.job == int(tmpl.ID)}
		j.ctx, j.cancel = context.WithCancel(ctx)
		for _, s := range tmpl.Steps {
			if s.Kind != txn.Compute {
				j.steps = append(j.steps, s)
			}
		}
		r.jobs = append(r.jobs, j)
		go r.work(j)
	}
	return r, nil
}

// consult is the run's injector. It counts each job's consultations, and
// answers a fault letter's action at its job's nth consultation of its
// point, Proceed everywhere else. The manager calls it under its mutex.
func (r *liveRun) consult(p fault.Point, name string) fault.Action {
	j := r.jobs[r.set.ByName(name).ID]
	j.consults[p]++
	if l := r.letter; l.action != fault.Proceed && r.jobs[l.job] == j && l.point == p && j.consults[p] == l.nth {
		r.fired = true
		if l.action == fault.Wakeup {
			r.strict.Store(true)
		}
		return l.action
	}
	return fault.Proceed
}

// liveValue is what tmpl writes to x: the final store names its writer.
func liveValue(tmpl *txn.Template, x rt.Item) db.Value {
	return db.Value(1000*(int(tmpl.ID)+1) + int(x))
}

func (r *liveRun) work(j *liveJob) {
	buf := make([]byte, 64)
	j.gid = strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	var tx *rtm.Txn
	var ro *rtm.ROTxn
	for {
		select {
		case <-j.baton:
		case <-r.ctx.Done():
			return
		}
		var err error
		var v db.Value
		m, x, step := j.access()
		switch {
		case j.op == 0 && j.snapshot:
			if ro, err = r.m.BeginReadOnly(j.ctx); err == nil {
				j.snap = ro.Snapshot()
			}
		case j.op == 0:
			tx, err = r.m.Begin(j.ctx, j.tmpl.Name)
		case step && j.snapshot:
			var ver db.Version
			var from db.RunID
			if v, ver, from, err = ro.ReadVersion(j.ctx, x); err == nil {
				j.reads = append(j.reads, v)
				j.seen = append(j.seen, history.SnapshotRead{Item: x, Ver: ver, From: from})
			}
		case step && m == rt.Read:
			if v, err = tx.Read(j.ctx, x); err == nil {
				j.reads = append(j.reads, v)
			}
		case step:
			err = tx.Write(j.ctx, x, liveValue(j.tmpl, x))
		case j.snapshot:
			err = ro.Commit(j.ctx)
		default:
			err = tx.Commit(j.ctx)
		}
		j.err = err
		r.done <- j
	}
}

// issue passes the baton to j for its next operation.
func (r *liveRun) issue(j *liveJob) {
	j.at = r.write(j.call(r.set.Catalog))
	j.busy = true
	r.busy++
	r.issued++
	j.baton <- struct{}{}
}

// write appends a letter to the run's order, first marking each call still
// parked, and returns its index.
func (r *liveRun) write(letter string) int {
	for _, o := range r.jobs {
		if o.busy && !strings.HasSuffix(r.calls[o.at], "*") {
			r.calls[o.at] += "*"
		}
	}
	r.calls = append(r.calls, letter)
	return len(r.calls) - 1
}

// cancel ends j's context at a strictly settled point, so that no woken
// call is on its way out of the manager as the context ends, and settles
// again once a parked j has returned. It reports false, and cancels
// nothing, when j had ended by then.
func (r *liveRun) cancel(j *liveJob) (bool, error) {
	r.strict.Store(true)
	if err := r.settle(); err != nil || j.ended {
		return false, err
	}
	r.write(j.tmpl.Name + ":cancel")
	j.cancel()
	if err := r.await(j); err != nil {
		return true, err
	}
	return true, r.settle()
}

// collect records an operation that returned.
func (r *liveRun) collect(j *liveJob) {
	j.busy = false
	r.busy--
	if errors.Is(j.err, rtm.ErrAborted) {
		r.calls[j.at] += "!"
	}
	if j.err == nil && j.op >= 1 && j.op <= len(j.steps) && !j.snapshot {
		j.ok++
	}
	if j.err != nil || j.op == len(j.steps)+1 {
		j.ended = true
	}
	j.op++
}

// settle returns once every job with an operation in flight has parked,
// collecting the operations that returned meanwhile; it fails when the run
// makes no progress before its context expires. A parked job has a
// registered wait node (ParkedWaiters), but so has a woken one until it
// holds the manager mutex again. With two jobs that never lets the baton
// move too early: a wake comes from a commit, an abort or a park; after the
// first two the other job has ended, and after a park both are busy, so no
// job is at the baton until the woken one returns (await). With more jobs,
// and when strict is set, settle also reads the goroutines' states: a parked
// one sleeps in the manager's select, a woken one is runnable.
func (r *liveRun) settle() error {
	for {
		select {
		case j := <-r.done:
			r.collect(j)
			continue
		default:
		}
		if r.busy == 0 || r.m.ParkedWaiters() == r.busy && (len(r.jobs) == 2 && !r.strict.Load() || r.asleep()) {
			r.strict.Store(false)
			return r.m.CheckInvariants()
		}
		if r.ctx.Err() != nil {
			return fmt.Errorf("no progress after %s", strings.Join(r.calls, " "))
		}
		runtime.Gosched()
	}
}

// asleep reports whether every busy job's goroutine is blocked in the
// select of the manager's one wait (rtm's sleep), from a dump of every
// goroutine's stack: a wake token makes the goroutine runnable at once.
func (r *liveRun) asleep() bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	state := map[string]bool{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		head, body, _ := strings.Cut(g, "\n")
		if f := strings.Fields(head); len(f) > 2 && f[0] == "goroutine" {
			state[f[1]] = strings.HasPrefix(f[2], "[select") && strings.Contains(body, "rtm.(*Manager).sleep(")
		}
	}
	for _, j := range r.jobs {
		if j.busy && !state[j.gid] {
			return false
		}
	}
	return true
}

// await waits until j's call returns, or any call when j is nil. A job
// that passed for parked may be woken and on its way out of the manager
// (see settle); await tells the two apart by waiting, and fails when
// nothing returns before the run's context expires: a wait the manager
// never ends.
func (r *liveRun) await(j *liveJob) error {
	for n := r.busy; j == nil && r.busy == n || j != nil && j.busy; {
		select {
		case o := <-r.done:
			r.collect(o)
		case <-r.ctx.Done():
			return fmt.Errorf("parked for good after %s", strings.Join(r.calls, " "))
		}
	}
	return nil
}

// close ends the goroutines and reports what the manager holds after the
// run: a clean audit, a log whose replay through a fresh audit agrees with
// it, reads, snapshot reads and a store that return what the history says
// they hold, and nothing live or parked.
func (r *liveRun) close() []string {
	r.stop()
	var out []string
	if err := r.m.CheckInvariants(); err != nil {
		out = append(out, err.Error())
	}
	h, st := r.m.History(), r.m.Stats()
	if a := history.Replay(h.Ops); a.Flagged() != 0 || a.Commits() != st.CommitsAudited {
		out = append(out, fmt.Sprintf("the log replayed: %d violations %v, %d commits against %d audited live", a.Flagged(), a.Violations(), a.Commits(), st.CommitsAudited))
	}
	tmplOf := map[db.RunID]*txn.Template{}
	for _, op := range h.Ops {
		if op.Kind == history.BeginOp {
			tmplOf[op.Run] = r.set.Templates[op.Txn]
		}
	}
	nth := map[db.RunID]int{}
	for _, op := range h.Ops {
		if op.Kind != history.ReadOp {
			continue
		}
		j, k := r.jobs[tmplOf[op.Run].ID], nth[op.Run]
		nth[op.Run]++
		var want db.Value
		if op.From != db.InitRun {
			want = liveValue(tmplOf[op.From], op.Item)
		}
		if k >= len(j.reads) || j.reads[k] != want {
			out = append(out, fmt.Sprintf("%s's read %d of %s returned other than the %d the history says", j.tmpl.Name, k+1, r.set.Catalog.Name(op.Item), want))
		}
	}
	for _, j := range r.jobs {
		if !j.snapshot {
			continue
		}
		for _, v := range h.CheckSnapshot(j.snap, j.seen) {
			out = append(out, fmt.Sprintf("%s's snapshot: %s", j.tmpl.Name, v.Detail))
		}
		for k, s := range j.seen {
			var want db.Value
			if tmpl := tmplOf[s.From]; tmpl != nil {
				want = liveValue(tmpl, s.Item)
			}
			if j.reads[k] != want {
				out = append(out, fmt.Sprintf("%s's snapshot read %d of %s returned %d, its writer wrote %d", j.tmpl.Name, k+1, r.set.Catalog.Name(s.Item), j.reads[k], want))
			}
		}
	}
	last := h.LastWriters()
	for x := rt.Item(0); int(x) < r.set.Catalog.Len(); x++ {
		var want db.Value
		if run, ok := last[x]; ok {
			want = liveValue(tmplOf[run], x)
		}
		if got := r.m.ReadCommitted(x); got != want {
			out = append(out, fmt.Sprintf("item %s holds %d, its last writer in the history wrote %d", r.set.Catalog.Name(x), got, want))
		}
	}
	if st.Live != 0 || r.m.ParkedWaiters() != 0 {
		out = append(out, fmt.Sprintf("%d transactions live and %d waiters parked after the run", st.Live, r.m.ParkedWaiters()))
	}
	return out
}

// shape renders a history with each run named by its template: what every
// read read from, and the order of begins, reads, installs and commits.
func shape(set *txn.Set, h *history.History) string {
	name := map[db.RunID]string{db.InitRun: "init"}
	var b strings.Builder
	for _, op := range h.Ops {
		switch op.Kind {
		case history.BeginOp:
			name[op.Run] = set.Templates[op.Txn].Name
			fmt.Fprintf(&b, "%s:begin ", name[op.Run])
		case history.ReadOp:
			fmt.Fprintf(&b, "%s:r(%s)<%s ", name[op.Run], set.Catalog.Name(op.Item), name[op.From])
		case history.WriteOp:
			fmt.Fprintf(&b, "%s:w(%s) ", name[op.Run], set.Catalog.Name(op.Item))
		default:
			fmt.Fprintf(&b, "%s:%v ", name[op.Run], op.Kind)
		}
	}
	return b.String()
}

// sampled thins an enumeration under the race detector, which runs every
// operation several times slower: about one in n of its sets or cells, drawn
// from a fixed seed in enumeration order.
func sampled(n int) func() bool {
	if !testenv.Race {
		return func() bool { return true }
	}
	rng := rand.New(rand.NewSource(1))
	return func() bool { return rng.Intn(n) == 0 }
}

// TestExploreManagerKernelOrder replays the kernel's PCP-DA schedule of
// every set of the explorer's two-template slice on the live manager: the
// baton follows the traced timeline, one event at a time. An operation the
// kernel granted must return without parking; one it denied must park and
// stay parked until the kernel grants it. At the end the manager's decision
// tally must equal the kernel's, both histories must have the same shape,
// and the cycle breaker must not have fired.
func TestExploreManagerKernelOrder(t *testing.T) {
	t.Parallel()
	start, runs, parks, broken := time.Now(), 0, 0, 0
	take := sampled(50)
	exploreSlice.each(func(set *txn.Set) {
		if broken >= 3 || !take() {
			return
		}
		runs++
		n, err := replayKernel(set)
		parks += n
		if err != nil {
			broken++
			t.Errorf("%v\n%s", err, explain(t, set, "pcpda"))
		}
	})
	t.Logf("%d sets in %v: %d calls parked where the kernel blocked them, %d diverged (the run stops at 3)",
		runs, time.Since(start).Round(time.Millisecond), parks, broken)
}

// replayKernel runs set under the kernel with its timeline, then on the
// manager in the timeline's order; it returns how many operations parked.
func replayKernel(set *txn.Set) (int, error) {
	p, _ := NewProtocol("pcpda")
	k, err := sched.New(set, p, sched.Config{Horizon: DefaultHorizon(set), RecordTrace: true, StopOnDeadlock: true})
	if err != nil {
		return 0, err
	}
	res := k.Run()
	r, err := newLiveRun(set, letter{})
	if err != nil {
		return 0, err
	}
	defer r.stop()
	parks := 0
	blocked := make([]string, len(r.jobs)) // per Blocked job, the kernel's grant it waits for
	for _, e := range res.Timeline.Events() {
		j := r.jobs[e.Row]
		grant, block := j.kernelText(set.Catalog)
		if blocked[e.Row] != "" {
			// A blocked job's next event is the kernel's grant of its retry:
			// the manager must have woken and granted it by now.
			if err := r.await(j); err != nil {
				return parks, err
			}
			if e.Text != blocked[e.Row] || j.err != nil {
				return parks, fmt.Errorf("kernel: %s %s at t=%d; manager: parked %v, error %v; order %s", j.tmpl.Name, e.Text, e.Tick, j.busy, j.err, strings.Join(r.calls, " "))
			}
			blocked[e.Row] = ""
			continue
		}
		if e.Text != grant && e.Text != block {
			return parks, fmt.Errorf("kernel: %s %s at t=%d; manager's next call %s", j.tmpl.Name, e.Text, e.Tick, j.call(set.Catalog))
		}
		for i, o := range r.jobs {
			if blocked[i] != "" && !o.busy {
				return parks, fmt.Errorf("manager granted %s while the kernel still blocked it; order %s", o.call(set.Catalog), strings.Join(r.calls, " "))
			}
		}
		waits := r.waits()
		r.issue(j)
		if err := r.settle(); err != nil {
			return parks, err
		}
		switch {
		case e.Text == block && !j.busy:
			return parks, fmt.Errorf("kernel: %s at t=%d; manager returned %v; order %s", e.Text, e.Tick, j.err, strings.Join(r.calls, " "))
		case e.Text == block:
			blocked[e.Row] = grant
			parks++
		case j.busy || r.waits() != waits:
			return parks, fmt.Errorf("kernel granted %s at t=%d, manager parked it; order %s", e.Text, e.Tick, strings.Join(r.calls, " "))
		case j.err != nil:
			return parks, fmt.Errorf("%s at t=%d: %v", e.Text, e.Tick, j.err)
		}
	}
	if err := r.settle(); err != nil {
		return parks, err
	}
	var out []string
	for _, j := range r.jobs {
		if !j.ended || j.err != nil {
			out = append(out, fmt.Sprintf("%s did not commit (next call %s, error %v)", j.tmpl.Name, j.call(set.Catalog), j.err))
		}
	}
	st := r.m.Stats()
	if st.CycleAborts != 0 {
		out = append(out, fmt.Sprintf("%d cycle aborts", st.CycleAborts))
	}
	if !reflect.DeepEqual(st.Decisions, res.Decisions) {
		out = append(out, fmt.Sprintf("decisions: manager %v, kernel %v", st.Decisions, res.Decisions))
	}
	if got, want := shape(set, r.m.History()), shape(set, res.History); got != want {
		out = append(out, fmt.Sprintf("history: manager %s\n         kernel  %s", got, want))
	}
	out = append(out, r.close()...)
	if len(out) > 0 {
		return parks, fmt.Errorf("after %s:\n%s", strings.Join(r.calls, " "), strings.Join(out, "\n"))
	}
	return parks, nil
}

// waits counts the manager's blocking episodes so far: every park is one.
func (r *liveRun) waits() int {
	st := r.m.Stats()
	return st.LockWaits + st.CommitWaits
}

// freeRows are orders a free-order run must render back unchanged: the
// same calls park (*), the same call returns ErrAborted (!), and every check
// of a free-order run holds.
var freeRows = []struct {
	name  string
	set   func() *txn.Set
	order string
}{
	// TH's stale read of x raises Wceil(x) = P_TL into TL's Sysceil, so
	// TL's read of y is ceiling-blocked until TH commits.
	{"CycleGuardCeilingOrder", cycleSet, "TL:begin TL:w(x) TH:begin TH:r(x) TL:r(y)* TH:w(y) TH:commit TL:commit"},
	// TL read y first: TH's read of x meets Table 1 (DataRead(TL) ∩
	// WriteSet(TH) = {y}) and waits for TL's commit.
	{"CycleGuardTable1Order", cycleSet, "TL:begin TL:w(x) TL:r(y) TH:begin TH:r(x)* TL:commit TH:w(y) TH:commit"},
	// The paper's dynamic adjustment: the reader reads x through the
	// updater's write lock and serializes first.
	{"DynamicAdjustmentReadThroughWriteLock", demoSet, "updater:begin updater:w(x) reader:begin reader:r(x) reader:r(y) reader:commit updater:w(y) updater:commit"},
	// The commit-wait guard: the updater may not install x while the reader
	// that read the old x is live.
	{"CommitWaitsForStaleReader", demoSet, "updater:begin updater:w(x) reader:begin reader:r(x) updater:w(y) updater:commit* reader:r(y) reader:commit"},
	// LC1: a write waits out a foreign read lock.
	{"WriteBlocksOnForeignReadLock", demoSet, "reader:begin reader:r(x) updater:begin updater:w(x)* reader:r(y) reader:commit updater:w(y) updater:commit"},
	// The kernel's order of the LC4 deadlock set: H's write of y waits on
	// L, L inherits P_H and its read of x passes the ceiling H's read lock
	// raised.
	{"LC4DeadlockOrder", papercases.LC4Deadlock, "L:begin L:r(y) H:begin H:r(x) H:w(x) H:w(y)* L:r(x) L:commit H:commit"},
	// The interleaving that once reached the cycle breaker. L asks for x
	// before H blocks on it, at its own priority, and is ceiling-blocked by
	// H's read lock; then H's write of y waits on L's read lock. H's park
	// raises L to P_H and retries L's read, which the raise admits, before
	// the cycle search: L's stale edge to H is gone, L commits and H's write
	// follows, the kernel's outcome. The search once read that edge, found
	// L → H → L and aborted L.
	{"CycleBreakerReachable", papercases.LC4Deadlock, "H:begin L:begin L:r(y) H:r(x) H:w(x) L:r(x)* H:w(y)* L:commit H:commit"},
	// A raised lock waiter granted while its blocker is live: T3's read of
	// z is ceiling-blocked, T2 inherits P_T3; T1's write of x then waits
	// on T3's read lock, which raises T3 and, through it, T2 to P_T1. The
	// raise wakes T3, and LC2 grants its read at the running priority, so
	// T2 must fall back to its own priority at once.
	{"RaisedWaiterGranted", raisedSet, "T2:begin T2:w(z) T1:begin T3:begin T3:r(x) T2:r(y) T1:w(z) T3:r(z)* T1:w(x)* T3:r(z) T3:commit T2:w(y) T2:commit T1:commit"},
	// A cancel letter: the updater's context ends while its write waits
	// out the reader's lock; the write returns ErrCancelled, and the
	// reader commits.
	{"CancelWhileParked", demoSet, "reader:begin reader:r(x) updater:begin updater:w(x)* updater:cancel reader:r(y) reader:commit"},
	// A fault letter: the write the reader's lock denies is aborted at its
	// park (ErrAborted, !).
	{"AbortAtBlockWait", demoSet, "updater:force-abort@block-wait#1 reader:begin reader:r(x) updater:begin updater:w(x)! reader:r(y) reader:commit"},
	// The updater's commit waits for the stale reader and is cancelled
	// there; the reader's stale read of x serialized it first and stands.
	{"CancelAtCommitWait", demoSet, "updater:force-cancel@commit-wait#1 updater:begin updater:w(x) reader:begin reader:r(x) updater:w(y) updater:commit reader:r(y) reader:commit"},
	// A spurious wakeup of the parked write: it asks again, is denied
	// again, and the run is the one without the wakeup.
	{"SpuriousWakeupOfParkedWrite", demoSet, "reader:wakeup@lock-request#2 reader:begin reader:r(x) updater:begin updater:w(x)* reader:r(y) reader:commit updater:w(y) updater:commit"},
	// An RO letter: the reader is a snapshot transaction that begins before
	// the updater commits, and reads the initial x and y after it.
	{"SnapshotReadsItsBeginTick", demoSet, "reader:ro reader:begin updater:begin updater:w(x) updater:w(y) updater:commit reader:r(x) reader:r(y) reader:commit"},
}

// raisedSet is the three-template set of the RaisedWaiterGranted row.
func raisedSet() *txn.Set {
	return liveSet("raised", "T1: w(z) w(x)", "T2: w(z) r(y) w(y)", "T3: r(x) r(z) r(z)")
}

// cycleSet is the shape that would close a commit-wait/lock-wait cycle if
// the locking conditions were weaker.
func cycleSet() *txn.Set { return liveSet("cycle", "TH: r(x) w(y)", "TL: w(x) r(y)") }

// demoSet is Example 3's shape without its compute steps.
func demoSet() *txn.Set { return liveSet("live", "reader: r(x) r(y)", "updater: w(x) w(y)") }

// liveSet builds a set from templates written "name: r(x) w(y)", in
// descending priority.
func liveSet(name string, templates ...string) *txn.Set {
	s := txn.NewSet(name)
	for _, spec := range templates {
		f := strings.Fields(spec)
		tmpl := &txn.Template{Name: strings.TrimSuffix(f[0], ":")}
		for _, c := range f[1:] {
			x := s.Catalog.Intern(c[2 : len(c)-1])
			if c[0] == 'r' {
				tmpl.Steps = append(tmpl.Steps, txn.Read(x))
			} else {
				tmpl.Steps = append(tmpl.Steps, txn.Write(x))
			}
		}
		s.Add(tmpl)
	}
	s.AssignByIndex()
	return s
}

// freeScope is the free-order slice: two templates of reads and writes over
// x and y, at most two steps each (three with -explore.full). Offsets mean
// nothing here; the baton releases a job when it issues its Begin.
func freeScope() scope {
	sc := scope{name: "free", templates: 2, maxSteps: 2, items: 2}
	if *exploreFull {
		sc.maxSteps = 3
	}
	return sc
}

// TestExploreManagerFreeOrder runs every interleaving of two templates'
// calls on the live manager: each interleaving is an order of preference,
// and at each turn the first job in it that is not parked issues its next
// call. Then it runs each interleaving again with one more letter (see
// letters): a job's context cancelled at a settled point, a fault injected
// at one of a job's consultations of the injector, or a job run as a
// read-only snapshot transaction. Every run must end with the job a cancel,
// abort or cancel fault names failed with that error and every other job
// committed, a spurious wakeup rendering the run without it, no
// cycle abort (the kernel aborts nothing beside deadline and fault aborts),
// one grant per step that returned nil, a clean CheckInvariants, a log whose
// replay agrees with the live audit, and reads, snapshot reads and a store
// that match the history. freeRows pin the orders of the paper's guards and
// one run of each letter.
//
// Every cancel and RO letter runs; the fault letters run as a seeded sample
// that answers each action at each point at least once, and all of them
// under -explore.full, which runs no letter on the three-step bodies it adds.
// Under the race detector the letters run on a quarter of the sampled sets.
func TestExploreManagerFreeOrder(t *testing.T) {
	t.Parallel()
	for _, row := range freeRows {
		t.Run(row.name, func(t *testing.T) {
			set := row.set()
			if res, err := freeRun(set, parseWord(set, row.order)); err != nil || res.run != row.order {
				t.Errorf("order %s\nrendered %s\n%v", row.order, res.run, err)
			}
		})
	}
	start := time.Now()
	type tally struct {
		runs, lockWaits, commitWaits int
		took                         time.Duration
	}
	kinds := map[string]*tally{"calls": {}, "cancel": {}, "fault": {}, "ro": {}}
	answered := map[letter]bool{} // the fault letters' (action, point) pairs run
	rng := rand.New(rand.NewSource(1))
	var sets, broken int
	run := func(set *txn.Set, w word) (freeResult, bool) {
		if broken >= 3 {
			return freeResult{}, false
		}
		began := time.Now()
		res, err := freeRun(set, w)
		kinds[w.kind()].took += time.Since(began)
		if err != nil {
			broken++
			t.Errorf("%s (%s): %v", set.Name, liveSignature(set), err)
			return res, false
		}
		if res.vacuous {
			return res, false
		}
		k := kinds[w.kind()]
		k.runs++
		k.lockWaits += res.st.LockWaits
		k.commitWaits += res.st.CommitWaits
		return res, true
	}
	try := func(set *txn.Set, withLetters bool) {
		sets++
		interleavings(set, func(order []int) {
			base, ok := run(set, word{order: order})
			if !ok || !withLetters {
				return
			}
			letters(order, base, func(w word) {
				if pair := (letter{action: w.action, point: w.point}); w.action != fault.Proceed {
					if answered[pair] && !*exploreFull && rng.Intn(faultSample) != 0 {
						return
					}
					answered[pair] = true
				}
				res, ok := run(set, w)
				if ok && w.action == fault.Wakeup && strings.TrimPrefix(res.run, w.text(set)+" ") != base.run {
					broken++
					t.Errorf("%s (%s): a spurious wakeup changed the run\nwithout %s\nwith    %s", set.Name, liveSignature(set), base.run, res.run)
				}
			})
		})
	}
	take, lettered := sampled(20), sampled(4)
	freeScope().each(func(set *txn.Set) {
		steps := 0
		for _, tmpl := range set.Templates {
			if slices.ContainsFunc(tmpl.Steps, func(s txn.Step) bool { return s.Kind == txn.Compute }) {
				return
			}
			steps = max(steps, len(tmpl.Steps))
		}
		if take() {
			try(set, steps <= 2 && lettered())
		}
	})
	for _, build := range []func() *txn.Set{cycleSet, demoSet, papercases.LC4Deadlock} {
		try(build(), true)
	}
	t.Logf("%d sets in %v, %d broken (the run stops at 3)", sets, time.Since(start).Round(time.Millisecond), broken)
	for _, kind := range []string{"calls", "cancel", "fault", "ro"} {
		k := kinds[kind]
		t.Logf("%-6s %7d runs in %6v: %7d lock waits, %6d commit waits", kind, k.runs, k.took.Round(time.Millisecond), k.lockWaits, k.commitWaits)
	}
	for a := fault.Wakeup; broken == 0 && a <= fault.ForceCancel; a++ {
		for p := fault.BeginTxn; p <= fault.CommitInstall; p++ {
			if !answered[letter{action: a, point: p}] {
				t.Errorf("no fault letter answered %v at %v", a, p)
			}
		}
	}
}

// faultSample is one in how many fault letters tier-1 runs.
const faultSample = 10

// liveSignature lists a set's bodies for a failure message.
func liveSignature(set *txn.Set) string {
	var b []string
	for _, tmpl := range set.Templates {
		b = append(b, tmpl.Name+": "+tmpl.Signature(set.Catalog))
	}
	return strings.Join(b, "; ")
}

// interleavings calls fn with every order of the set's calls: job i appears
// as often as it makes calls (Begin, its reads and writes, Commit).
func interleavings(set *txn.Set, fn func(order []int)) {
	left := make([]int, len(set.Templates))
	total := 0
	for i, tmpl := range set.Templates {
		left[i] = 2
		for _, s := range tmpl.Steps {
			if s.Kind != txn.Compute {
				left[i]++
			}
		}
		total += left[i]
	}
	order := make([]int, 0, total)
	var grow func()
	grow = func() {
		if len(order) == total {
			fn(order)
			return
		}
		for i := range left {
			if left[i] > 0 {
				left[i]--
				order = append(order, i)
				grow()
				order = order[:len(order)-1]
				left[i]++
			}
		}
	}
	grow()
}

// word is what a free-order run runs: an order of preference over the jobs'
// calls, a job's index once per call, and at most one letter that is not a
// call.
type word struct {
	order []int
	letter
}

// letter is a letter that is not a call; it names a job. A cancel letter
// ends the job's context once at calls have been issued; a fault letter
// answers action (not Proceed) at the job's nth consultation of the
// injector at point; an RO letter runs the job as a read-only snapshot
// transaction. The zero letter is none.
type letter struct {
	job    int
	cancel bool
	at     int
	ro     bool
	action fault.Action
	point  fault.Point
	nth    int
}

// kind names the letter's kind for the log: calls when there is none.
func (l letter) kind() string {
	switch {
	case l.cancel:
		return "cancel"
	case l.ro:
		return "ro"
	case l.action != fault.Proceed:
		return "fault"
	}
	return "calls"
}

// text renders the letter the way a run's order is written. A cancel
// stands where it was applied; a fault or RO letter, which has no place
// among the calls, leads the order.
func (l letter) text(set *txn.Set) string {
	name := set.Templates[l.job].Name
	switch {
	case l.cancel:
		return name + ":cancel"
	case l.ro:
		return name + ":ro"
	case l.action != fault.Proceed:
		return fmt.Sprintf("%s:%v@%v#%d", name, l.action, l.point, l.nth)
	}
	return ""
}

// letters calls fn with each letter run of order, given the run without
// one (base): each job cancelled before it begins and at every settled
// point where it is live, run as a snapshot transaction, and each of
// ForceAbort, ForceCancel and Wakeup answered at every consultation it
// made. Delay is left out: under the baton nothing else can run while it
// yields (TestInjectedWakeupAndDelayAreHarmless and rtm's herd cover it).
//
// Only a job's next call and its wait read its context, so the settled
// points of one stretch between two of its calls make one run: a cancel
// there runs at the first of them.
func letters(order []int, base freeResult, fn func(word)) {
	for j := range base.consults {
		fn(word{order, letter{job: j, cancel: true}})
		for at := 1; at < len(base.points); at++ {
			if p := base.points[at][j]; p > 0 && (p%2 == 1 || p != base.points[at-1][j]) {
				fn(word{order, letter{job: j, cancel: true, at: at}})
			}
		}
		fn(word{order, letter{job: j, ro: true}})
		for p, n := range base.consults[j] {
			for k := 1; k <= n; k++ {
				for _, a := range []fault.Action{fault.ForceAbort, fault.ForceCancel, fault.Wakeup} {
					fn(word{order, letter{job: j, action: a, point: fault.Point(p), nth: k}})
				}
			}
		}
	}
}

// parseWord reads a word off a rendered run.
func parseWord(set *txn.Set, run string) word {
	var w word
	for _, c := range strings.Fields(run) {
		name, rest, _ := strings.Cut(c, ":")
		job := int(set.ByName(name).ID)
		act, at, _ := strings.Cut(rest, "@")
		point, nth, _ := strings.Cut(at, "#")
		switch {
		case rest == "cancel":
			w.letter = letter{job: job, cancel: true, at: len(w.order)}
		case rest == "ro":
			w.letter = letter{job: job, ro: true}
		case at != "":
			w.letter = letter{job: job}
			for a := fault.Proceed; a <= fault.ForceCancel; a++ {
				if a.String() == act {
					w.action = a
				}
			}
			for p := fault.BeginTxn; p <= fault.CommitInstall; p++ {
				if p.String() == point {
					w.point = p
				}
			}
			w.nth, _ = strconv.Atoi(nth)
		default:
			w.order = append(w.order, job)
		}
	}
	return w
}

// fate checks how job i's last call returned against what w demands: the
// job a cancel letter, or an abort or cancel fault, names fails with that
// error, every other job commits.
func (w word) fate(i int, err error) string {
	var want, cause error
	switch {
	case w.job != i:
	case w.cancel:
		want, cause = rtm.ErrCancelled, context.Canceled
	case w.action == fault.ForceAbort:
		want = rtm.ErrAborted
	case w.action == fault.ForceCancel:
		want, cause = rtm.ErrCancelled, fault.ErrInjected
	}
	switch {
	case want == nil && err != nil:
		return fmt.Sprintf("did not commit: %v", err)
	case want != nil && (!errors.Is(err, want) || cause != nil && !errors.Is(err, cause)):
		return fmt.Sprintf("ended with %v, want %v (%v)", err, want, cause)
	}
	return ""
}

// freeResult is one free-order run: its order rendered, the manager's
// counters, each job's consultations of the injector, and where each job
// stood at each settled point, points[i] after i calls (see point). A
// vacuous run is a cancel letter that came after its job had ended.
type freeResult struct {
	run      string
	st       rtm.Stats
	consults [][fault.CommitInstall + 1]int
	points   [][]int
	vacuous  bool
}

// freeRun runs set with w's order as the order of preference and w's letter,
// and checks the run.
func freeRun(set *txn.Set, w word) (freeResult, error) {
	var res freeResult
	r, err := newLiveRun(set, w.letter)
	if err != nil {
		return res, err
	}
	defer r.stop()
	failed := func(err error) (freeResult, error) {
		res.run = r.render()
		return res, err
	}
	res.points = append(res.points, r.points())
	pending := slices.Clone(w.order)
	for cancel := w.cancel; ; {
		if cancel && r.issued == w.at {
			cancel = false
			applied, err := r.cancel(r.jobs[w.job])
			if err != nil {
				return failed(err)
			}
			if !applied {
				res.vacuous = true
				return res, nil
			}
		}
		next := slices.IndexFunc(pending, func(id int) bool { return !r.jobs[id].busy && !r.jobs[id].ended })
		if next < 0 && r.busy > 0 {
			// A call returned; the baton moves at a settled point only (a
			// spurious wake may have set another job on its way).
			if err := r.await(nil); err != nil {
				return failed(err)
			}
			if err := r.settle(); err != nil {
				return failed(err)
			}
			continue
		}
		if next < 0 {
			if cancel {
				return failed(fmt.Errorf("the cancel after call %d came after the run", w.at))
			}
			break
		}
		j := r.jobs[pending[next]]
		pending = slices.Delete(pending, next, next+1)
		r.issue(j)
		if err := r.settle(); err != nil {
			return failed(err)
		}
		res.points = append(res.points, r.points())
	}
	res.run = r.render()
	var out []string
	for i, j := range r.jobs {
		if msg := w.fate(i, j.err); msg != "" {
			out = append(out, j.tmpl.Name+" "+msg)
		}
	}
	if w.action != fault.Proceed && !r.fired {
		out = append(out, "the fault was never injected")
	}
	res.st = r.m.Stats()
	if res.st.CycleAborts != 0 {
		out = append(out, fmt.Sprintf("%d cycle aborts", res.st.CycleAborts))
	}
	// Every step that returned nil was granted once: by its own request, or
	// by the retry of another call's park, which the step then must not
	// repeat. A fault that fails a step after its grant adds one.
	grants, steps := 0, 0
	for _, rc := range res.st.Decisions {
		grants += rc.Grants
	}
	for _, j := range r.jobs {
		steps += j.ok
		res.consults = append(res.consults, j.consults)
	}
	if r.fired && w.point == fault.LockGrant && w.action != fault.Wakeup {
		steps++
	}
	if grants != steps {
		out = append(out, fmt.Sprintf("%d grants for %d steps that returned nil", grants, steps))
	}
	out = append(out, r.close()...)
	if len(out) > 0 {
		return res, fmt.Errorf("order %s:\n%s", res.run, strings.Join(out, "\n"))
	}
	return res, nil
}

// render writes the run's order: its letters, led by a fault or RO letter.
func (r *liveRun) render() string {
	run := strings.Join(r.calls, " ")
	if l := r.letter; l.ro || l.action != fault.Proceed {
		return l.text(r.set) + " " + run
	}
	return run
}

// points reports where each job stands: 0 before it begins and after it
// ends, otherwise twice the calls it has made, plus one while the last of
// them is parked.
func (r *liveRun) points() []int {
	points := make([]int, len(r.jobs))
	for i, j := range r.jobs {
		switch {
		case j.busy:
			points[i] = 2*j.op + 1
		case j.op > 0 && !j.ended:
			points[i] = 2 * j.op
		}
	}
	return points
}
