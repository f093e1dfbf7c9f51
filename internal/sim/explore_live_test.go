package sim

// The live manager under the explorer. A transaction set runs on a fresh
// rtm.Manager with one goroutine per template, and a baton lets exactly one
// of them issue its next operation: Begin, each Read or Write, Commit.
// Before the baton moves on, every goroutine is back at it or parked in the
// manager. Two sources order the baton: the kernel's traced schedule
// (TestExploreManagerKernelOrder) and every interleaving of the templates'
// operations (TestExploreManagerFreeOrder).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pcpda/internal/db"
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
	baton chan struct{}
	gid   string // the goroutine's id, set before it first takes the baton
}

// access returns the mode and item of j's current call when it is a read
// or a write.
func (j *liveJob) access() (m rt.Mode, x rt.Item, ok bool) {
	if j.op == 0 || j.op > len(j.steps) {
		return 0, 0, false
	}
	s := j.steps[j.op-1]
	if s.Kind == txn.ReadStep {
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
	set  *txn.Set
	m    *rtm.Manager
	ctx  context.Context
	stop context.CancelFunc
	jobs []*liveJob
	done chan *liveJob
	busy int
	// calls are the operations issued, in order: one still parked when a
	// later one was issued is marked *, one the cycle breaker aborted !.
	calls []string
}

// newLiveRun starts one goroutine per template, each waiting for the baton.
func newLiveRun(set *txn.Set) (*liveRun, error) {
	m, err := rtm.New(set)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	r := &liveRun{set: set, m: m, ctx: ctx, stop: stop, done: make(chan *liveJob, len(set.Templates))}
	for _, tmpl := range set.Templates {
		j := &liveJob{tmpl: tmpl, baton: make(chan struct{})}
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

// liveValue is what tmpl writes to x: the final store names its writer.
func liveValue(tmpl *txn.Template, x rt.Item) db.Value {
	return db.Value(1000*(int(tmpl.ID)+1) + int(x))
}

func (r *liveRun) work(j *liveJob) {
	buf := make([]byte, 64)
	j.gid = strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	var tx *rtm.Txn
	for {
		select {
		case <-j.baton:
		case <-r.ctx.Done():
			return
		}
		var err error
		switch {
		case j.op == 0:
			tx, err = r.m.Begin(r.ctx, j.tmpl.Name)
		case j.op <= len(j.steps):
			if m, x, _ := j.access(); m == rt.Read {
				var v db.Value
				if v, err = tx.Read(r.ctx, x); err == nil {
					j.reads = append(j.reads, v)
				}
			} else {
				err = tx.Write(r.ctx, x, liveValue(j.tmpl, x))
			}
		default:
			err = tx.Commit(r.ctx)
		}
		j.err = err
		r.done <- j
	}
}

// issue passes the baton to j for its next operation.
func (r *liveRun) issue(j *liveJob) {
	for _, o := range r.jobs {
		if o.busy && !strings.HasSuffix(r.calls[o.at], "*") {
			r.calls[o.at] += "*"
		}
	}
	j.at = len(r.calls)
	r.calls = append(r.calls, j.call(r.set.Catalog))
	j.busy = true
	r.busy++
	j.baton <- struct{}{}
}

// collect records an operation that returned.
func (r *liveRun) collect(j *liveJob) {
	j.busy = false
	r.busy--
	if errors.Is(j.err, rtm.ErrAborted) {
		r.calls[j.at] += "!"
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
// settle also reads the goroutines' states: a parked one sleeps in the
// manager's select, a woken one is runnable.
func (r *liveRun) settle() error {
	for {
		select {
		case j := <-r.done:
			r.collect(j)
			continue
		default:
		}
		if r.busy == 0 || r.m.ParkedWaiters() == r.busy && (len(r.jobs) == 2 || r.asleep()) {
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
// run: a clean audit, reads and a store that return what the history says
// they hold, and nothing live or parked.
func (r *liveRun) close() []string {
	r.stop()
	var out []string
	if err := r.m.CheckInvariants(); err != nil {
		out = append(out, err.Error())
	}
	h := r.m.History()
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
	if st := r.m.Stats(); st.Live != 0 || r.m.ParkedWaiters() != 0 {
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
// operation several times slower: every nth set, from a fixed seed.
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
	r, err := newLiveRun(set)
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

// freeRows are orders a free-order run must render back unchanged:
// the same calls park (*), the cycle breaker aborts the same call (!), and
// every check of a free-order run holds.
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
	// The first interleaving that reaches the cycle breaker. L asks for x
	// before H blocks on it, at its own priority, and is ceiling-blocked by
	// H's read lock; then H's write of y waits on L's read lock. H's park
	// raises L to P_H, which would let L's retry through, but the cycle
	// search in the same park finds L → H → L first and aborts L.
	{"CycleBreakerReachable", papercases.LC4Deadlock, "H:begin L:begin L:r(y) H:r(x) H:w(x) L:r(x)*! H:w(y) H:commit"},
	// A raised lock waiter granted while its blocker is live: T3's read of
	// z is ceiling-blocked, T2 inherits P_T3; T1's write of x then waits
	// on T3's read lock, which raises T3 and, through it, T2 to P_T1. The
	// raise wakes T3, and LC2 grants its read at the running priority, so
	// T2 must fall back to its own priority at once.
	{"RaisedWaiterGranted", raisedSet, "T2:begin T2:w(z) T1:begin T3:begin T3:r(x) T2:r(y) T1:w(z) T3:r(z)* T1:w(x)* T3:r(z) T3:commit T2:w(y) T2:commit T1:commit"},
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
// call. Every run must end with both jobs committed or one aborted by the
// cycle breaker, a clean CheckInvariants and a store that matches the
// history's last writers. freeRows pin the orders of the paper's guards.
func TestExploreManagerFreeOrder(t *testing.T) {
	t.Parallel()
	for _, row := range freeRows {
		t.Run(row.name, func(t *testing.T) {
			set := row.set()
			if run, _, err := freeRun(set, rowOrder(set, row.order)); err != nil || run != row.order {
				t.Errorf("order %s\nrendered %s\n%v", row.order, run, err)
			}
		})
	}
	start := time.Now()
	var sets, runs, lockWaits, commitWaits, cycleAborts, broken int
	var firstCycle string
	try := func(set *txn.Set) {
		sets++
		interleavings(set, func(order []int) {
			if broken >= 3 {
				return
			}
			runs++
			run, st, err := freeRun(set, order)
			if err != nil {
				broken++
				t.Errorf("%s (%s): %v", set.Name, liveSignature(set), err)
				return
			}
			lockWaits += st.LockWaits
			commitWaits += st.CommitWaits
			cycleAborts += st.CycleAborts
			if st.CycleAborts > 0 && firstCycle == "" {
				firstCycle = fmt.Sprintf("%s (%s): %s", set.Name, liveSignature(set), run)
			}
		})
	}
	take := sampled(20)
	freeScope().each(func(set *txn.Set) {
		for _, tmpl := range set.Templates {
			if slices.ContainsFunc(tmpl.Steps, func(s txn.Step) bool { return s.Kind == txn.Compute }) {
				return
			}
		}
		if take() {
			try(set)
		}
	})
	for _, build := range []func() *txn.Set{cycleSet, demoSet, papercases.LC4Deadlock} {
		try(build())
	}
	t.Logf("%d sets, %d runs in %v: %d lock waits, %d commit waits, %d cycle aborts, %d broken; first cycle abort: %s",
		sets, runs, time.Since(start).Round(time.Millisecond), lockWaits, commitWaits, cycleAborts, broken, firstCycle)
}

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

// rowOrder reads the order of jobs off a rendered run.
func rowOrder(set *txn.Set, run string) []int {
	var order []int
	for _, c := range strings.Fields(run) {
		order = append(order, int(set.ByName(c[:strings.Index(c, ":")]).ID))
	}
	return order
}

// freeRun runs set with order as the order of preference, and returns the
// run rendered and the manager's counters.
func freeRun(set *txn.Set, order []int) (string, rtm.Stats, error) {
	r, err := newLiveRun(set)
	if err != nil {
		return "", rtm.Stats{}, err
	}
	defer r.stop()
	pending := append([]int(nil), order...)
	for {
		next := slices.IndexFunc(pending, func(id int) bool { return !r.jobs[id].busy && !r.jobs[id].ended })
		if next < 0 && r.busy > 0 {
			if err := r.await(nil); err != nil {
				return strings.Join(r.calls, " "), rtm.Stats{}, err
			}
			continue
		}
		if next < 0 {
			break
		}
		j := r.jobs[pending[next]]
		pending = slices.Delete(pending, next, next+1)
		r.issue(j)
		if err := r.settle(); err != nil {
			return strings.Join(r.calls, " "), rtm.Stats{}, err
		}
	}
	run := strings.Join(r.calls, " ")
	var out []string
	for _, j := range r.jobs {
		if j.err != nil && !errors.Is(j.err, rtm.ErrAborted) {
			out = append(out, fmt.Sprintf("%s: %v", j.tmpl.Name, j.err))
		}
	}
	st := r.m.Stats()
	out = append(out, r.close()...)
	if len(out) > 0 {
		return run, st, fmt.Errorf("order %s:\n%s", run, strings.Join(out, "\n"))
	}
	return run, st, nil
}
