package rtm

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pcpda/internal/db"
	"pcpda/internal/history"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// logSet is the small contended workload the audit's logs come from.
func logSet(t testing.TB) *txn.Set {
	t.Helper()
	set, err := workload.Generate(workload.Config{
		N: 4, Items: 5, Utilization: 0.5,
		PeriodMin: 50, PeriodMax: 500,
		OpsMin: 2, OpsMax: 4, WriteProb: 0.5, Seed: 424242,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// managerLog runs three workers over logSet with no faults and returns the
// manager's (clean, short of the ring) log.
func managerLog(t *testing.T, seed int64) []history.Op {
	t.Helper()
	set := logSet(t)
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				tmpl := set.Templates[rng.Intn(len(set.Templates))]
				if err := runOnce(c, m, rng, tmpl); err != nil {
					t.Error(err)
					return
				}
			}
		}(rand.New(rand.NewSource(seed*31 + int64(w))))
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return m.History().Ops
}

// verdicts runs both checkers over ops.
func verdicts(ops []history.Op) (check, audit bool, detail string) {
	h := &history.History{Ops: ops}
	rep := h.Check()
	a := history.Replay(ops)
	return !rep.Serializable || !rep.CommitOrderOK, a.Flagged() > 0,
		fmt.Sprintf("Check: %v\naudit: %v\nlog: %s", rep.Violations, a.Violations(), h)
}

// A mutation rewrites a clean log into one that breaks commit-order
// serializability, or reports that the log offers it no site.
type mutation struct {
	name  string
	apply func(ops []history.Op, rng *rand.Rand) ([]history.Op, bool)
}

// commitAt maps each committed run to the index of its CommitOp.
func commitAt(ops []history.Op) map[db.RunID]int {
	at := make(map[db.RunID]int)
	for i, op := range ops {
		if op.Kind == history.CommitOp {
			at[op.Run] = i
		}
	}
	return at
}

// pick returns a seeded choice among the indexes of ops that ok accepts.
func pick(ops []history.Op, rng *rand.Rand, ok func(i int, op history.Op) bool) (int, bool) {
	var sites []int
	for i, op := range ops {
		if ok(i, op) {
			sites = append(sites, i)
		}
	}
	if len(sites) == 0 {
		return 0, false
	}
	return sites[rng.Intn(len(sites))], true
}

var mutations = []mutation{
	// A committed reader is made to have seen the version before the one it
	// saw: the installer of the version it did see committed first, so the
	// reader's rw edge to it now runs against commit order.
	{"stale-read", func(ops []history.Op, rng *rand.Rand) ([]history.Op, bool) {
		at := commitAt(ops)
		i, ok := pick(ops, rng, func(_ int, op history.Op) bool {
			_, committed := at[op.Run]
			return op.Kind == history.ReadOp && op.Ver >= 1 && op.From != op.Run && committed
		})
		if ok {
			ops[i].Ver--
		}
		return ops, ok
	}},
	// A writer's installs and commit are hoisted above the commit of a run
	// that read the version they overwrite (the log is re-ticked by position
	// afterwards: commit order is the order of commit ticks).
	{"hoisted-commit", func(ops []history.Op, rng *rand.Rand) ([]history.Op, bool) {
		at := commitAt(ops)
		readAt := make(map[[2]int64]int) // (item, version) -> a committed reader's ReadOp
		for i, op := range ops {
			if _, ok := at[op.Run]; ok && op.Kind == history.ReadOp && op.From != op.Run {
				readAt[[2]int64{int64(op.Item), int64(op.Ver)}] = i
			}
		}
		w, ok := pick(ops, rng, func(i int, op history.Op) bool {
			r, read := readAt[[2]int64{int64(op.Item), int64(op.Ver) - 1}]
			return op.Kind == history.WriteOp && read && ops[r].Run != op.Run && at[ops[r].Run] < i
		})
		if !ok {
			return ops, false
		}
		reader, writer := ops[readAt[[2]int64{int64(ops[w].Item), int64(ops[w].Ver) - 1}]].Run, ops[w].Run
		var block, rest []history.Op
		for _, op := range ops {
			if op.Run == writer && (op.Kind == history.WriteOp || op.Kind == history.CommitOp) {
				block = append(block, op)
			} else {
				rest = append(rest, op)
			}
		}
		ops = slices.Insert(rest, slices.IndexFunc(rest, func(op history.Op) bool {
			return op.Run == reader && op.Kind == history.CommitOp
		}), block...)
		for i := range ops {
			ops[i].Time = rt.Ticks(i + 1)
		}
		return ops, true
	}},
	// The CommitOp of a run whose version a later committer read is dropped:
	// that reader now committed on a version nobody committed.
	{"dropped-commit", func(ops []history.Op, rng *rand.Rand) ([]history.Op, bool) {
		at := commitAt(ops)
		r, ok := pick(ops, rng, func(_ int, op history.Op) bool {
			_, committed := at[op.Run]
			return op.Kind == history.ReadOp && op.From != op.Run && op.From != db.InitRun && committed
		})
		if !ok {
			return ops, false
		}
		return slices.Delete(ops, at[ops[r].From], at[ops[r].From]+1), true
	}},
}

// TestAuditAgreesWithCheck is the differential half of the continuous
// audit's contract on real manager logs: every unmutated log is clean in
// both checkers, and every seeded mutation — each a known violation, the
// positive controls — is flagged by both. (Every run of the live explorer,
// sim.TestExploreManager*, repeats the clean half: it replays its log
// through a fresh audit.)
func TestAuditAgreesWithCheck(t *testing.T) {
	logs := 40
	if testing.Short() {
		logs = 10
	}
	applied := make(map[string]int)
	for seed := int64(1); seed <= int64(logs); seed++ {
		ops := managerLog(t, seed)
		if check, audit, detail := verdicts(ops); check || audit {
			t.Fatalf("seed %d: clean manager log flagged (Check %v, audit %v)\n%s", seed, check, audit, detail)
		}
		for _, mu := range mutations {
			mutated, ok := mu.apply(slices.Clone(ops), rand.New(rand.NewSource(seed)))
			if !ok {
				continue
			}
			applied[mu.name]++
			if check, audit, detail := verdicts(mutated); !check || !audit {
				t.Errorf("seed %d, %s: flagged by Check %v, by the audit %v; want both\n%s", seed, mu.name, check, audit, detail)
			}
		}
	}
	for _, mu := range mutations {
		if applied[mu.name] < logs/2 {
			t.Errorf("mutation %s found a site in only %d of %d logs", mu.name, applied[mu.name], logs)
		}
	}
}

// TestHistoryWhileCommitting: History is a snapshot under the manager mutex,
// so reading and checking it needs no quiescence (run with -race).
func TestHistoryWhileCommitting(t *testing.T) {
	set := contendedSet()
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	c := context.Background() // the race detector makes each check slow; the loop below bounds the test
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(tmpl *txn.Template) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := commitOne(c, m, tmpl); err != nil {
					t.Error(err)
					return
				}
			}
		}(set.Templates[w])
	}
	for i := 0; i < 20 || m.Stats().Commits < 1000; i++ {
		h := m.History()
		if rep := h.Check(); !rep.Serializable || !rep.CommitOrderOK {
			t.Errorf("window of %d ops: %v", len(h.Ops), rep.Violations)
		}
		_ = m.HistoryTail(64).String()
		_ = m.Stats()
	}
	close(stop)
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// contendedSet is the repository benchmark's mgr-contended set: eight
// templates over a four-item pool, template i reading item i and writing
// item i+2 (mod the pool).
func contendedSet() *txn.Set {
	s := txn.NewSet("contended")
	pool := make([]rt.Item, 4)
	for i := range pool {
		pool[i] = s.Catalog.Intern(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < 8; i++ {
		s.Add(&txn.Template{
			Name:  fmt.Sprintf("T%d", i),
			Steps: []txn.Step{txn.Read(pool[i%len(pool)]), txn.Write(pool[(i+2)%len(pool)])},
		})
	}
	s.AssignByIndex()
	return s
}

// commitOne runs tmpl's declared steps to a commit, retrying a sacrifice.
func commitOne(c context.Context, m *Manager, tmpl *txn.Template) error {
	return m.Exec(c, tmpl.Name, func(tx *Txn) error {
		for _, st := range tmpl.Steps {
			var err error
			if st.Kind == txn.ReadStep {
				_, err = tx.Read(c, st.Item)
			} else {
				err = tx.Write(c, st.Item, db.Value(tx.run()))
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// TestBoundedHistory is the robustness gate: two million transactions on
// the contended set with no ResetHistory, measured in deciles. What grew
// the old log was transaction count, not wall time, so the count is what
// the test spends. The heap after a collection and the cost of
// CheckInvariants must be flat from the first decile (by whose end the ring
// has wrapped) to the last, and every commit must have been audited.
func TestBoundedHistory(t *testing.T) {
	total := 2_000_000
	if testing.Short() {
		total /= 10
	}
	set := contendedSet()
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	c := context.Background()
	var heap [10]uint64
	var audit [10]time.Duration
	// How far the lock table's and the store's slices have grown, per tenth
	// of the run: {item slots, holder records, cells, undo journals}.
	var extent [10][4]int
	// The manager's own lists — each slot's waiter and Begin queues, the
	// live list, the Begin-node pool — hold at most one entry per template,
	// so append's doubling stops below twice that.
	var listCap [10]int
	for d := range heap {
		var wg sync.WaitGroup
		for _, tmpl := range set.Templates {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total/10/len(set.Templates); i++ {
					if err := commitOne(c, m, tmpl); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[d], audit[d] = ms.HeapAlloc, 1<<62
		samples := 5 // best of five; of fifteen at the two ends the bound compares
		if d == 0 || d == len(heap)-1 {
			samples = 15
		}
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			audit[d] = min(audit[d], time.Since(t0))
		}
		m.mu.Lock()
		extent[d][0], extent[d][1] = m.locks.Extent()
		extent[d][2], extent[d][3] = m.store.Extent()
		listCap[d] = max(cap(m.active), cap(m.freeNodes))
		for i := range m.slots {
			s := &m.slots[i]
			listCap[d] = max(listCap[d], cap(s.waiters), cap(s.begins), cap(s.blockers), cap(s.installed))
		}
		m.mu.Unlock()
	}
	// Nothing in the lock table or the store is indexed by a job or run id,
	// which grow with every transaction: the item side stops at the catalog
	// within the first tenth, the holder side at the transactions live at
	// once, and a deferred-update manager journals nothing.
	items, live := set.Catalog.Len(), len(set.Templates)
	t.Logf("lock table and store extents {items, holders, cells, journals}: %v -> %v", extent[0], extent[9])
	for d, e := range extent {
		if e[0] != items || e[2] != items || e[3] != 0 || e[1] > live {
			t.Errorf("tenth %d: extents %v, want {%d, <= %d, %d, 0}", d, e, items, live, items)
		}
	}
	t.Logf("largest manager list capacity per tenth: %v", listCap)
	for d, c := range listCap {
		if c >= 2*live {
			t.Errorf("tenth %d: a manager list has capacity %d with %d templates", d, c, live)
		}
	}
	st := m.Stats()
	t.Logf("%d commits: heap after GC %d KiB -> %d KiB, CheckInvariants %v -> %v, window %d ops, %d evicted",
		st.Commits, heap[0]>>10, heap[9]>>10, audit[0], audit[9], st.HistoryRetained, st.HistoryEvicted)
	if heap[9] > heap[0]+1<<20 {
		t.Errorf("live heap grew from %d to %d bytes over the run", heap[0], heap[9])
	}
	if audit[9] > 2*audit[0] {
		t.Errorf("audit cost grew from %v to %v over the run", audit[0], audit[9])
	}
	if st.Commits != total/10/len(set.Templates)*len(set.Templates)*10 {
		t.Errorf("%d commits", st.Commits)
	}
	if st.CommitsAudited != uint64(st.Commits) || st.AuditViolations != 0 {
		t.Errorf("audited %d of %d commits, %d violations", st.CommitsAudited, st.Commits, st.AuditViolations)
	}
	if st.HistoryRetained != history.RingCap || st.HistoryEvicted == 0 {
		t.Errorf("window %d ops (ring %d), %d evicted", st.HistoryRetained, history.RingCap, st.HistoryEvicted)
	}
}

// TestCheckInvariantsDoesNotStallCommits: the batch check of a full window
// takes tens of milliseconds, and it runs on a copy after the manager mutex
// is released — so transactions begun while CheckInvariants is running
// commit before it returns, which they could not while it held the mutex
// throughout.
func TestCheckInvariantsDoesNotStallCommits(t *testing.T) {
	set := contendedSet()
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	c := context.Background()
	for m.Stats().HistoryRetained < history.RingCap {
		if err := commitOne(c, m, set.Templates[0]); err != nil {
			t.Fatal(err)
		}
	}
	type span struct{ begun, committed time.Time }
	stop := make(chan struct{})
	done := make(chan []span)
	go func() {
		var spans []span
		for {
			select {
			case <-stop:
				done <- spans
				return
			default:
			}
			begun := time.Now()
			if err := commitOne(c, m, set.Templates[1]); err != nil {
				t.Error(err)
			}
			spans = append(spans, span{begun, time.Now()})
		}
	}()
	before := m.Stats().Clock
	t0 := time.Now()
	err = m.CheckInvariants()
	t1 := time.Now()
	after := m.Stats().Clock
	close(stop)
	spans := <-done
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	for _, sp := range spans {
		if sp.begun.After(t0) && sp.committed.Before(t1) {
			inside++
		}
	}
	t.Logf("CheckInvariants took %v; %d transactions began and committed inside it, clock %d -> %d",
		t1.Sub(t0), inside, before, after)
	if inside < 10 || after == before {
		t.Fatalf("%d transactions ran to commit while the check was running (clock %d -> %d): it still holds the mutex",
			inside, before, after)
	}
}
