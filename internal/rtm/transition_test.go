package rtm

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/cc"
	"pcpda/internal/fault"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// The manager applies every decision through cc.Apply and cc.Wait and every
// exit through cc.Retire, the kernel's transition: a woken waiter stays
// Blocked until its next request is decided, a re-denial behind the same set
// changes nothing, and the decision tally is the kernel's.

// waitLockWaits polls until the manager has counted n lock waits.
func waitLockWaits(t *testing.T, m *Manager, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.Stats().LockWaits != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d lock waits, want %d", m.Stats().LockWaits, n)
		}
	}
}

// wakeSet is H above L above Z: L reads x, H's write of x waits on L (LC1),
// and Z touches nothing they do — its Begin is where a test injects the
// spurious wakeup.
func wakeSet() (*txn.Set, rt.Item) {
	s := txn.NewSet("wake")
	x := s.Catalog.Intern("x")
	z := s.Catalog.Intern("z")
	s.Add(&txn.Template{Name: "H", Steps: []txn.Step{txn.Write(x)}})
	s.Add(&txn.Template{Name: "L", Steps: []txn.Step{txn.Read(x)}})
	s.Add(&txn.Template{Name: "Z", Steps: []txn.Step{txn.Read(z)}})
	s.AssignByIndex()
	return s, x
}

// TestReDeniedWaiterStaysBlocked: H parks behind L, which inherits H's
// priority; an injected spurious wakeup makes H ask again and be denied again
// behind the same L. H is Blocked when it asks (the injector looks, under the
// mutex), L's running priority never falls back, no cycle is searched for or
// broken, and the audit — which holds every running priority to the
// definition of inheritance — is clean with H parked again.
func TestReDeniedWaiterStaysBlocked(t *testing.T) {
	s, x := wakeSet()
	var hi, lo *Txn
	var requests atomic.Int32
	var asked cc.Job // H and L as H's second request found them
	var loAsked rt.Priority
	m, _ := NewWithOptions(s, Options{Injector: fault.Func(func(p fault.Point, name string) fault.Action {
		switch {
		case p == fault.BeginTxn && name == "Z":
			return fault.Wakeup
		case p == fault.LockRequest && name == "H" && requests.Add(1) == 2:
			asked, loAsked = hi.slot.job, lo.slot.job.RunPri
		}
		return fault.Proceed
	})})
	c := ctx(t)
	lo = mustBegin(t, m, c, "L")
	if _, err := lo.Read(c, x); err != nil {
		t.Fatal(err)
	}
	hi = mustBegin(t, m, c, "H")
	wrote := make(chan error, 1)
	go func() { wrote <- hi.Write(c, x, 1) }()
	waitLockWaits(t, m, 1)
	waitParked(t, m, 1)
	z := mustBegin(t, m, c, "Z") // the spurious wakeup
	waitLockWaits(t, m, 2)
	waitParked(t, m, 1)

	m.mu.Lock()
	status, loPri, blockers := hi.slot.job.Status, lo.slot.job.RunPri, append([]rt.JobID(nil), hi.slot.job.Blockers...)
	m.mu.Unlock()
	top := s.Templates[0].Priority
	if asked.Status != cc.Blocked || loAsked != top {
		t.Fatalf("woken H asked again as %v with L at %v; want blocked with L at H's %v", asked.Status, loAsked, top)
	}
	if status != cc.Blocked || loPri != top || len(blockers) != 1 || blockers[0] != lo.ID() {
		t.Fatalf("re-denied H is %v behind %v with L at %v; want blocked behind [%d] with L at %v", status, blockers, loPri, lo.ID(), top)
	}
	if st := m.Stats(); st.CycleAborts != 0 {
		t.Fatalf("%d cycle aborts", st.CycleAborts)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	z.Abort()
	if err := lo.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := hi.Commit(c); err != nil {
		t.Fatal(err)
	}
	assertQuiescent(t, m)
}

// TestWokenWaiterCancelledBeforeItAsksAgain: H parks behind L and a spurious
// wakeup wakes it; before H asks again, an injected cancellation at the
// request point tears it down. H left while still Blocked, so cc.Retire
// reports it and inheritance runs: L is back at its base priority.
func TestWokenWaiterCancelledBeforeItAsksAgain(t *testing.T) {
	s, x := wakeSet()
	var requests atomic.Int32
	m, _ := NewWithOptions(s, Options{Injector: fault.Func(func(p fault.Point, name string) fault.Action {
		switch {
		case p == fault.BeginTxn && name == "Z":
			return fault.Wakeup
		case p == fault.LockRequest && name == "H" && requests.Add(1) == 2:
			return fault.ForceCancel
		}
		return fault.Proceed
	})})
	c := ctx(t)
	lo := mustBegin(t, m, c, "L")
	if _, err := lo.Read(c, x); err != nil {
		t.Fatal(err)
	}
	hi := mustBegin(t, m, c, "H")
	wrote := make(chan error, 1)
	go func() { wrote <- hi.Write(c, x, 1) }()
	waitLockWaits(t, m, 1)
	waitParked(t, m, 1)
	z := mustBegin(t, m, c, "Z")
	if err := <-wrote; !errors.Is(err, ErrCancelled) {
		t.Fatalf("woken H's write = %v, want ErrCancelled", err)
	}
	m.mu.Lock()
	loPri := lo.slot.job.RunPri
	m.mu.Unlock()
	if loPri != lo.slot.tmpl.Priority {
		t.Fatalf("L runs at %v after its waiter left, want its base %v", loPri, lo.slot.tmpl.Priority)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	z.Abort()
	if err := lo.Commit(c); err != nil {
		t.Fatal(err)
	}
	assertQuiescent(t, m)
}

// TestDecisionsTally: Stats.Decisions is the kernel's tally. TL's ceiling
// denial behind TH's stale read is counted once although an injected wakeup
// has TL denied again (LockWaits counts both), and every grant is counted
// under the locking condition that passed it.
func TestDecisionsTally(t *testing.T) {
	s := txn.NewSet("tally")
	x, y, w := s.Catalog.Intern("x"), s.Catalog.Intern("y"), s.Catalog.Intern("w")
	s.Add(&txn.Template{Name: "TH", Steps: []txn.Step{txn.Read(x), txn.Write(y)}})
	s.Add(&txn.Template{Name: "TL", Steps: []txn.Step{txn.Write(x), txn.Read(y)}})
	s.Add(&txn.Template{Name: "Z", Steps: []txn.Step{txn.Read(w)}})
	s.AssignByIndex()
	m, _ := NewWithOptions(s, Options{Injector: fault.Func(func(p fault.Point, name string) fault.Action {
		if p == fault.BeginTxn && name == "Z" {
			return fault.Wakeup
		}
		return fault.Proceed
	})})
	c := ctx(t)
	tl := mustBegin(t, m, c, "TL")
	if err := tl.Write(c, x, 1); err != nil { // LC1
		t.Fatal(err)
	}
	th := mustBegin(t, m, c, "TH")
	if _, err := th.Read(c, x); err != nil { // LC2: no read lock raises a ceiling yet
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() { _, err := tl.Read(c, y); read <- err }() // ceiling: TH's read of x
	waitLockWaits(t, m, 1)
	waitParked(t, m, 1)
	z := mustBegin(t, m, c, "Z") // wakes TL, denied again behind the same TH
	waitLockWaits(t, m, 2)
	waitParked(t, m, 1)
	z.Abort()
	if err := th.Write(c, y, 2); err != nil { // LC1
		t.Fatal(err)
	}
	if err := th.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil { // LC2 once TH is gone
		t.Fatal(err)
	}
	if err := tl.Commit(c); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	got := map[string]cc.RuleCount{}
	for _, l := range st.Decisions {
		got[l.Rule] = l
	}
	want := map[string]cc.RuleCount{
		"LC1":     {Rule: "LC1", Grants: 2},
		"LC2":     {Rule: "LC2", Grants: 2},
		"ceiling": {Rule: "ceiling", Blocks: 1},
	}
	if len(got) != len(want) || st.LockWaits != 2 {
		t.Fatalf("decisions %v with %d lock waits; want %v with 2", st.Decisions, st.LockWaits, want)
	}
	for rule, w := range want {
		if got[rule] != w {
			t.Errorf("rule %s: %+v, want %+v", rule, got[rule], w)
		}
	}
	assertQuiescent(t, m)
}
