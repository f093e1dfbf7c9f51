package fault

import "testing"

func TestSeededDeterministicStream(t *testing.T) {
	cfg := Config{Seed: 7, PDelay: 0.2, PWakeup: 0.1, PAbort: 0.1, PCancel: 0.1}
	a, b := NewSeeded(cfg), NewSeeded(cfg)
	injected := 0
	for i := 0; i < 1000; i++ {
		x, y := a.At(LockRequest, "t"), b.At(LockRequest, "t")
		if x != y {
			t.Fatalf("call %d: %v vs %v", i, x, y)
		}
		if x != Proceed {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("nothing injected at 50% total probability")
	}
}

func TestSeededZeroConfigNeverInjects(t *testing.T) {
	s := NewSeeded(Config{Seed: 1})
	for i := 0; i < 500; i++ {
		if got := s.At(CommitEntry, "x"); got != Proceed {
			t.Fatalf("injected %v with zero probabilities", got)
		}
	}
}

func TestSeededAllActionsReachable(t *testing.T) {
	s := NewSeeded(Config{Seed: 99, PDelay: 0.25, PWakeup: 0.25, PAbort: 0.25, PCancel: 0.2})
	var c [numActions]int
	for i := 0; i < 5000; i++ {
		c[s.At(BlockWait, "t")]++
	}
	for a := Proceed; a < numActions; a++ {
		if c[a] == 0 {
			t.Fatalf("action %v never drawn: %v", a, c)
		}
	}
}

func TestFuncAdapter(t *testing.T) {
	var gotP Point
	var gotTxn string
	f := Func(func(p Point, txn string) Action {
		gotP, gotTxn = p, txn
		return ForceCancel
	})
	if a := f.At(CommitWait, "upd"); a != ForceCancel || gotP != CommitWait || gotTxn != "upd" {
		t.Fatalf("adapter: %v %v %q", a, gotP, gotTxn)
	}
}

func TestStringers(t *testing.T) {
	if BeginTxn.String() != "begin" || CommitInstall.String() != "commit-install" {
		t.Fatal("point names")
	}
	if Proceed.String() != "proceed" || ForceCancel.String() != "force-cancel" {
		t.Fatal("action names")
	}
	if Point(200).String() == "" || Action(200).String() == "" {
		t.Fatal("out-of-range names")
	}
}
