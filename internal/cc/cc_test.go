package cc

import (
	"testing"

	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

func demoJob(t *testing.T) *Job {
	t.Helper()
	s := txn.NewSet("cc")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "T", Period: 10, Steps: []txn.Step{
		txn.Read(x), txn.Comp(2), txn.Write(y),
	}})
	s.AssignByIndex()
	return &Job{
		ID:         0,
		Tmpl:       s.Templates[0],
		Release:    5,
		Status:     Ready,
		RunPri:     s.Templates[0].Priority,
		DataRead:   rt.NewItemSet(),
		FinishTick: -1,
		MissedAt:   -1,
	}
}

func TestJobStepMachine(t *testing.T) {
	j := demoJob(t)
	step, ok := j.CurStep()
	if !ok || step.Kind != txn.ReadStep {
		t.Fatalf("first step = %+v ok=%v", step, ok)
	}
	item, mode, need := j.NeedsLock()
	if !need || mode != rt.Read || item != step.Item {
		t.Fatalf("NeedsLock = %v %v %v", item, mode, need)
	}
	j.HasLock = true
	if _, _, need := j.NeedsLock(); need {
		t.Fatal("lock already held: NeedsLock must be false")
	}
	// Advance into the compute step: no lock needed.
	j.StepIdx, j.StepDone, j.HasLock = 1, 0, false
	if _, _, need := j.NeedsLock(); need {
		t.Fatal("compute step needs no lock")
	}
	// Advance into the write step.
	j.StepIdx = 2
	item, mode, need = j.NeedsLock()
	if !need || mode != rt.Write {
		t.Fatalf("write step NeedsLock = %v %v %v", item, mode, need)
	}
	if j.Finished() {
		t.Fatal("not finished yet")
	}
	j.StepIdx = 3
	if !j.Finished() {
		t.Fatal("must be finished")
	}
	if _, ok := j.CurStep(); ok {
		t.Fatal("no current step after the last")
	}
	if _, _, need := j.NeedsLock(); need {
		t.Fatal("finished job needs nothing")
	}
}

func TestJobResponseAndMiss(t *testing.T) {
	j := demoJob(t)
	if j.ResponseTime() != -1 {
		t.Fatal("unfinished job has response -1")
	}
	if j.Missed() {
		t.Fatal("MissedAt=-1 means no miss")
	}
	j.Status = Done
	j.FinishTick = 12
	if j.ResponseTime() != 7 {
		t.Fatalf("response = %d, want 7", j.ResponseTime())
	}
	j.MissedAt = 15
	if !j.Missed() {
		t.Fatal("miss not reported")
	}
}

func TestJobBasePri(t *testing.T) {
	j := demoJob(t)
	if j.BasePri() != j.Tmpl.Priority {
		t.Fatal("BasePri must come from the template")
	}
	j.RunPri = j.BasePri() + 5
	if j.BasePri() == j.RunPri {
		t.Fatal("inheritance must not change the base priority")
	}
}

func TestDecisionHelpers(t *testing.T) {
	g := Grant("LC1")
	if !g.Granted || g.Rule != "LC1" || len(g.Blockers) != 0 {
		t.Fatalf("grant = %+v", g)
	}
	b := Block("ceiling", 3, 4)
	if b.Granted || b.Rule != "ceiling" || len(b.Blockers) != 2 || b.Blockers[0] != 3 {
		t.Fatalf("block = %+v", b)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{Ready: "ready", Blocked: "blocked", Done: "done", Aborted: "aborted"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d renders %q", s, s.String())
		}
	}
	if Status(99).String() != "?" {
		t.Error("unknown status must render ?")
	}
}
