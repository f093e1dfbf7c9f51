package db

import "testing"

// The rtm abort paths discard a workspace that may be reused (Exec retries
// begin a fresh transaction but cancellation cleanup can race an explicit
// Abort): discard must be idempotent and leave nothing installable behind.

func TestWorkspaceDiscardIdempotent(t *testing.T) {
	w := NewWorkspace()
	w.Write(x, 1)
	w.Write(y, 2)
	w.Discard()
	w.Discard() // second discard: no-op
	if w.Len() != 0 || len(w.Items()) != 0 {
		t.Fatal("double discard left state behind")
	}
}

func TestWorkspaceInstallAfterDiscardIsEmpty(t *testing.T) {
	s := NewStore()
	w := NewWorkspace()
	w.Write(x, 41)
	w.Write(y, 42)
	w.Discard()
	if installed := w.InstallInto(nil, s, RunID(3)); len(installed) != 0 {
		t.Fatalf("discarded workspace installed %v", installed)
	}
	if v, ver, run := s.Read(x); v != 0 || ver != 0 || run != InitRun {
		t.Fatalf("store mutated by discarded workspace: %v v%v run%v", v, ver, run)
	}
}

func TestWorkspaceDiscardAfterAbortScenario(t *testing.T) {
	// The full abort shape: buffer, discard, retry with a fresh attempt,
	// install — only the retry's values reach the store, with versions
	// untouched by the aborted attempt.
	s := NewStore()
	aborted := NewWorkspace()
	aborted.Write(x, 100)
	aborted.Discard()

	retry := NewWorkspace()
	retry.Write(x, 200)
	installed := retry.InstallInto(nil, s, RunID(7))
	if len(installed) != 1 || installed[0].Version != 1 {
		t.Fatalf("installed = %v (aborted attempt must not burn a version)", installed)
	}
	if v, _, run := s.Read(x); v != 200 || run != RunID(7) {
		t.Fatalf("store = %v from run %v", v, run)
	}
}

func TestWorkspaceOverwriteThenDiscard(t *testing.T) {
	w := NewWorkspace()
	w.Write(x, 1)
	w.Write(x, 2) // overwrite keeps one buffered entry
	if w.Len() != 1 {
		t.Fatalf("len = %d", w.Len())
	}
	w.Discard()
	w.Write(x, 3)
	if v, ok := w.Get(x); !ok || v != 3 {
		t.Fatalf("reused workspace reads %v %v", v, ok)
	}
	if items := w.Items(); len(items) != 1 {
		t.Fatalf("items = %v (discard must clear write order)", items)
	}
}
