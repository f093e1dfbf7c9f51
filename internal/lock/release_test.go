package lock

import (
	"testing"

	"pcpda/internal/rt"
)

// The rtm failure paths lean on release being forgiving: a transaction torn
// down by cancellation calls ReleaseAll exactly once, but explicit Abort
// after a self-cleaning failure, or a protocol bug, may release again.
// These tests pin the idempotency contract.

func TestReleaseIdempotent(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Release(j1, x, rt.Read)
	tb.Release(j1, x, rt.Read) // double release: no-op
	if tb.LockCount() != 0 || tb.HoldsRead(j1, x) {
		t.Fatal("double release corrupted the table")
	}
	tb.Release(j1, y, rt.Write) // release of a never-held lock: no-op
	if tb.LockCount() != 0 {
		t.Fatal("release of unheld lock changed the table")
	}
}

func TestReleaseWrongModeIsNoop(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Write)
	tb.Release(j1, x, rt.Read) // held in Write, released in Read
	if !tb.HoldsWrite(j1, x) {
		t.Fatal("wrong-mode release dropped the write lock")
	}
	if len(writeHeld(tb, j1)) != 1 {
		t.Fatal("held-set lost the write entry")
	}
}

func TestReleaseAllIdempotent(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j1, y, rt.Write)
	tb.Acquire(j1, y, rt.Read) // both modes on y
	tb.ReleaseAll(j1)
	if tb.LockCount() != 0 || tb.live != 0 {
		t.Fatalf("locks left after ReleaseAll: %d", tb.LockCount())
	}
	tb.ReleaseAll(j1)
	if tb.LockCount() != 0 {
		t.Fatalf("locks left: %d", tb.LockCount())
	}
	// The job can acquire again after a full release (retry path).
	tb.Acquire(j1, x, rt.Write)
	if !tb.HoldsWrite(j1, x) {
		t.Fatal("re-acquire after ReleaseAll failed")
	}
}

func TestReleaseWhileOthersHold(t *testing.T) {
	// The release-while-blocked shape: j2 is "blocked" wanting x while j1
	// and j3 hold it; tearing j1 down must leave j3's lock (and the item
	// entry the eventual grant will use) intact.
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j3, x, rt.Read)
	tb.Acquire(j1, y, rt.Write)
	tb.ReleaseAll(j1)
	if tb.HoldsRead(j1, x) || tb.HoldsWrite(j1, y) {
		t.Fatal("j1 still holds locks")
	}
	if !tb.HoldsRead(j3, x) {
		t.Fatal("j3's co-held read lock was dropped")
	}
	if !tb.NoRlockByOthers(x, j3) {
		t.Fatal("phantom foreign reader survives j1's release")
	}
	if got := holders(tb.EachReader, x); len(got) != 1 || got[0] != j3 {
		t.Fatalf("readers of x = %v", got)
	}
}

// TestReleaseItemBothModes: one Release drops one mode, so a job holding x in
// both modes gives it up only after a release of each.
func TestReleaseItemBothModes(t *testing.T) {
	tb := NewTable()
	tb.Acquire(j1, x, rt.Read)
	tb.Acquire(j1, x, rt.Write)
	tb.Release(j1, x, rt.Write)
	if !tb.HoldsRead(j1, x) || tb.HoldsWrite(j1, x) || tb.live != 1 {
		t.Fatal("releasing the write mode must keep the read mode and its holder record")
	}
	tb.Release(j1, x, rt.Read)
	if tb.HoldsRead(j1, x) || tb.LockCount() != 0 || tb.live != 0 {
		t.Fatal("releasing both modes left a lock behind")
	}
	tb.Release(j1, x, rt.Read) // idempotent
	if tb.LockCount() != 0 {
		t.Fatal("a repeated release corrupted the table")
	}
}
