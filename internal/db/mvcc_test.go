package db

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"pcpda/internal/rt"
)

func TestReadAtInitialState(t *testing.T) {
	s := NewStore()
	// Never-written item: initial state at any snapshot.
	v, ver, run, err := s.ReadAt(x, 0)
	if err != nil || v != 0 || ver != 0 || run != InitRun {
		t.Fatalf("ReadAt(x,0) = (%v,%v,%v,%v), want initial state", v, ver, run, err)
	}
	v, ver, run, err = s.ReadAt(rt.Item(999), 1<<40)
	if err != nil || v != 0 || ver != 0 || run != InitRun {
		t.Fatalf("ReadAt beyond slab = (%v,%v,%v,%v), want initial state", v, ver, run, err)
	}
}

func TestReadAtVersionSelection(t *testing.T) {
	s := NewStore()
	// Three commits at ticks 10, 20, 30.
	s.InstallVersioned(RunID(1), x, 100, 10)
	s.InstallVersioned(RunID(2), x, 200, 20)
	s.InstallVersioned(RunID(3), x, 300, 30)
	cases := []struct {
		snap int64
		v    Value
		ver  Version
		from RunID
	}{
		{5, 0, 0, InitRun}, // before the first commit: initial state
		{10, 100, 1, RunID(1)},
		{15, 100, 1, RunID(1)},
		{20, 200, 2, RunID(2)},
		{29, 200, 2, RunID(2)},
		{30, 300, 3, RunID(3)},
		{1 << 40, 300, 3, RunID(3)},
	}
	for _, c := range cases {
		v, ver, from, err := s.ReadAt(x, c.snap)
		if err != nil {
			t.Fatalf("ReadAt(x,%d): %v", c.snap, err)
		}
		if v != c.v || ver != c.ver || from != c.from {
			t.Fatalf("ReadAt(x,%d) = (%v,%v,%v), want (%v,%v,%v)",
				c.snap, v, ver, from, c.v, c.ver, c.from)
		}
	}
}

// TestChainTruncation is the hot-key hammer: far more writes than the
// chain bound. A reader pinned to an evicted snapshot must get the typed
// retryable refusal — never a wrong answer — and a retry at a fresh
// snapshot must succeed.
func TestChainTruncation(t *testing.T) {
	s := NewStore()
	const writes = 100
	for i := 1; i <= writes; i++ {
		s.InstallVersioned(RunID(i), x, Value(i), int64(i))
	}
	if got := s.ChainLen(x); got != ChainLimit {
		t.Fatalf("chain length %d after %d writes, want the limit %d", got, writes, ChainLimit)
	}
	if !s.ChainEvicted(x) {
		t.Fatal("chain should report evicted versions after the hammer")
	}
	// Snapshots inside the retained window read exact values.
	for snap := int64(writes - ChainLimit + 1); snap <= writes; snap++ {
		v, _, _, err := s.ReadAt(x, snap)
		if err != nil {
			t.Fatalf("ReadAt(x,%d): %v", snap, err)
		}
		if v != Value(snap) {
			t.Fatalf("ReadAt(x,%d) = %v, want %v", snap, v, snap)
		}
	}
	// A snapshot older than the retained window: typed refusal, not the
	// initial state and not a newer value.
	_, _, _, err := s.ReadAt(x, 1)
	if !errors.Is(err, ErrSnapshotEvicted) {
		t.Fatalf("evicted snapshot read: err = %v, want ErrSnapshotEvicted", err)
	}
	// The retry contract: a fresh snapshot (what a retried BEGIN gets)
	// answers correctly.
	v, _, _, err := s.ReadAt(x, writes)
	if err != nil || v != Value(writes) {
		t.Fatalf("retry at fresh snapshot = (%v, %v), want (%v, nil)", v, err, writes)
	}
}

// TestChainReadersUnderConcurrentWrites races lock-free readers against a
// writer hammering one item. Under -race this is the memory-ordering
// check for the chain-publish protocol; semantically every read must
// return either the exact value for its snapshot or the typed eviction
// error.
func TestChainReadersUnderConcurrentWrites(t *testing.T) {
	s := NewStore()
	const writes = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= writes; i++ {
			s.InstallVersioned(RunID(i), x, Value(i), int64(i))
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// The newest head is always readable at a huge snapshot.
				v, _, from, err := s.ReadAt(x, 1<<40)
				if err != nil {
					errs <- fmt.Errorf("ReadAt(max): %v", err)
					return
				}
				if from != InitRun && Value(from) != v {
					errs <- fmt.Errorf("torn read: value %v from run %v", v, from)
					return
				}
				// A mid-window snapshot: exact value or typed eviction.
				snap := int64(v) - 4
				if snap <= 0 {
					continue
				}
				got, _, _, err := s.ReadAt(x, snap)
				if err != nil {
					if !errors.Is(err, ErrSnapshotEvicted) {
						errs <- fmt.Errorf("ReadAt(%d): %v", snap, err)
						return
					}
					continue
				}
				if got != Value(snap) {
					errs <- fmt.Errorf("ReadAt(%d) = %v, want %v", snap, got, snap)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEachNewestVersion(t *testing.T) {
	s := NewStore()
	s.InstallVersioned(RunID(1), x, 10, 1)
	s.InstallVersioned(RunID(2), y, 20, 2)
	s.InstallVersioned(RunID(3), x, 11, 3)
	got := map[rt.Item]Value{}
	s.EachNewestVersion(func(it rt.Item, v Value, ver Version, writer RunID, tick int64) {
		got[it] = v
	})
	if got[x] != 11 || got[y] != 20 || len(got) != 2 {
		t.Fatalf("EachNewestVersion = %v", got)
	}
}
