package db

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pcpda/internal/rt"
	"pcpda/internal/testenv"
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
// writer that laps every item's ring many times. Under -race this is the
// memory-ordering check for the seqlock; semantically every read must
// return either the exact version for its snapshot or the typed eviction
// error — never a torn one: write i puts value i, by run i, as the item's
// ceil(i/items)-th version. A third of the readers stay pinned to one early
// snapshot, so they are lapped for certain; a third take a fresh snapshot
// for every read; a third lag seven installs per item behind the writer,
// so what they read is the oldest retained version, the next one it
// overwrites.
func TestChainReadersUnderConcurrentWrites(t *testing.T) {
	const items, writes, pinnedAt = 4, 20000, 10
	const pinned, fresh, lagging = 0, 1, 2
	s := NewStore()
	var published atomic.Int64 // the writer's snapTick
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= writes; i++ {
			s.InstallVersioned(RunID(i), rt.Item(i%items), Value(i), i)
			published.Store(i)
		}
	}()
	// want is the model: the newest write to item j at or before snap.
	want := func(j rt.Item, snap int64) (Value, Version, RunID) {
		i := snap - ((snap-int64(j))%items+items)%items
		if i < 1 {
			return 0, 0, InitRun
		}
		return Value(i), Version((i + items - 1) / items), RunID(i)
	}
	var exact, evicted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(kind int) {
			defer wg.Done()
			for published.Load() < pinnedAt {
				runtime.Gosched()
			}
			lapped := make([]bool, items) // a pinned snapshot, once evicted, stays evicted
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true // one more pass after the last write
				default:
				}
				snap := int64(pinnedAt)
				switch kind {
				case fresh:
					snap = published.Load()
				case lagging:
					snap = published.Load() - (ChainLimit-1)*items
				}
				for j := rt.Item(0); j < items; j++ {
					v, ver, from, err := s.ReadAt(j, snap)
					if err != nil {
						if !errors.Is(err, ErrSnapshotEvicted) {
							errs <- fmt.Errorf("ReadAt(%d, %d): %v", j, snap, err)
							return
						}
						evicted.Add(1)
						lapped[j] = kind == pinned
						continue
					}
					wv, wver, wfrom := want(j, snap)
					if v != wv || ver != wver || from != wfrom || lapped[j] {
						errs <- fmt.Errorf("ReadAt(%d, %d) = %v@v%d by run %d, want %v@v%d by run %d (evicted before: %v)",
							j, snap, v, ver, from, wv, wver, wfrom, lapped[j])
						return
					}
					exact.Add(1)
				}
			}
		}(r % 3)
	}
	<-done
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if exact.Load() == 0 || evicted.Load() == 0 {
		t.Fatalf("%d exact answers and %d evictions: the race exercised one side only", exact.Load(), evicted.Load())
	}
	if probs := s.CheckVersions(writes); len(probs) != 0 {
		t.Fatalf("rings after the race: %v", probs)
	}
}

// FuzzVersionsVsModel holds the ring to a model that keeps every version.
// Each pair of bytes is a write (strictly increasing ticks) or a snapshot
// read of one of three items: the ring must give exactly the model's answer
// for every snapshot at or after the tick of the item's ChainLimit-th
// newest version, and ErrSnapshotEvicted — never a value, never the initial
// state — for an older one of an item that has dropped versions.
func FuzzVersionsVsModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{0, 1, 2, 0, 0, 2, 1, 9, 3, 3, 5, 31})
	f.Add(bytes.Repeat([]byte{0, 0, 2, 1, 1, 40, 3, 7}, 12))
	type version struct {
		tick int64
		val  Value
		ver  Version
		run  RunID
	}
	const items = 3
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := NewStore()
		model := make([][]version, items)
		tick := int64(0)
		for ; len(prog) >= 2; prog = prog[2:] {
			op, arg := prog[0], prog[1]
			x := rt.Item(op >> 1 % items)
			if op&1 == 0 {
				tick += 1 + int64(arg%3)
				run := RunID(tick)
				ver := s.InstallVersioned(run, x, Value(arg), tick)
				model[x] = append(model[x], version{tick, Value(arg), ver, run})
				if int(ver) != len(model[x]) {
					t.Fatalf("install %d of item %d got version %d", len(model[x]), x, ver)
				}
				continue
			}
			snap := tick - int64(arg%64)
			vs := model[x]
			want := version{run: InitRun}
			for k := len(vs) - 1; k >= 0; k-- {
				if vs[k].tick <= snap {
					want = vs[k]
					break
				}
			}
			v, ver, run, err := s.ReadAt(x, snap)
			if len(vs) > ChainLimit && snap < vs[len(vs)-ChainLimit].tick {
				if !errors.Is(err, ErrSnapshotEvicted) {
					t.Fatalf("ReadAt(%d, %d) past the retained window = %v@v%d by run %d, %v; want ErrSnapshotEvicted", x, snap, v, ver, run, err)
				}
				continue
			}
			if err != nil || v != want.val || ver != want.ver || run != want.run {
				t.Fatalf("ReadAt(%d, %d) = %v@v%d by run %d, %v; want %v@v%d by run %d", x, snap, v, ver, run, err, want.val, want.ver, want.run)
			}
		}
		for x := range rt.Item(items) {
			if got, want := s.ChainLen(x), min(len(model[x]), ChainLimit); got != want {
				t.Fatalf("ChainLen(%d) = %d, want %d", x, got, want)
			}
		}
		if probs := s.CheckVersions(tick); len(probs) != 0 {
			t.Fatalf("CheckVersions: %v", probs)
		}
	})
}

// TestInstallVersionedAllocFree: installing into an item that has been
// written before overwrites a ring slot in place and allocates nothing.
func TestInstallVersionedAllocFree(t *testing.T) {
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	s := NewStore()
	tick := int64(1)
	s.InstallVersioned(1, y, 1, tick)
	if allocs := testing.AllocsPerRun(1000, func() {
		tick++
		s.InstallVersioned(RunID(tick), y, Value(tick), tick)
	}); allocs != 0 {
		t.Fatalf("a warm InstallVersioned allocates %v, want 0", allocs)
	}
}

// TestCheckVersionsReportsCorruption: a stamp that is not its install
// number, a tick out of order, a version gap, a newest version that is not
// the cell and a tick past the published horizon are each reported.
func TestCheckVersionsReportsCorruption(t *testing.T) {
	const installs = 3 * ChainLimit
	for _, c := range []struct {
		fault   string
		corrupt func(*Store)
		horizon int64
		report  string
	}{
		{"stamp", func(s *Store) { s.retainedSlot(y, 3).stamp.Add(ChainLimit) }, installs, "is stamped"},
		{"tick", func(s *Store) { s.retainedSlot(y, 3).tick.Store(1 << 40) }, installs, "not below"},
		{"version", func(s *Store) { s.retainedSlot(y, 3).ver.Add(-1) }, installs, "the next install's is"},
		{"cell", func(s *Store) { s.Install(7, x, 5) }, installs, "disagrees with store cell"},
		{"horizon", func(*Store) {}, installs - 1, "not covered by published snapshot tick"},
	} {
		s := NewStore()
		for i := int64(1); i <= installs; i++ {
			s.InstallVersioned(RunID(i), rt.Item(i%2), Value(i), i)
		}
		if probs := s.CheckVersions(installs); len(probs) != 0 {
			t.Fatalf("a sound store reports %v", probs)
		}
		c.corrupt(s)
		probs := s.CheckVersions(c.horizon)
		if len(probs) == 0 || !strings.Contains(strings.Join(probs, "; "), c.report) {
			t.Errorf("a corrupt %s: CheckVersions = %v, want a line with %q", c.fault, probs, c.report)
		}
	}
}
