package history

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// serialDriver records a serial — hence clean — execution one operation per
// step: each run reads a few items at their newest version, then installs
// a few at its commit tick or aborts. state is the committed state, which
// is what a snapshot reader at the current tick must observe.
type serialDriver struct {
	rng   *rand.Rand
	out   func(Op) // receives each operation as the five record calls build it
	tick  rt.Ticks
	run   db.RunID
	state [4]SnapshotWrite
	todo  []serialOp // the current run's remaining operations
}

// serialOp is one operation to record; hold keeps it on the previous
// operation's tick (a commit's installs and its CommitOp share one).
type serialOp struct {
	do   func()
	hold bool
}

func (d *serialDriver) step() {
	if len(d.todo) == 0 {
		d.run++
		run, id := d.run, txn.ID(d.rng.Intn(3))
		d.todo = append(d.todo, serialOp{do: func() { d.out(Op{Time: d.tick, Run: run, Txn: id, Kind: BeginOp}) }})
		for k := d.rng.Intn(4); k > 0; k-- {
			x := rt.Item(d.rng.Intn(len(d.state)))
			d.todo = append(d.todo, serialOp{do: func() {
				d.out(Op{Time: d.tick, Run: run, Txn: id, Kind: ReadOp, Item: x, Ver: d.state[x].Ver, From: d.state[x].From})
			}})
		}
		if d.rng.Intn(5) == 0 {
			d.todo = append(d.todo, serialOp{do: func() { d.out(Op{Time: d.tick, Run: run, Txn: id, Kind: AbortOp}) }})
		} else {
			first, n := d.rng.Intn(len(d.state)), d.rng.Intn(3)
			for k := 0; k < n; k++ {
				x := rt.Item((first + k) % len(d.state))
				d.todo = append(d.todo, serialOp{hold: k > 0, do: func() {
					d.state[x] = SnapshotWrite{Ver: d.state[x].Ver + 1, From: run}
					d.out(Op{Time: d.tick, Run: run, Txn: id, Kind: WriteOp, Item: x, Ver: d.state[x].Ver})
				}})
			}
			d.todo = append(d.todo, serialOp{hold: n > 0, do: func() { d.out(Op{Time: d.tick, Run: run, Txn: id, Kind: CommitOp}) }})
		}
	}
	if !d.todo[0].hold {
		d.tick++
	}
	d.todo[0].do()
	d.todo = d.todo[1:]
}

// observe is what a read-only snapshot transaction beginning now would see.
func (d *serialDriver) observe() (rt.Ticks, []SnapshotRead) {
	reads := make([]SnapshotRead, len(d.state))
	for x, w := range d.state {
		reads[x] = SnapshotRead{Item: rt.Item(x), Ver: w.Ver, From: w.From}
	}
	return d.tick, reads
}

// TestRecorderWindowIsLinearSuffix cuts a long clean log at random points —
// most of them mid-transaction, many after the ring has wrapped — and
// demands that the snapshot is exactly the linear log's suffix and that
// neither batch check reports a violation the full log does not have.
func TestRecorderWindowIsLinearSuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lin, rec := New(), NewRecorder()
	d := &serialDriver{rng: rng, out: func(op Op) {
		lin.Ops = append(lin.Ops, op)
		rec.record(op)
	}}
	type observation struct {
		snap  rt.Ticks
		reads []SnapshotRead
	}
	var obs []observation
	total := 2*RingCap + 5000
	cuts := map[int]bool{0: true, 1: true, RingCap - 1: true, RingCap: true, RingCap + 1: true, total: true}
	for len(cuts) < 30 {
		cuts[rng.Intn(total)] = true
	}
	for n := 0; n <= total; n++ {
		if cuts[n] {
			snap := rec.Snapshot()
			want := lin.Ops[max(0, len(lin.Ops)-RingCap):]
			if !slices.Equal(snap.Ops, want) {
				t.Fatalf("cut %d: snapshot of %d ops is not the linear log's last %d", n, len(snap.Ops), len(want))
			}
			if rec.Retained() != len(want) || rec.Evicted() != uint64(len(lin.Ops)-len(want)) {
				t.Fatalf("cut %d: retained %d evicted %d, want %d and %d", n, rec.Retained(), rec.Evicted(), len(want), len(lin.Ops)-len(want))
			}
			if rep := snap.Check(); !rep.Serializable || !rep.CommitOrderOK {
				t.Fatalf("cut %d: false violation on the window: %v", n, rep.Violations)
			}
			for _, ob := range obs {
				if vs := snap.CheckSnapshot(ob.snap, ob.reads); len(vs) > 0 {
					t.Fatalf("cut %d: false snapshot violation for a reader at tick %d: %v", n, ob.snap, vs)
				}
			}
			tail := rec.Tail(64)
			if !slices.Equal(tail.Ops, want[max(0, len(want)-64):]) {
				t.Fatalf("cut %d: Tail(64) is not the window's last 64", n)
			}
			if rep := tail.Check(); !rep.Serializable || !rep.CommitOrderOK {
				t.Fatalf("cut %d: false violation on the tail: %v", n, rep.Violations)
			}
		}
		if len(d.todo) == 0 && rng.Intn(2000) == 0 { // between runs: a snapshot reader's view
			snap, reads := d.observe()
			obs = append(obs, observation{snap, reads})
		}
		d.step()
	}
	if len(obs) < 10 {
		t.Fatalf("only %d snapshot observations checked", len(obs))
	}
	a := rec.Audit()
	if a.Flagged() != 0 || a.Commits() != uint64(len(lin.Committed())) {
		t.Fatalf("audit: %d flagged (%v), %d commits of %d", a.Flagged(), a.Violations(), a.Commits(), len(lin.Committed()))
	}
}

// TestRecorderReset: Reset empties the window and keeps the low-water rule —
// a later reader of a discarded run's version is not a dirty read — while
// the audit carries on across it.
func TestRecorderReset(t *testing.T) {
	rec := NewRecorder()
	rec.Begin(1, 1, 0)
	rec.Write(2, 1, 0, x, 1)
	rec.Commit(2, 1, 0)
	rec.Reset()
	if rec.Retained() != 0 || rec.Evicted() != 3 || len(rec.Snapshot().Ops) != 0 {
		t.Fatalf("after Reset: retained %d, evicted %d", rec.Retained(), rec.Evicted())
	}
	rec.Begin(3, 2, 1)
	rec.Read(4, 2, 1, x, 1, 1)
	rec.Commit(5, 2, 1)
	snap := rec.Snapshot()
	if len(snap.Ops) != 3 {
		t.Fatalf("window holds %d ops, want 3", len(snap.Ops))
	}
	if rep := snap.Check(); !rep.Serializable || !rep.CommitOrderOK {
		t.Fatalf("cross-window read flagged: %v", rep.Violations)
	}
	if a := rec.Audit(); a.Commits() != 2 || a.Flagged() != 0 {
		t.Fatalf("audit across Reset: %d commits, %d flagged", a.Commits(), a.Flagged())
	}
}

// TestRecorderEvictionAdvancesLowWater: once the op that committed a
// version has been evicted, a retained reader of that version must not
// look like a dirty read.
func TestRecorderEvictionAdvancesLowWater(t *testing.T) {
	rec := NewRecorder()
	rec.Begin(1, 1, 0)
	rec.Write(2, 1, 0, x, 1)
	rec.Commit(2, 1, 0)
	for i := 0; i < RingCap; i += 3 { // readers of run 1's version push its commit out
		run, tick := db.RunID(2+i), rt.Ticks(3+i)
		rec.Begin(tick, run, 1)
		rec.Read(tick+1, run, 1, x, 1, 1)
		rec.Commit(tick+2, run, 1)
	}
	snap := rec.Snapshot()
	if len(snap.Ops) != RingCap || snap.Ops[0].Run == 1 {
		t.Fatalf("window holds %d ops starting with run %d", len(snap.Ops), snap.Ops[0].Run)
	}
	if rep := snap.Check(); !rep.Serializable || !rep.CommitOrderOK {
		t.Fatalf("reader of an evicted run's version flagged: %v", rep.Violations[0])
	}
}

// TestOpFitsTheRingBudget pins the ring's memory — RingCap operations of 40
// bytes each (2.5 MiB), what they were with 32-bit run ids — with run ids
// wide enough never to wrap. The simulator appends one Op per operation too:
// at 48 bytes sim-sweep read 4-5 % more CPU per job.
func TestOpFitsTheRingBudget(t *testing.T) {
	if sz := unsafe.Sizeof(Op{}); sz > 40 {
		t.Fatalf("history.Op is %d bytes, budget 40", sz)
	}
	if unsafe.Sizeof(Op{}.Run) < 8 || unsafe.Sizeof(Op{}.From) < 8 {
		t.Fatal("run ids in history.Op are narrower than 64 bits")
	}
}
