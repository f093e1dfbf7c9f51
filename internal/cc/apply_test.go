package cc_test

import (
	"slices"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/cctest"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// TestApply walks one job through a sequence of decisions, each row applied
// to the state the row before left, and checks what cc.Apply reports and
// writes: the status, the canonical blocker set, EverBlockedBy, the tally and,
// on a grant, the lock and DataRead.
func TestApply(t *testing.T) {
	const x, y rt.Item = 0, 1
	env := cctest.NewEnv()
	tmpl := &txn.Template{Name: "T", Priority: 9, Steps: []txn.Step{txn.Write(x), txn.Read(y)}}
	j := env.AddJob(10, tmpl)
	for _, id := range []rt.JobID{1, 2, 3} {
		env.AddJob(id, &txn.Template{Name: "B", Priority: 1, Steps: []txn.Step{txn.Comp(1)}})
	}
	var tally cc.Tally
	for _, row := range []struct {
		name     string
		item     rt.Item
		mode     rt.Mode
		dec      cc.Decision
		changed  bool
		status   cc.Status
		blockers []rt.JobID
		ever     []rt.JobID
		tally    cc.Tally
	}{
		{name: "fresh denial", item: x, mode: rt.Write, dec: cc.Block("rw-conflict", 2, 1),
			changed: true, status: cc.Blocked, blockers: []rt.JobID{1, 2}, ever: []rt.JobID{1, 2},
			tally: cc.Tally{{Rule: "rw-conflict", Blocks: 1}}},
		{name: "same set in another order, with repeats", item: x, mode: rt.Write, dec: cc.Block("rw-conflict", 2, 1, 2, 1),
			changed: false, status: cc.Blocked, blockers: []rt.JobID{1, 2}, ever: []rt.JobID{1, 2},
			tally: cc.Tally{{Rule: "rw-conflict", Blocks: 1}}},
		{name: "a different set", item: x, mode: rt.Write, dec: cc.Block("rw-conflict", 3, 1),
			changed: true, status: cc.Blocked, blockers: []rt.JobID{1, 3}, ever: []rt.JobID{1, 2, 3},
			tally: cc.Tally{{Rule: "rw-conflict", Blocks: 1}}},
		{name: "write granted after a block", item: x, mode: rt.Write, dec: cc.Grant("LC1"),
			changed: true, status: cc.Ready, blockers: []rt.JobID{}, ever: []rt.JobID{1, 2, 3},
			tally: cc.Tally{{Rule: "rw-conflict", Blocks: 1}, {Rule: "LC1", Grants: 1}}},
		{name: "fresh denial of a read", item: y, mode: rt.Read, dec: cc.Block("ceiling", 2),
			changed: true, status: cc.Blocked, blockers: []rt.JobID{2}, ever: []rt.JobID{1, 2, 3},
			tally: cc.Tally{{Rule: "rw-conflict", Blocks: 1}, {Rule: "LC1", Grants: 1}, {Rule: "ceiling", Blocks: 1}}},
		{name: "retry denied under another rule", item: y, mode: rt.Read, dec: cc.Block("table1-on-LC2", 2),
			changed: false, status: cc.Blocked, blockers: []rt.JobID{2}, ever: []rt.JobID{1, 2, 3},
			tally: cc.Tally{{Rule: "rw-conflict", Blocks: 1}, {Rule: "LC1", Grants: 1}, {Rule: "ceiling", Blocks: 1}, {Rule: "table1-on-LC2"}}},
		{name: "read granted after a block", item: y, mode: rt.Read, dec: cc.Grant("LC2"),
			changed: true, status: cc.Ready, blockers: []rt.JobID{}, ever: []rt.JobID{1, 2, 3},
			tally: cc.Tally{{Rule: "rw-conflict", Blocks: 1}, {Rule: "LC1", Grants: 1}, {Rule: "ceiling", Blocks: 1}, {Rule: "table1-on-LC2"}, {Rule: "LC2", Grants: 1}}},
		{name: "read granted to a ready job", item: y, mode: rt.Read, dec: cc.Grant("LC2"),
			changed: false, status: cc.Ready, blockers: []rt.JobID{}, ever: []rt.JobID{1, 2, 3},
			tally: cc.Tally{{Rule: "rw-conflict", Blocks: 1}, {Rule: "LC1", Grants: 1}, {Rule: "ceiling", Blocks: 1}, {Rule: "table1-on-LC2"}, {Rule: "LC2", Grants: 2}}},
	} {
		changed := cc.Apply(env, j, row.item, row.mode, row.dec, &tally)
		if changed != row.changed || j.Status != row.status {
			t.Errorf("%s: changed %v, status %v; want %v, %v", row.name, changed, j.Status, row.changed, row.status)
		}
		if !slices.Equal(j.Blockers, row.blockers) || !slices.Equal(j.EverBlockedBy, row.ever) {
			t.Errorf("%s: blockers %v, ever blocked by %v; want %v, %v", row.name, j.Blockers, j.EverBlockedBy, row.blockers, row.ever)
		}
		if !slices.Equal(tally, row.tally) {
			t.Errorf("%s: tally %v, want %v", row.name, tally, row.tally)
		}
		if j.Status == cc.Blocked && (j.BlockedOn != row.item || j.BlockedMode != row.mode) {
			t.Errorf("%s: blocked on %d in mode %v, want %d in %v", row.name, j.BlockedOn, j.BlockedMode, row.item, row.mode)
		}
		if row.dec.Granted {
			held := env.Table.HoldsRead(j.ID, row.item)
			if row.mode == rt.Write {
				held = env.Table.HoldsWrite(j.ID, row.item)
			}
			if !held || j.DataRead.Has(row.item) != (row.mode == rt.Read) {
				t.Errorf("%s: lock held %v, item in DataRead %v", row.name, held, j.DataRead.Has(row.item))
			}
		}
	}
	if j.DataRead.Has(x) || !j.DataRead.Has(y) {
		t.Errorf("DataRead holds %v: the read of y and not the write of x", j.DataRead.Items())
	}
	if got := tally.Of("LC2"); got != (cc.RuleCount{Rule: "LC2", Grants: 2}) {
		t.Errorf("Of(LC2) = %+v", got)
	}
	if got := tally.Of("hp-wait"); got != (cc.RuleCount{Rule: "hp-wait"}) {
		t.Errorf("Of of a rule never seen = %+v, want zero counts", got)
	}

	// Wait keeps its own copy: the caller may reuse the slice it passed.
	k := env.AddJob(11, tmpl)
	buf := []rt.JobID{3, 2}
	cc.Wait(k, rt.NoItem, rt.Write, buf)
	buf[0], buf[1] = 7, 7
	if !slices.Equal(k.Blockers, []rt.JobID{2, 3}) {
		t.Errorf("after the caller reused its slice, Blockers = %v, want [2 3]", k.Blockers)
	}

	// Retire: a Blocked job leaving reports it, a Ready one does not; either
	// way the locks, DataRead and the blocking state go.
	if !cc.Retire(env, k, cc.Aborted) || k.Status != cc.Aborted || len(k.Blockers) != 0 {
		t.Errorf("Retire of a Blocked job: status %v, blockers %v, want aborted and none, reported", k.Status, k.Blockers)
	}
	if cc.Retire(env, j, cc.Done) || j.Status != cc.Done {
		t.Errorf("Retire of a Ready job reported a change, or left status %v", j.Status)
	}
	if n := env.Table.LockCount(); n != 0 || j.DataRead.Len() != 0 {
		t.Errorf("after Retire: %d locks in the table, DataRead %v", n, j.DataRead.Items())
	}
	if !slices.Equal(j.EverBlockedBy, []rt.JobID{1, 2, 3}) {
		t.Errorf("Retire touched EverBlockedBy: %v", j.EverBlockedBy)
	}
}
