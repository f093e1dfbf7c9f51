package history

import (
	"math/rand"
	"testing"

	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// flaggedBy reports the two checkers' verdicts on one log.
func flaggedBy(ops []Op) (check, audit bool) {
	rep := (&History{Ops: ops}).Check()
	return !rep.Serializable || !rep.CommitOrderOK, Replay(ops).Flagged() > 0
}

func TestAuditHandBuilt(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *History
		bad  bool
		kind string
	}{
		{"serial", serialHistory(), false, ""},
		{"cyclic", cyclicHistory(), true, "commit-order"},
		{"stale-commit", staleCommitHistory(), true, "commit-order"},
	} {
		check, audit := flaggedBy(tc.h.Ops)
		if check != tc.bad || audit != tc.bad {
			t.Errorf("%s: Check flagged=%v, audit flagged=%v, want both %v", tc.name, check, audit, tc.bad)
		}
		if vs := Replay(tc.h.Ops).Violations(); tc.bad && (len(vs) == 0 || vs[0].Kind != tc.kind) {
			t.Errorf("%s: latched %v, want a %s violation first", tc.name, vs, tc.kind)
		}
	}
}

// TestAuditRules pins each rule on the smallest log that breaks it.
func TestAuditRules(t *testing.T) {
	var h History
	h.Begin(1, 1, 0)
	h.Write(2, 1, 0, x, 1)
	h.Begin(3, 2, 1)
	h.Read(4, 2, 1, x, 1, 1) // run 1 has installed nothing yet
	h.Commit(5, 2, 1)
	h.Abort(6, 1, 0)
	if a := Replay(h.Ops); a.Flagged() != 1 || a.Violations()[0].Kind != "dirty-read" {
		t.Errorf("read of an uncommitted version: %d flagged, %v", a.Flagged(), a.Violations())
	}

	h = History{}
	h.Begin(1, 1, 0)
	h.Write(2, 1, 0, x, 2) // the chain stands at v0
	h.Commit(2, 1, 0)
	if a := Replay(h.Ops); a.Flagged() != 1 || a.Violations()[0].Kind != "version-chain" {
		t.Errorf("install skipping a version: %d flagged, %v", a.Flagged(), a.Violations())
	}

	h = History{}
	h.Begin(1, 1, 0)
	h.Begin(2, 2, 0) // same template, run 1 still live
	h.Commit(3, 2, 0)
	if a := Replay(h.Ops); a.Flagged() != 1 || a.Violations()[0].Kind != "live-overlap" {
		t.Errorf("two live runs of one template: %d flagged, %v", a.Flagged(), a.Violations())
	}

	h = History{}
	h.Begin(1, 1, 0)
	h.Write(2, 1, 0, x, 1)
	h.Read(3, 1, 0, x, -1, 1) // its own pending write: no version observed
	h.Read(4, 1, 0, y, 0, db.InitRun)
	h.Read(5, 1, 0, y, 0, db.InitRun) // re-read, recorded once
	h.Commit(6, 1, 0)
	a := Replay(h.Ops)
	if a.Flagged() != 0 || a.Commits() != 1 {
		t.Errorf("clean run: %d flagged (%v), %d commits", a.Flagged(), a.Violations(), a.Commits())
	}
	if n := len(a.slots[0].reads); n != 1 {
		t.Errorf("slot kept %d reads, want 1", n)
	}

	a = &Audit{}
	for i := 0; i < 3*maxLatched; i++ {
		a.Observe(Op{Kind: ReadOp, Run: 1, Item: x, Ver: 7, From: 9})
	}
	if a.Flagged() != 3*maxLatched || len(a.Violations()) != maxLatched {
		t.Errorf("%d flagged, %d latched; want %d and %d", a.Flagged(), len(a.Violations()), 3*maxLatched, maxLatched)
	}
}

// genLog builds a well-formed deferred-update log from a stream of choices:
// a handful of templates (one live run each) over a few items, reads that
// observe a committed version (the newest, or sometimes an older one),
// writes installed as version chain+1 at the tick of the run's commit, one
// tick per step. There is no locking, so the logs range from serializable to
// thoroughly not; "torn" commits (installs whose CommitOp is replaced by an
// abort while later readers still see the versions) add dirty reads.
// next(n) returns the next choice in [0, n) and ok=false when the stream
// is spent.
func genLog(next func(n int) (int, bool)) []Op {
	const templates, items = 4, 3
	type version struct {
		ver db.Version
		by  db.RunID
	}
	var (
		h     History
		tick  rt.Ticks
		run   = db.InitRun
		live  [templates]db.RunID // zero (InitRun, which never runs) marks a free template
		wrote [templates][]rt.Item
		chain [items][]version
	)
	for i := range chain {
		chain[i] = []version{{0, db.InitRun}}
	}
	for {
		c, ok := next(templates)
		if !ok {
			break
		}
		id := txn.ID(c)
		tick++
		if live[c] == 0 {
			run++
			live[c] = run
			wrote[c] = wrote[c][:0]
			h.Begin(tick, run, id)
			continue
		}
		act, _ := next(8)
		it, _ := next(items)
		item := rt.Item(it)
		switch {
		case act < 3: // read the newest committed version
			v := chain[it][len(chain[it])-1]
			h.Read(tick, live[c], id, item, v.ver, v.by)
		case act == 3: // read some committed version, possibly an old one
			k, _ := next(len(chain[it]))
			v := chain[it][k]
			h.Read(tick, live[c], id, item, v.ver, v.by)
		case act < 6: // buffer a write
			dup := false
			for _, have := range wrote[c] {
				dup = dup || have == item
			}
			if !dup {
				wrote[c] = append(wrote[c], item)
			}
		case act == 6: // commit (one time in eight torn)
			torn, _ := next(8)
			for _, w := range wrote[c] {
				ver := chain[w][len(chain[w])-1].ver + 1
				chain[w] = append(chain[w], version{ver, live[c]})
				h.Write(tick, live[c], id, w, ver)
			}
			if torn == 0 {
				h.Abort(tick, live[c], id)
			} else {
				h.Commit(tick, live[c], id)
			}
			live[c] = 0
		default:
			h.Abort(tick, live[c], id)
			live[c] = 0
		}
	}
	return h.Ops
}

func TestAuditVsCheckRandom(t *testing.T) {
	var clean, both, auditOnly int
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := 40 + rng.Intn(200)
		ops := genLog(func(n int) (int, bool) {
			steps--
			return rng.Intn(n), steps >= 0
		})
		check, audit := flaggedBy(ops)
		switch {
		case check && !audit:
			t.Fatalf("seed %d: Check flags a log the audit passes:\n%s\n%v", seed, &History{Ops: ops}, (&History{Ops: ops}).Check().Violations)
		case check:
			both++
		case audit:
			auditOnly++
		default:
			clean++
		}
	}
	t.Logf("3000 logs: %d clean in both, %d flagged by both, %d by the audit alone", clean, both, auditOnly)
	if clean < 100 || both < 100 {
		t.Fatalf("generator is one-sided: %d clean, %d flagged by both", clean, both)
	}
}
