package history

import (
	"testing"

	"pcpda/internal/db"
	"pcpda/internal/rt"
)

// FuzzCheck feeds arbitrary op streams to the serializability checker: it
// must never panic, and its verdicts must be self-consistent (a history
// whose committed projection is empty is trivially serializable; a
// commit-order-consistent history with committed runs must also be
// serializable, because all edges then follow a total order).
func FuzzCheck(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{10, 200, 3, 44, 9, 0, 0, 1, 2, 250, 17})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := New()
		tick := rt.Ticks(0)
		for i := 0; i+3 < len(data); i += 4 {
			tick++
			run := db.RunID(data[i]%8) + 1
			item := rt.Item(data[i+1] % 4)
			ver := db.Version(data[i+2] % 6)
			switch data[i+3] % 5 {
			case 0:
				h.Begin(tick, run, 0)
			case 1:
				h.Read(tick, run, 0, item, ver, db.RunID(data[i+2]%9))
			case 2:
				h.Write(tick, run, 0, item, ver)
			case 3:
				h.Commit(tick, run, 0)
			case 4:
				h.Abort(tick, run, 0)
			}
		}
		rep := h.Check()
		if rep.CommittedRuns == 0 && !rep.Serializable {
			t.Fatalf("empty committed projection flagged: %+v", rep.Violations)
		}
		if rep.CommitOrderOK {
			// All edges follow commit order, which is total: no cycle can
			// exist, so any non-serializable verdict must be a dirty read.
			for _, v := range rep.Violations {
				if v.Kind == "cycle" {
					t.Fatalf("commit-order-consistent history with a cycle: %+v", rep.Violations)
				}
			}
		}
		// Idempotent: re-checking gives the same verdict.
		again := h.Check()
		if again.Serializable != rep.Serializable || again.CommitOrderOK != rep.CommitOrderOK {
			t.Fatal("Check is not idempotent")
		}
	})
}

// FuzzAuditVsCheck holds the continuous audit to the batch checker on
// well-formed deferred-update logs (genLog: one live run per template,
// reads of committed versions, installs with the commit): whatever Check
// flags, the audit must flag too. The audit may be stricter — its chain
// rule and its read-time check have no counterpart in Check — never laxer.
func FuzzAuditVsCheck(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 3, 0, 4, 0, 0, 6, 0, 5, 1, 6, 0, 1})
	f.Add([]byte{0, 1, 2, 3, 0, 0, 1, 0, 1, 2, 4, 1, 3, 4, 0, 0, 6, 0, 0, 1, 6, 0, 7, 2, 6, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := genLog(func(n int) (int, bool) {
			if len(data) == 0 {
				return 0, false
			}
			c := int(data[0]) % n
			data = data[1:]
			return c, true
		})
		h := &History{Ops: ops}
		rep := h.Check()
		if a := Replay(ops); (!rep.Serializable || !rep.CommitOrderOK) && a.Flagged() == 0 {
			t.Fatalf("Check flags a log the audit passes:\n%s\n%v", h, rep.Violations)
		}
	})
}
