// Snapshot-read validation: read-only multiversion transactions do not
// appear in the shared history (they commit at no tick of their own, so
// commit-order edges cannot rank them). Instead, each one carries its
// snapshot tick and the (version, writer) pairs it observed, and
// CheckSnapshot demands those observations are exactly the committed
// state at that tick — the definition of a correct snapshot read under
// commit-order-determined visibility (Faleiro & Abadi): serializable by
// construction, serialized at its snapshot tick.

package history

import (
	"fmt"

	"pcpda/internal/db"
	"pcpda/internal/rt"
)

// SnapshotRead is one observation made by a read-only snapshot
// transaction: item x read as version Ver installed by run From.
// Version 0 / InitRun is the initial state.
type SnapshotRead struct {
	Item rt.Item
	Ver  db.Version
	From db.RunID
}

// SnapshotWrite is the newest committed write of one item at or before a
// snapshot tick.
type SnapshotWrite struct {
	Ver  db.Version
	From db.RunID
}

// StateAt computes the committed state visible at tick snap: for every
// item written by a run that committed at or before snap, the newest such
// version. Items absent from the map were unwritten at snap (initial
// state). Writes are recorded at their commit tick, so "committed at or
// before snap" and "write op at or before snap" coincide.
func (h *History) StateAt(snap rt.Ticks) map[rt.Item]SnapshotWrite {
	committed := h.Committed()
	out := make(map[rt.Item]SnapshotWrite)
	for _, op := range h.Ops {
		if op.Kind != WriteOp {
			continue
		}
		ct, ok := committed[op.Run]
		if !ok || ct > snap {
			continue
		}
		if have, seen := out[op.Item]; !seen || op.Ver > have.Ver {
			out[op.Item] = SnapshotWrite{Ver: op.Ver, From: op.Run}
		}
	}
	return out
}

// CheckSnapshot validates one read-only transaction's observations
// against the committed state at its snapshot tick and returns a
// violation per mismatching read (nil = the snapshot was exact).
//
// Two observations are accepted without a matching recorded write:
// the initial state (version 0 by InitRun) where no write committed at
// or before snap, and versions installed by runs below the low-water
// mark of a Recorder's window (their write records were dropped after
// validation, mirroring the dirty-read leniency in buildGraph).
func (h *History) CheckSnapshot(snap rt.Ticks, reads []SnapshotRead) []Violation {
	state := h.StateAt(snap)
	var out []Violation
	for _, r := range reads {
		want, ok := state[r.Item]
		if !ok {
			if r.Ver == 0 && r.From == db.InitRun {
				continue // initial state, correctly
			}
			if r.From != db.InitRun && r.From < h.base {
				continue // its write record was dropped from the window, validated
			}
			out = append(out, Violation{
				Kind: "snapshot-read",
				Detail: fmt.Sprintf("item %d read as v%d from run %d, but no write had committed by snapshot tick %d",
					r.Item, r.Ver, r.From, snap),
			})
			continue
		}
		if r.Ver != want.Ver || r.From != want.From {
			out = append(out, Violation{
				Kind: "snapshot-read",
				Detail: fmt.Sprintf("item %d read as v%d from run %d, but committed state at snapshot tick %d is v%d from run %d",
					r.Item, r.Ver, r.From, snap, want.Ver, want.From),
			})
		}
	}
	return out
}
