// Package history records transaction execution histories and checks them
// for serializability.
//
// The kernel appends one Op per data access, commit and abort. Because the
// database (package db) versions every installed value, each read carries
// the exact version (and writing run) it observed, so the checker can build
// the real serialization graph of the committed projection instead of
// guessing from operation timestamps:
//
//   - wr edges: the installer of a version precedes each of its readers.
//   - ww edges: version order on each item.
//   - rw edges: whoever read version v of x precedes the installer of
//     version v+1 of x.
//
// A history is serializable iff this graph is acyclic (Bernstein et al.,
// the paper's [4]). For PCP-DA the paper proves more (Theorem 3): the
// serialization order equals the commit order; CommitOrderConsistent checks
// that stronger property, which is the Lemma 9 invariant.
package history

import (
	"fmt"
	"sort"
	"strings"

	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// OpKind enumerates recorded operations.
type OpKind uint8

const (
	// BeginOp marks the first scheduling of a run.
	BeginOp OpKind = iota
	// ReadOp records a data read with the observed version.
	ReadOp
	// WriteOp records an installed write (at write time for in-place
	// protocols, at commit time for deferred ones).
	WriteOp
	// CommitOp marks a successful commit.
	CommitOp
	// AbortOp marks an abort (2PL-HP restarts, firm-deadline terminations).
	AbortOp
)

// String returns a one-letter mnemonic.
func (k OpKind) String() string {
	switch k {
	case BeginOp:
		return "B"
	case ReadOp:
		return "R"
	case WriteOp:
		return "W"
	case CommitOp:
		return "C"
	case AbortOp:
		return "A"
	}
	return "?"
}

// Op is one recorded event.
type Op struct {
	Time rt.Ticks
	Run  db.RunID
	Txn  txn.ID
	Kind OpKind
	Item rt.Item    // ReadOp/WriteOp only
	Ver  db.Version // ReadOp: version observed; WriteOp: version installed
	From db.RunID   // ReadOp: run that installed the observed version
}

// History is an append-only op log: what the simulator records, and the
// form in which a Recorder hands out its retained window.
type History struct {
	Ops []Op

	// base is the low-water run id of a Recorder's window: every run below
	// it had operations dropped from the log after they were validated (the
	// continuous Audit saw them all), so such a run is taken as committed —
	// a read observing one of its versions is not a dirty read even though
	// its commit record is gone. Zero for a log that was never truncated.
	base db.RunID
}

// New returns an empty history.
func New() *History { return &History{} }

// Begin records the start of a run.
func (h *History) Begin(t rt.Ticks, run db.RunID, id txn.ID) {
	h.Ops = append(h.Ops, Op{Time: t, Run: run, Txn: id, Kind: BeginOp})
}

// Read records that run observed version ver of x, installed by from.
func (h *History) Read(t rt.Ticks, run db.RunID, id txn.ID, x rt.Item, ver db.Version, from db.RunID) {
	h.Ops = append(h.Ops, Op{Time: t, Run: run, Txn: id, Kind: ReadOp, Item: x, Ver: ver, From: from})
}

// Write records that run installed version ver of x.
func (h *History) Write(t rt.Ticks, run db.RunID, id txn.ID, x rt.Item, ver db.Version) {
	h.Ops = append(h.Ops, Op{Time: t, Run: run, Txn: id, Kind: WriteOp, Item: x, Ver: ver})
}

// Commit records a successful commit.
func (h *History) Commit(t rt.Ticks, run db.RunID, id txn.ID) {
	h.Ops = append(h.Ops, Op{Time: t, Run: run, Txn: id, Kind: CommitOp})
}

// Abort records an abort.
func (h *History) Abort(t rt.Ticks, run db.RunID, id txn.ID) {
	h.Ops = append(h.Ops, Op{Time: t, Run: run, Txn: id, Kind: AbortOp})
}

// Committed returns the set of committed runs with their commit times.
func (h *History) Committed() map[db.RunID]rt.Ticks {
	out := make(map[db.RunID]rt.Ticks)
	for _, op := range h.Ops {
		if op.Kind == CommitOp {
			out[op.Run] = op.Time
		}
	}
	return out
}

// Aborted returns the set of aborted runs.
func (h *History) Aborted() map[db.RunID]bool {
	out := make(map[db.RunID]bool)
	for _, op := range h.Ops {
		if op.Kind == AbortOp {
			out[op.Run] = true
		}
	}
	return out
}

// TxnOf returns the template id of each run seen in the history.
func (h *History) TxnOf() map[db.RunID]txn.ID {
	out := make(map[db.RunID]txn.ID)
	for _, op := range h.Ops {
		out[op.Run] = op.Txn
	}
	return out
}

// Violation describes one serializability problem.
type Violation struct {
	Kind   string     // "dirty-read", "cycle", "commit-order"
	Detail string     // human-readable explanation
	Cycle  []db.RunID // populated for "cycle"
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Report is the result of checking a history.
type Report struct {
	Serializable  bool
	CommitOrderOK bool // serialization order == commit order (Theorem 3 property)
	Violations    []Violation
	CommittedRuns int
	AbortedRuns   int
	EdgeCount     int
}

// edgeKind names the dependency a serialization-graph edge stands for.
type edgeKind uint8

const (
	edgeWW edgeKind = iota
	edgeWR
	edgeRW
)

func (k edgeKind) String() string {
	switch k {
	case edgeWW:
		return "ww"
	case edgeWR:
		return "wr"
	}
	return "rw"
}

// graphEdge is one serialization-graph edge with provenance, kept as
// (kind, item, version) and formatted only when a violation or DOT asks:
// the clean path builds one per dependency and reads none of them.
type graphEdge struct {
	from, to db.RunID
	kind     edgeKind
	item     rt.Item
	ver      db.Version // wr/rw: the version read; unused for ww
}

func (e graphEdge) why() string {
	if e.kind == edgeWW {
		return fmt.Sprintf("ww on item %d", e.item)
	}
	return fmt.Sprintf("%s on item %d v%d", e.kind, e.item, e.ver)
}

// buildGraph assembles the multiversion serialization graph over committed
// runs and reports dirty reads along the way.
func (h *History) buildGraph() ([]graphEdge, []Violation) {
	committed := h.Committed()
	var violations []Violation
	isLive := func(r db.RunID) bool {
		_, ok := committed[r]
		return ok || r == db.InitRun || r < h.base
	}

	// versions[x] = installer of each version, keyed by version number.
	versions := make(map[rt.Item]map[db.Version]db.RunID)
	// reads[x] = committed reads of x.
	type read struct {
		run db.RunID
		ver db.Version
	}
	reads := make(map[rt.Item][]read)

	for _, op := range h.Ops {
		if _, ok := committed[op.Run]; !ok {
			continue // project onto committed runs
		}
		switch op.Kind {
		case WriteOp:
			vm := versions[op.Item]
			if vm == nil {
				vm = make(map[db.Version]db.RunID)
				versions[op.Item] = vm
			}
			vm[op.Ver] = op.Run
		case ReadOp:
			if op.From == op.Run {
				continue // read of own (workspace) write: no edge
			}
			if !isLive(op.From) {
				violations = append(violations, Violation{
					Kind:   "dirty-read",
					Detail: fmt.Sprintf("run %d committed after reading item %d v%d written by non-committed run %d", op.Run, op.Item, op.Ver, op.From),
				})
				continue
			}
			reads[op.Item] = append(reads[op.Item], read{run: op.Run, ver: op.Ver})
		}
	}

	var edges []graphEdge
	add := func(from, to db.RunID, kind edgeKind, x rt.Item, ver db.Version) {
		if from == to || from == db.InitRun || to == db.InitRun {
			return
		}
		edges = append(edges, graphEdge{from, to, kind, x, ver})
	}

	items := make([]rt.Item, 0, len(versions))
	for x := range versions {
		items = append(items, x)
	}
	for x := range reads {
		if _, ok := versions[x]; !ok {
			items = append(items, x)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	for _, x := range items {
		vm := versions[x]
		// Sorted version numbers for this item (committed installers only).
		vers := make([]db.Version, 0, len(vm))
		for v := range vm {
			vers = append(vers, v)
		}
		sort.Slice(vers, func(i, j int) bool { return vers[i] < vers[j] })

		// ww edges along the version chain.
		for i := 1; i < len(vers); i++ {
			add(vm[vers[i-1]], vm[vers[i]], edgeWW, x, 0)
		}

		// nextWriter(v): installer of the smallest committed version > v.
		nextWriter := func(v db.Version) (db.RunID, bool) {
			if i := sort.Search(len(vers), func(i int) bool { return vers[i] > v }); i < len(vers) {
				return vm[vers[i]], true
			}
			return db.NoRun, false
		}
		writerOf := func(v db.Version) (db.RunID, bool) {
			if v == 0 {
				return db.InitRun, true
			}
			w, ok := vm[v]
			return w, ok
		}

		for _, r := range reads[x] {
			if w, ok := writerOf(r.ver); ok {
				add(w, r.run, edgeWR, x, r.ver)
			}
			if nw, ok := nextWriter(r.ver); ok {
				add(r.run, nw, edgeRW, x, r.ver)
			}
		}
	}
	return edges, violations
}

// findCycle returns a cycle in the edge set, or nil.
func findCycle(edges []graphEdge) []db.RunID {
	adj := make(map[db.RunID][]db.RunID)
	nodes := make(map[db.RunID]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from] = true
		nodes[e.to] = true
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[db.RunID]int)
	var stack []db.RunID
	var cycle []db.RunID

	var dfs func(n db.RunID) bool
	dfs = func(n db.RunID) bool {
		color[n] = grey
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch color[m] {
			case grey:
				// Extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == m {
						cycle = append(cycle, stack[i:]...)
						return true
					}
				}
				cycle = append(cycle, m, n)
				return true
			case white:
				if dfs(m) {
					return true
				}
			}
		}
		color[n] = black
		stack = stack[:len(stack)-1]
		return false
	}

	ordered := make([]db.RunID, 0, len(nodes))
	for n := range nodes {
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, n := range ordered {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}

// Check validates the history and returns a full report.
func (h *History) Check() Report {
	edges, violations := h.buildGraph()
	committed := h.Committed()
	rep := Report{
		CommittedRuns: len(committed),
		AbortedRuns:   len(h.Aborted()),
		EdgeCount:     len(edges),
		Violations:    violations,
	}

	if cyc := findCycle(edges); cyc != nil {
		rep.Violations = append(rep.Violations, Violation{
			Kind:   "cycle",
			Detail: fmt.Sprintf("serialization graph cycle through runs %v", cyc),
			Cycle:  cyc,
		})
	}

	rep.CommitOrderOK = true
	for _, e := range edges {
		ct, okFrom := committed[e.from]
		cu, okTo := committed[e.to]
		if !okFrom || !okTo {
			continue
		}
		if ct >= cu {
			rep.CommitOrderOK = false
			rep.Violations = append(rep.Violations, Violation{
				Kind: "commit-order",
				Detail: fmt.Sprintf("edge %d->%d (%s) runs against commit order (%d vs %d)",
					e.from, e.to, e.why(), ct, cu),
			})
		}
	}

	rep.Serializable = true
	for _, v := range rep.Violations {
		if v.Kind == "cycle" || v.Kind == "dirty-read" {
			rep.Serializable = false
		}
	}
	return rep
}

// LastWriters returns, per item, the committed run whose installed version
// is highest — the value a serial replay in commit order would leave behind.
// Tests compare it against the store's actual final state.
func (h *History) LastWriters() map[rt.Item]db.RunID {
	committed := h.Committed()
	best := make(map[rt.Item]db.Version)
	out := make(map[rt.Item]db.RunID)
	for _, op := range h.Ops {
		if op.Kind != WriteOp {
			continue
		}
		if _, ok := committed[op.Run]; !ok {
			continue
		}
		if cur, ok := best[op.Item]; !ok || op.Ver > cur {
			best[op.Item] = op.Ver
			out[op.Item] = op.Run
		}
	}
	return out
}

// String renders the history compactly: "R1(x,v0) W2(x,v1) C2 ...".
func (h *History) String() string {
	var b strings.Builder
	for i, op := range h.Ops {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch op.Kind {
		case ReadOp, WriteOp:
			fmt.Fprintf(&b, "%s%d(%d,v%d)", op.Kind, op.Run, op.Item, op.Ver)
		default:
			fmt.Fprintf(&b, "%s%d", op.Kind, op.Run)
		}
	}
	return b.String()
}
