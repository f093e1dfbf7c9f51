package history

import (
	"fmt"
	"sort"
	"strings"

	"pcpda/internal/db"
	"pcpda/internal/txn"
)

// DOT renders the committed serialization graph in Graphviz dot syntax for
// debugging and documentation: one node per committed run (labelled with
// its transaction name when the set is supplied), one edge per wr/ww/rw
// dependency, with the dependency kind on the edge label. A cycle, if any,
// is immediately visible.
func (h *History) DOT(set *txn.Set) string {
	edges, _ := h.buildGraph()
	committed := h.Committed()
	txnOf := h.TxnOf()

	name := func(run db.RunID) string {
		id, ok := txnOf[run]
		if !ok || set == nil || int(id) < 0 || int(id) >= len(set.Templates) {
			return fmt.Sprintf("run%d", run)
		}
		return fmt.Sprintf("%s/r%d", set.Templates[id].Name, run)
	}

	var b strings.Builder
	b.WriteString("digraph serialization {\n  rankdir=LR;\n")
	runs := make([]db.RunID, 0, len(committed))
	for r := range committed {
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool { return committed[runs[i]] < committed[runs[j]] })
	for _, r := range runs {
		fmt.Fprintf(&b, "  %q [label=%q];\n", name(r), fmt.Sprintf("%s\\ncommit@%d", name(r), committed[r]))
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", name(e.from), name(e.to), e.kind)
	}
	b.WriteString("}\n")
	return b.String()
}
