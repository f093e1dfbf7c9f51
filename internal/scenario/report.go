package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TierSLO is one priority tier's share of a phase row. Tier is the BASE
// priority of the tier's templates (the wire schema's priority on the
// live side, the origin template's priority on the sim side), so the two
// backends' tier labels line up.
type TierSLO struct {
	Tier      int32   `json:"tier"`
	Offered   int64   `json:"offered"`
	OnTime    int64   `json:"on_time"`
	MissRatio float64 `json:"deadline_miss_ratio"` // 1 - OnTime/Offered
}

// PhaseReport is one (phase, protocol) row of a scenario run — the shared
// SLO schema both backends emit. Counts aggregate across the sim seed
// sweep; latencies pool across seeds before the percentile cut.
type PhaseReport struct {
	Phase    string `json:"phase"`
	Protocol string `json:"protocol"` // sim protocol name, or "live/<proto>"

	Offered   int64 `json:"offered"`   // arrivals
	Committed int64 `json:"committed"` // commits, on time or not
	OnTime    int64 `json:"on_time"`   // commits within the deadline budget
	Missed    int64 `json:"missed"`    // Offered − OnTime: late, aborted, shed, dropped or lost
	Restarts  int64 `json:"restarts"`  // protocol restarts (sim) / client retries (live)
	Aborted   int64 `json:"aborted"`   // injected-fault aborts (sim) / abandoned transactions (live)
	Shed      int64 `json:"shed"`      // admission sheds (live; sim has no admission layer)
	Overrun   int64 `json:"overrun"`   // client-side drops at MaxInFlight (live)

	MissRatio float64 `json:"deadline_miss_ratio"` // 1 - OnTime/Offered

	P50MS  float64 `json:"p50_ms"` // arrival→commit latency over committed work
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`

	OfferedRate  float64 `json:"offered_rate"`  // nominal mean arrivals/s
	AchievedRate float64 `json:"achieved_rate"` // live: pacer-achieved; sim: exact by construction
	ThroughputPS float64 `json:"throughput_ps"` // Committed / phase duration

	Tiers []TierSLO `json:"tiers"`
	// Series is commits per bucket across the phase window (plus the
	// straggler tail in the last bucket) — the throughput-over-time view,
	// client.Buckets of them on both backends.
	Series []int64 `json:"series"`
}

// Report is one backend's run of a scenario.
type Report struct {
	Scenario string        `json:"scenario"`
	Backend  string        `json:"backend"` // "sim" | "live"
	Seed     int64         `json:"seed"`
	Seeds    int           `json:"seeds,omitempty"` // sim sweep width
	Rows     []PhaseReport `json:"rows"`
}

// Document bundles the backends' reports of one scenario run — the JSON
// file cmd/pcpscenario writes.
type Document struct {
	Scenario string    `json:"scenario"`
	Reports  []*Report `json:"reports"`
}

// JSON renders the report deterministically (fixed field order, no
// wall-clock fields on the sim backend): two sim runs of the same spec and
// seed produce byte-identical output.
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Render writes the human-readable table form.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "scenario %s · backend %s · seed %d", r.Scenario, r.Backend, r.Seed)
	if r.Seeds > 1 {
		fmt.Fprintf(w, " · %d-seed sweep", r.Seeds)
	}
	fmt.Fprintln(w)
	phase := ""
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Phase != phase {
			phase = row.Phase
			fmt.Fprintf(w, "phase %-14s offered %.0f/s\n", phase, row.OfferedRate)
			fmt.Fprintf(w, "  %-10s %8s %8s %8s %7s %8s %8s %8s %9s\n",
				"protocol", "offered", "ontime", "miss", "ratio", "p50ms", "p99ms", "p999ms", "thru/s")
		}
		fmt.Fprintf(w, "  %-10s %8d %8d %8d %7.3f %8.1f %8.1f %8.1f %9.1f\n",
			row.Protocol, row.Offered, row.OnTime, row.Missed, row.MissRatio,
			row.P50MS, row.P99MS, row.P999MS, row.ThroughputPS)
	}
}

// sortRows orders rows by phase (spec order is preserved by construction)
// then protocol name — the canonical row order of the shared schema.
func sortRows(rows []PhaseReport, phaseOrder []string) {
	rank := make(map[string]int, len(phaseOrder))
	for i, n := range phaseOrder {
		rank[n] = i
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rank[rows[a].Phase] != rank[rows[b].Phase] {
			return rank[rows[a].Phase] < rank[rows[b].Phase]
		}
		return rows[a].Protocol < rows[b].Protocol
	})
}

// finishRow derives the ratio fields every constructor shares.
func (p *PhaseReport) finish(durS float64) {
	p.Missed = p.Offered - p.OnTime
	if p.Offered > 0 {
		p.MissRatio = 1 - float64(p.OnTime)/float64(p.Offered)
	}
	if durS > 0 {
		p.ThroughputPS = float64(p.Committed) / durS
	}
	for i := range p.Tiers {
		t := &p.Tiers[i]
		if t.Offered > 0 {
			t.MissRatio = 1 - float64(t.OnTime)/float64(t.Offered)
		}
	}
}

// percentileMS cuts p50/p99/p999 out of a sorted latency slice (already in
// milliseconds).
func percentileMS(sorted []float64) (p50, p99, p999 float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	return sorted[n*50/100], sorted[n*99/100], sorted[n*999/1000]
}
