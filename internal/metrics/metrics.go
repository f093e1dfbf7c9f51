// Package metrics aggregates simulation results into the statistics the
// experiments report: per-transaction blocking and response times, deadline
// miss ratios, restart counts, and serializability verdicts.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"pcpda/internal/rt"
	"pcpda/internal/sched"
)

// TxnStats aggregates all jobs of one transaction template in a run.
type TxnStats struct {
	Name      string
	Jobs      int
	Completed int
	Misses    int
	Restarts  int

	TotalBlocked rt.Ticks // ticks spent blocked, summed over jobs
	MaxBlocked   rt.Ticks // worst single-job blocking
	TotalInv     rt.Ticks // effective (priority-inversion) blocking
	MaxInv       rt.Ticks

	TotalResponse rt.Ticks // summed over completed jobs
	MaxResponse   rt.Ticks
}

// AvgResponse returns the mean response time of completed jobs (0 if none).
func (s TxnStats) AvgResponse() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalResponse) / float64(s.Completed)
}

// PerTxn aggregates a run per template, in set order.
func PerTxn(res *sched.Result) []TxnStats {
	out := make([]TxnStats, len(res.Set.Templates))
	for i, tmpl := range res.Set.Templates {
		out[i].Name = tmpl.Name
	}
	for _, j := range res.Jobs {
		s := &out[j.Tmpl.ID]
		s.Jobs++
		s.Restarts += j.Restarts
		s.TotalBlocked += j.BlockedTicks
		if j.BlockedTicks > s.MaxBlocked {
			s.MaxBlocked = j.BlockedTicks
		}
		s.TotalInv += j.InvBlockTicks
		if j.InvBlockTicks > s.MaxInv {
			s.MaxInv = j.InvBlockTicks
		}
		if j.Missed() {
			s.Misses++
		}
		if r := j.ResponseTime(); r >= 0 {
			s.Completed++
			s.TotalResponse += r
			if r > s.MaxResponse {
				s.MaxResponse = r
			}
		}
	}
	return out
}

// Summary condenses one run for cross-protocol comparison tables.
type Summary struct {
	Protocol  string
	Jobs      int
	Committed int
	Misses    int
	Aborts    int
	Restarts  int

	MissRatio    float64 // misses / jobs with a deadline
	TotalBlocked rt.Ticks
	MaxBlocked   rt.Ticks
	TotalInv     rt.Ticks
	AvgResponse  float64
	MaxSysceil   rt.Priority

	Deadlocked    bool
	Serializable  bool
	CommitOrderOK bool
}

// Summarize builds the summary, including the history check.
func Summarize(res *sched.Result) Summary {
	s := Summary{
		Protocol:   res.Protocol,
		Jobs:       len(res.Jobs),
		Committed:  res.Committed,
		Misses:     res.Misses,
		Aborts:     res.Aborts,
		Restarts:   res.Restarts,
		MaxSysceil: res.MaxSysceil,
		Deadlocked: res.Deadlocked,
	}
	deadlined := 0
	var totalResp rt.Ticks
	completed := 0
	for _, j := range res.Jobs {
		if j.AbsDeadline > 0 {
			deadlined++
		}
		s.TotalBlocked += j.BlockedTicks
		if j.BlockedTicks > s.MaxBlocked {
			s.MaxBlocked = j.BlockedTicks
		}
		s.TotalInv += j.InvBlockTicks
		if r := j.ResponseTime(); r >= 0 {
			completed++
			totalResp += r
		}
	}
	if deadlined > 0 {
		s.MissRatio = float64(s.Misses) / float64(deadlined)
	}
	if completed > 0 {
		s.AvgResponse = float64(totalResp) / float64(completed)
	}
	rep := res.History.Check()
	s.Serializable = rep.Serializable
	s.CommitOrderOK = rep.CommitOrderOK
	return s
}

// Contention is one item's share of the run's blocked time.
type Contention struct {
	Item    rt.Item
	Name    string
	Blocked rt.Ticks
}

// TopContended ranks the items jobs waited for, most-blocked first,
// truncated to n entries (n <= 0 returns all). Ties break by item id so
// the ranking is deterministic.
func TopContended(res *sched.Result, n int) []Contention {
	var out []Contention
	for x, ticks := range res.ItemBlocked {
		if ticks > 0 {
			it := rt.Item(x)
			out = append(out, Contention{Item: it, Name: res.Set.Catalog.Name(it), Blocked: ticks})
		}
	}
	// Items are collected in id order, so a stable sort breaks ties by id.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Blocked > out[j].Blocked })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Table renders summaries as an aligned text table, one row per protocol.
func Table(sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %6s %6s %7s %8s %8s %8s %9s %6s\n",
		"protocol", "jobs", "commit", "miss", "restart",
		"blocked", "maxblk", "avgresp", "serializ", "dlock")
	for _, s := range sums {
		ser := "ok"
		if !s.Serializable {
			ser = "VIOLATED"
		}
		dl := "no"
		if s.Deadlocked {
			dl = "YES"
		}
		fmt.Fprintf(&b, "%-12s %6d %6d %6d %7d %8d %8d %8.2f %9s %6s\n",
			s.Protocol, s.Jobs, s.Committed, s.Misses, s.Restarts,
			s.TotalBlocked, s.MaxBlocked, s.AvgResponse, ser, dl)
	}
	return b.String()
}
