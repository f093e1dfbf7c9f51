package experiments

import (
	"io"
	"os"
	"path/filepath"

	"pcpda/internal/metrics"
	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/sched"
	"pcpda/internal/sim"
	"pcpda/internal/trace"
	"pcpda/internal/txn"
)

func init() {
	register("fig1", "Figure 1: Example 1 under RW-PCP (ceiling + conflict blocking)", figure1)
	register("fig2", "Figure 2: Example 3 under PCP-DA (no blocking, all deadlines met)", figure2)
	register("fig3", "Figure 3: Example 3 under RW-PCP (T1 misses its deadline at t=6)", figure3)
	register("fig4", "Figure 4: Example 4 under PCP-DA (LC4 grant, Max_Sysceil = P2)", figure4)
	register("fig5", "Figure 5: Example 4 under RW-PCP (1- and 4-tick blockings, Max_Sysceil = P1)", figure5)
	register("ex5", "Example 5: deadlock of the naive condition-(2) protocol vs PCP-DA", example5)
}

// figureDir, when non-empty, makes the figure experiments also write each
// reproduced timeline as an SVG file (fig1.svg .. fig5.svg).
var figureDir string

// SetFigureDir enables SVG figure dumping into dir (cmd/experiments
// -svgdir).
func SetFigureDir(dir string) { figureDir = dir }

func runCase(set *txn.Set, protocol string, horizon rt.Ticks) (*sched.Result, error) {
	return sim.Run(set, protocol, sim.Options{
		Horizon: horizon, Trace: true, StopOnDeadlock: true,
	})
}

// dumpSVG writes the run's timeline when figure dumping is enabled.
func dumpSVG(name string, res *sched.Result) error {
	if figureDir == "" {
		return nil
	}
	path := filepath.Join(figureDir, name+".svg")
	return os.WriteFile(path, []byte(res.Timeline.SVG(res.Set)), 0o644)
}

func printRun(w io.Writer, res *sched.Result) {
	pf(w, "protocol: %s\n", res.Protocol)
	for _, tmpl := range res.Set.Templates {
		pf(w, "  %-4s (P%d): %s\n", tmpl.Name,
			len(res.Set.Templates)-int(tmpl.Priority)+1, tmpl.Signature(res.Set.Catalog))
	}
	pln(w, res.Timeline.Render(res.Set))
	pln(w, trace.Legend())
	rep := res.History.Check()
	pf(w, "history: %s\n", res.History)
	pf(w, "serializable=%v commitOrder=%v misses=%d committed=%d\n\n",
		rep.Serializable, rep.CommitOrderOK, res.Misses, res.Committed)
}

func blockedOf(res *sched.Result, name string, idx int) (blocked, inv rt.Ticks, missedAt rt.Ticks) {
	n := 0
	for _, j := range res.Jobs {
		if j.Tmpl.Name == name {
			if n == idx {
				return j.BlockedTicks, j.InvBlockTicks, j.MissedAt
			}
			n++
		}
	}
	return -1, -1, -1
}

func rowOf(res *sched.Result, name string) string {
	tmpl := res.Set.ByName(name)
	if tmpl == nil {
		return ""
	}
	return res.Timeline.RowString(tmpl.ID)
}

func figure1(w io.Writer) error {
	res, err := runCase(papercases.Example1(), "rwpcp", papercases.Example1Horizon)
	if err != nil {
		return err
	}
	printRun(w, res)
	if err := dumpSVG("fig1", res); err != nil {
		return err
	}
	check(w, rowOf(res, "T1") == papercases.Fig1RowT1, "T1 schedule matches Figure 1")
	check(w, rowOf(res, "T2") == papercases.Fig1RowT2, "T2 schedule matches Figure 1")
	check(w, rowOf(res, "T3") == papercases.Fig1RowT3, "T3 schedule matches Figure 1")
	b2, _, _ := blockedOf(res, "T2", 0)
	b1, _, _ := blockedOf(res, "T1", 0)
	check(w, b2 == 3, "T2 ceiling-blocked 3 ticks although y is free (got %d)", b2)
	check(w, b1 == 1, "T1 conflict-blocked 1 tick on write-locked x (got %d)", b1)

	pln(w, "\ncontrast — the same transactions under PCP-DA:")
	da, err := runCase(papercases.Example1(), "pcpda", papercases.Example1Horizon)
	if err != nil {
		return err
	}
	printRun(w, da)
	db1, _, _ := blockedOf(da, "T1", 0)
	db2, _, _ := blockedOf(da, "T2", 0)
	check(w, db1 == 0 && db2 == 0, "both unnecessary blockings disappear under PCP-DA")
	return nil
}

func figure2(w io.Writer) error {
	res, err := runCase(papercases.Example3(), "pcpda", papercases.Example3Horizon)
	if err != nil {
		return err
	}
	printRun(w, res)
	if err := dumpSVG("fig2", res); err != nil {
		return err
	}
	check(w, rowOf(res, "T1") == papercases.Fig2RowT1, "T1 schedule matches Figure 2")
	check(w, rowOf(res, "T2") == papercases.Fig2RowT2, "T2 schedule matches Figure 2")
	check(w, res.Misses == 0, "no deadline misses under PCP-DA (got %d)", res.Misses)
	b, _, _ := blockedOf(res, "T1", 0)
	check(w, b == 0, "T1 reads write-locked x and y without blocking (got %d)", b)
	return nil
}

func figure3(w io.Writer) error {
	res, err := runCase(papercases.Example3(), "rwpcp", papercases.Example3Horizon)
	if err != nil {
		return err
	}
	printRun(w, res)
	if err := dumpSVG("fig3", res); err != nil {
		return err
	}
	check(w, rowOf(res, "T1") == papercases.Fig3RowT1, "T1 schedule matches Figure 3")
	check(w, rowOf(res, "T2") == papercases.Fig3RowT2, "T2 schedule matches Figure 3")
	b, _, missedAt := blockedOf(res, "T1", 0)
	check(w, b == 4, "first T1 instance blocked from t=1 to t=5 (got %d ticks)", b)
	check(w, missedAt == 6, "first T1 instance misses its deadline at t=6 (got %d)", missedAt)
	return nil
}

func figure4(w io.Writer) error {
	res, err := runCase(papercases.Example4(), "pcpda", papercases.Example4Horizon)
	if err != nil {
		return err
	}
	printRun(w, res)
	if err := dumpSVG("fig4", res); err != nil {
		return err
	}
	rows := map[string]string{
		"T1": papercases.Fig4RowT1, "T2": papercases.Fig4RowT2,
		"T3": papercases.Fig4RowT3, "T4": papercases.Fig4RowT4,
	}
	for _, name := range []string{"T1", "T2", "T3", "T4"} {
		check(w, rowOf(res, name) == rows[name], "%s schedule matches Figure 4", name)
	}
	lc4 := res.Decisions.Of("LC4").Grants
	check(w, lc4 == 1, "T3's read of z granted by LC4 (got %d LC4 grants)", lc4)
	p2 := res.Set.ByName("T2").Priority
	check(w, res.MaxSysceil == p2, "Max_Sysceil stays at P2 (got %v)", res.MaxSysceil)
	check(w, res.Timeline.Ceiling(9).IsDummy(), "ceiling drops to dummy at t=9")
	var total rt.Ticks
	for _, j := range res.Jobs {
		total += j.BlockedTicks
	}
	check(w, total == 0, "no transaction blocks at all (got %d blocked ticks)", total)
	return nil
}

func figure5(w io.Writer) error {
	res, err := runCase(papercases.Example4(), "rwpcp", papercases.Example4Horizon)
	if err != nil {
		return err
	}
	printRun(w, res)
	if err := dumpSVG("fig5", res); err != nil {
		return err
	}
	rows := map[string]string{
		"T1": papercases.Fig5RowT1, "T2": papercases.Fig5RowT2,
		"T3": papercases.Fig5RowT3, "T4": papercases.Fig5RowT4,
	}
	for _, name := range []string{"T1", "T2", "T3", "T4"} {
		check(w, rowOf(res, name) == rows[name], "%s schedule matches Figure 5", name)
	}
	_, inv1, _ := blockedOf(res, "T1", 0)
	_, inv3, _ := blockedOf(res, "T3", 0)
	check(w, inv1 == 1, "T1's effective blocking by T4 is 1 tick (got %d)", inv1)
	check(w, inv3 == 4, "T3's effective blocking by T4 is 4 ticks (got %d)", inv3)
	p1 := res.Set.ByName("T1").Priority
	check(w, res.MaxSysceil == p1, "Max_Sysceil reaches P1 under RW-PCP (got %v)", res.MaxSysceil)
	return nil
}

func example5(w io.Writer) error {
	naive, err := runCase(papercases.Example5(), "naiveda", papercases.Example5Horizon)
	if err != nil {
		return err
	}
	pln(w, "the naive protocol (locking conditions (1)/(2) of Section 7):")
	printRun(w, naive)
	check(w, naive.Deadlocked, "naive condition-(2) protocol deadlocks")
	check(w, naive.DeadlockAt == 3, "deadlock closes at t=3 (got %d)", naive.DeadlockAt)

	da, err := runCase(papercases.Example5(), "pcpda", papercases.Example5Horizon)
	if err != nil {
		return err
	}
	pln(w, "the same transactions under PCP-DA (LC3 refuses TH's read of y):")
	printRun(w, da)
	check(w, !da.Deadlocked, "PCP-DA is deadlock-free on Example 5")
	check(w, da.Committed == 2, "both transactions commit (got %d)", da.Committed)
	bh, _, _ := blockedOf(da, "TH", 0)
	check(w, bh == 2, "TH blocked exactly once, for TL's remaining 2 ticks (got %d)", bh)

	sums := []metrics.Summary{metrics.Summarize(naive), metrics.Summarize(da)}
	pln(w, metrics.Table(sums))
	return nil
}
