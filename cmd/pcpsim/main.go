// Command pcpsim simulates a workload file under one concurrency-control
// protocol and prints the paper-style timeline plus statistics.
//
//	pcpsim -workload example3.json -protocol pcpda
//	pcpsim -workload set.json -protocol rwpcp -horizon 200 -firm
//	pcpsim -workload set.json -protocol pcpda,rwpcp,ccp   # side-by-side
//	pcpsim -protocols            # list available protocols
//
// Passing several comma-separated protocols switches to compare mode: the
// set runs once per protocol, in argument order, and the summary table is
// printed side by side.
//
// Workload files are JSON (see internal/workload): transactions with
// periods, offsets and step lists over named items. The -paper flag loads
// one of the built-in paper examples (example1, example3, example4,
// example5) or the LC4 deadlock the explorer found (lc4deadlock) instead of
// a file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pcpda/internal/metrics"
	"pcpda/internal/papercases"
	"pcpda/internal/rt"
	"pcpda/internal/sched"
	"pcpda/internal/sim"
	"pcpda/internal/trace"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

func main() {
	var (
		workloadPath = flag.String("workload", "", "workload JSON file")
		paper        = flag.String("paper", "", "built-in paper example: example1, example3, example4, example5, lc4deadlock")
		protocol     = flag.String("protocol", "pcpda", "concurrency-control protocol")
		horizon      = flag.Int64("horizon", 0, "simulation length in ticks (0 = derive from the set)")
		firm         = flag.Bool("firm", false, "abort jobs at their deadlines (firm real-time)")
		list         = flag.Bool("protocols", false, "list protocols and exit")
		perTxn       = flag.Bool("pertxn", false, "print per-transaction statistics")
		csvPath      = flag.String("csv", "", "write the timeline as CSV to this file")
		dotPath      = flag.String("dot", "", "write the serialization graph as Graphviz dot to this file")
		svgPath      = flag.String("svg", "", "write the timeline as a paper-style SVG figure to this file")
		jitter       = flag.Float64("jitter", 0, "sporadic arrival jitter J (inter-arrival in [Pd, Pd*(1+J)])")
		seed         = flag.Int64("seed", 0, "sporadic-arrival RNG seed")
	)
	flag.Parse()

	if *list {
		for _, p := range sim.Protocols() {
			fmt.Println(p)
		}
		return
	}

	set, err := loadSet(*workloadPath, *paper)
	if err != nil {
		fail(err)
	}

	if strings.Contains(*protocol, ",") {
		runCompare(set, strings.Split(*protocol, ","), sim.Options{
			Horizon:        rt.Ticks(*horizon),
			FirmDeadlines:  *firm,
			TrackCeiling:   true,
			StopOnDeadlock: true,
			SporadicJitter: *jitter,
			Seed:           *seed,
		})
		return
	}

	res, err := sim.Run(set, *protocol, sim.Options{
		Horizon:        rt.Ticks(*horizon),
		FirmDeadlines:  *firm,
		Trace:          true,
		StopOnDeadlock: true,
		SporadicJitter: *jitter,
		Seed:           *seed,
	})
	if err != nil {
		fail(err)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(res.Timeline.CSV(set)), 0o644); err != nil {
			fail(err)
		}
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(res.History.DOT(set)), 0o644); err != nil {
			fail(err)
		}
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(res.Timeline.SVG(set)), 0o644); err != nil {
			fail(err)
		}
	}

	fmt.Printf("workload %q under %s (horizon %d)\n\n", set.Name, res.Protocol, res.Horizon)
	for _, t := range set.Templates {
		fmt.Printf("  %-6s pri=%-3d period=%-5d offset=%-4d C=%-4d %s\n",
			t.Name, t.Priority, t.Period, t.Offset, t.Exec(), t.Signature(set.Catalog))
	}
	fmt.Println()
	fmt.Println(res.Timeline.Render(set))
	fmt.Println(trace.Legend())
	fmt.Println()

	sum := metrics.Summarize(res)
	fmt.Print(metrics.Table([]metrics.Summary{sum}))
	if res.Deadlocked {
		fmt.Printf("\nDEADLOCK at t=%d involving jobs %v\n", res.DeadlockAt, res.DeadlockCycle)
	}
	if len(res.Decisions) > 0 {
		fmt.Printf("\n%-14s %7s %7s\n", "rule", "grants", "denials")
		for _, r := range res.Decisions {
			fmt.Printf("%-14s %7d %7d\n", r.Rule, r.Grants, r.Blocks)
		}
	}

	if top := metrics.TopContended(res, 0); len(top) > 0 {
		fmt.Println("\ncontended items (blocked ticks attributed to the awaited item):")
		for _, c := range top {
			fmt.Printf("  %-10s %d\n", c.Name, c.Blocked)
		}
	}

	if *perTxn {
		fmt.Println("\nper-transaction statistics:")
		for _, s := range metrics.PerTxn(res) {
			fmt.Printf("  %-6s jobs=%-3d done=%-3d miss=%-3d blocked=%-4d maxblk=%-4d inv=%-4d avgresp=%.2f\n",
				s.Name, s.Jobs, s.Completed, s.Misses, s.TotalBlocked, s.MaxBlocked, s.TotalInv, s.AvgResponse())
		}
	}
	if broken(set, *protocol, res, sim.Options{}) {
		os.Exit(2)
	}
}

// runCompare simulates set once per named protocol and prints the
// side-by-side summary table. A deadlocked run is reported per protocol; a
// run that breaks a promise of its protocol exits non-zero, same as
// single-protocol mode.
func runCompare(set *txn.Set, names []string, opts sim.Options) {
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	comps, err := sim.Compare(set, names, opts)
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload %q under %d protocols (horizon %d)\n\n",
		set.Name, len(comps), comps[0].Result.Horizon)
	sums := make([]metrics.Summary, len(comps))
	for i, c := range comps {
		sums[i] = c.Summary
	}
	fmt.Print(metrics.Table(sums))
	clean := true
	for _, c := range comps {
		if c.Result.Deadlocked {
			fmt.Printf("\n%s: DEADLOCK at t=%d involving jobs %v\n",
				c.Result.Protocol, c.Result.DeadlockAt, c.Result.DeadlockCycle)
		}
		if broken(set, c.Name, c.Result, opts) {
			clean = false
		}
	}
	if !clean {
		os.Exit(2)
	}
}

// broken holds a run to its protocol's promises (sim.Verify). On a broken
// promise it prints each one, the set as workload JSON (which pastes into
// -workload) and the run's timeline, and reports true. A run made without
// a trace is made again under opts with one, to render it.
func broken(set *txn.Set, protocol string, res *sched.Result, opts sim.Options) bool {
	violations := sim.Verify(protocol, res)
	if len(violations) == 0 {
		return false
	}
	fmt.Fprintf(os.Stderr, "\n%s breaks its promises:\n", res.Protocol)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "  %s\n", v)
	}
	if js, err := workload.Marshal(set); err == nil {
		fmt.Fprintf(os.Stderr, "\n%s\n", js)
	}
	if res.Timeline == nil {
		opts.Trace = true
		traced, err := sim.Run(set, protocol, opts)
		if err != nil {
			fail(err)
		}
		res = traced
	}
	fmt.Fprintf(os.Stderr, "\n%s\n", res.Timeline.Render(set))
	return true
}

func loadSet(path, paper string) (*txn.Set, error) {
	switch {
	case paper != "":
		switch paper {
		case "example1":
			return papercases.Example1(), nil
		case "example3":
			return papercases.Example3(), nil
		case "example4":
			return papercases.Example4(), nil
		case "example5":
			return papercases.Example5(), nil
		case "lc4deadlock":
			return papercases.LC4Deadlock(), nil
		}
		return nil, fmt.Errorf("unknown paper example %q", paper)
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return workload.Unmarshal(data)
	}
	return nil, fmt.Errorf("need -workload FILE or -paper NAME")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pcpsim:", err)
	os.Exit(1)
}
