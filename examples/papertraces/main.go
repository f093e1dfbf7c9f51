// Papertraces replays the paper's worked examples (1, 3, 4 and 5) under
// PCP-DA and its baselines through the public API and prints the timelines
// corresponding to Figures 1-5.
//
//	go run ./examples/papertraces
//
// For the full checked reproduction (with PASS/FAIL assertions against the
// prose) use cmd/experiments instead; this example shows how to drive the
// same scenarios from library code. The sets and their horizons come from
// internal/papercases, the one copy of the paper's examples (DESIGN.md §4
// justifies their segment lengths).
package main

import (
	"fmt"
	"log"

	"pcpda"
	"pcpda/internal/papercases"
)

func show(title string, set *pcpda.Set, protocol string, horizon pcpda.Ticks) {
	res, err := pcpda.Run(set, protocol, pcpda.Options{
		Horizon: horizon, Trace: true, StopOnDeadlock: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- %s (%s) ---\n", title, res.Protocol)
	fmt.Println(res.Timeline.Render(set))
	sum := pcpda.Summarize(res)
	fmt.Printf("blocked=%d misses=%d deadlocked=%v serializable=%v\n\n",
		sum.TotalBlocked, sum.Misses, sum.Deadlocked, sum.Serializable)
}

func main() {
	show("Figure 1: Example 1", papercases.Example1(), "rwpcp", papercases.Example1Horizon)
	show("Example 1, blocking-free contrast", papercases.Example1(), "pcpda", papercases.Example1Horizon)
	show("Figure 2: Example 3", papercases.Example3(), "pcpda", papercases.Example3Horizon)
	show("Figure 3: Example 3 — T1 misses its deadline at t=6", papercases.Example3(), "rwpcp", papercases.Example3Horizon)
	show("Figure 4: Example 4", papercases.Example4(), "pcpda", papercases.Example4Horizon)
	show("Figure 5: Example 4", papercases.Example4(), "rwpcp", papercases.Example4Horizon)
	show("Example 5: the naive protocol deadlocks", papercases.Example5(), "naiveda", papercases.Example5Horizon)
	show("Example 5: PCP-DA does not", papercases.Example5(), "pcpda", papercases.Example5Horizon)
}
