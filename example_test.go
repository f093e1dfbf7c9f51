package pcpda_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pcpda"
)

// Example runs the paper's Example 3 under PCP-DA and under RW-PCP and
// shows the contrast the paper's Figures 2 and 3 plot: RW-PCP blocks the
// high-priority reader behind the updater's ceilings and misses a deadline;
// PCP-DA reads straight through the write locks and misses nothing.
func Example() {
	set := pcpda.NewSet("example3")
	x := set.Catalog.Intern("x")
	y := set.Catalog.Intern("y")
	set.Add(&pcpda.Template{Name: "T1", Offset: 1, Period: 5,
		Steps: []pcpda.Step{pcpda.Read(x), pcpda.Read(y)}})
	set.Add(&pcpda.Template{Name: "T2",
		Steps: []pcpda.Step{pcpda.Write(x), pcpda.Comp(2), pcpda.Write(y), pcpda.Comp(1)}})
	set.AssignByIndex()

	for _, protocol := range []string{"pcpda", "rwpcp"} {
		res, err := pcpda.Run(set, protocol, pcpda.Options{Horizon: 10})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		sum := pcpda.Summarize(res)
		fmt.Printf("%s: misses=%d blocked=%d serializable=%v\n",
			res.Protocol, sum.Misses, sum.TotalBlocked, sum.Serializable)
	}
	// Output:
	// PCP-DA: misses=0 blocked=0 serializable=true
	// RW-PCP: misses=1 blocked=4 serializable=true
}

// ExampleRMTest reproduces the Section 9 effect: a transaction that only
// WRITES a hot item inflates the top transaction's blocking term under
// RW-PCP but not under PCP-DA, flipping the schedulability verdict.
func ExampleRMTest() {
	set := pcpda.NewSet("sec9")
	x := set.Catalog.Intern("x")
	y := set.Catalog.Intern("y")
	set.Add(&pcpda.Template{Name: "T1", Period: 10,
		Steps: []pcpda.Step{pcpda.Read(x), pcpda.Comp(6)}})
	set.Add(&pcpda.Template{Name: "T2", Period: 50,
		Steps: []pcpda.Step{pcpda.Write(x), pcpda.Read(y), pcpda.Comp(4)}})
	set.AssignRateMonotonic()

	for _, kind := range []pcpda.AnalysisKind{pcpda.AnalysisPCPDA, pcpda.AnalysisRWPCP} {
		rep, err := pcpda.RMTest(set, kind)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s: schedulable=%v B(T1)=%d\n", kind, rep.Schedulable, rep.Verdicts[0].B)
	}
	// Output:
	// PCP-DA: schedulable=true B(T1)=0
	// RW-PCP: schedulable=false B(T1)=6
}

// ExampleNewManager uses PCP-DA as a live concurrency-control component:
// a goroutine's transaction reads an item another transaction has
// write-locked, observing the committed value and serializing first.
func ExampleNewManager() {
	set := pcpda.NewSet("live")
	x := set.Catalog.Intern("x")
	set.Add(&pcpda.Template{Name: "reader", Steps: []pcpda.Step{pcpda.Read(x)}})
	set.Add(&pcpda.Template{Name: "writer", Steps: []pcpda.Step{pcpda.Write(x)}})
	set.AssignByIndex()

	mgr, err := pcpda.NewManager(set)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	w, _ := mgr.Begin(ctx, "writer")
	_ = w.Write(ctx, x, 42) // write-locks x, buffers in the workspace

	r, _ := mgr.Begin(ctx, "reader")
	v, _ := r.Read(ctx, x) // granted through the write lock (LC2 + Table 1)
	_ = r.Commit(ctx)
	_ = w.Commit(ctx)

	fmt.Printf("reader saw committed value %d; now x=%d\n", v, mgr.ReadCommitted(x))
	// Output:
	// reader saw committed value 0; now x=42
}

// ExampleManager_Exec runs a transaction through Exec, which retries a
// sacrificed attempt with backoff. The caller's context is its one
// deadline: once it expires, Exec returns ErrCancelled wrapping
// context.DeadlineExceeded, the transaction already aborted.
func ExampleManager_Exec() {
	set := pcpda.NewSet("live")
	weights := set.Catalog.Intern("weights")
	set.Add(&pcpda.Template{Name: "rebalance",
		Steps: []pcpda.Step{pcpda.Read(weights), pcpda.Write(weights)}})
	set.AssignByIndex()

	mgr, err := pcpda.NewManager(set)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rebalance := func(ctx context.Context) error {
		return mgr.Exec(ctx, "rebalance", func(tx *pcpda.LiveTxn) error {
			v, err := tx.Read(ctx, weights)
			if err != nil {
				return err // sacrifices are retried by Exec automatically
			}
			return tx.Write(ctx, weights, v+1)
		}) // commits on success
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	fmt.Println("within the deadline:", rebalance(ctx), "weights =", mgr.ReadCommitted(weights))

	expired, cancelExpired := context.WithTimeout(context.Background(), 0)
	defer cancelExpired()
	err = rebalance(expired)
	fmt.Println("past the deadline:", errors.Is(err, pcpda.ErrCancelled),
		errors.Is(err, context.DeadlineExceeded), "weights =", mgr.ReadCommitted(weights))
	// Output:
	// within the deadline: <nil> weights = 1
	// past the deadline: true true weights = 1
}

// ExampleGenerate builds a seeded random workload and checks it under
// every protocol's worst-case analysis.
func ExampleGenerate() {
	set, err := pcpda.Generate(pcpda.WorkloadConfig{
		N: 4, Items: 5, Utilization: 0.4,
		PeriodMin: 20, PeriodMax: 200,
		OpsMin: 1, OpsMax: 3, WriteProb: 0.5, Seed: 7,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("transactions=%d utilization≈%.1f\n", len(set.Templates), set.Utilization())
	// Output:
	// transactions=4 utilization≈0.4
}
