// Livemanager drives the PCP-DA protocol as a real concurrency-control
// component: actual goroutines run transactions against the live manager
// (pcpda.NewManager), not the discrete-time simulator.
//
//	go run ./examples/livemanager
//
// The scenario mirrors Example 3: a fast "reader" goroutine repeatedly
// takes a consistent snapshot of two items that a slow "updater" goroutine
// rewrites in pairs. PCP-DA's dynamic adjustment lets every snapshot
// proceed instantly — the reader reads the last committed pair straight
// through the updater's write locks — while the commit-wait rule ensures
// the updater's new pair is never installed under a still-running
// snapshot, so no snapshot can ever observe a torn (half-updated) pair.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"pcpda"
)

func main() {
	set := pcpda.NewSet("live-demo")
	lo := set.Catalog.Intern("range_low")
	hi := set.Catalog.Intern("range_high")
	set.Add(&pcpda.Template{
		Name:  "snapshot", // high priority: Read(lo), Read(hi)
		Steps: []pcpda.Step{pcpda.Read(lo), pcpda.Read(hi)},
	})
	set.Add(&pcpda.Template{
		Name:  "rebalance", // low priority: Write(lo), Write(hi)
		Steps: []pcpda.Step{pcpda.Write(lo), pcpda.Write(hi)},
	})
	set.AssignByIndex()

	mgr, err := pcpda.NewManager(set)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const rounds = 200
	var wg sync.WaitGroup
	torn := 0
	var tornMu sync.Mutex

	// The invariant: lo and hi always move together (hi = lo + 1000).
	wg.Add(1)
	go func() { // updater
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			tx, err := mgr.Begin(ctx, "rebalance")
			if err != nil {
				log.Fatal(err)
			}
			base := pcpda.Value(i * 10)
			must(tx.Write(ctx, lo, base))
			must(tx.Write(ctx, hi, base+1000))
			must(tx.Commit(ctx))
		}
	}()

	wg.Add(1)
	go func() { // snapshotter
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tx, err := mgr.Begin(ctx, "snapshot")
			if err != nil {
				log.Fatal(err)
			}
			l, err := tx.Read(ctx, lo)
			must(err)
			h, err := tx.Read(ctx, hi)
			must(err)
			must(tx.Commit(ctx))
			if h-l != 1000 && !(l == 0 && h == 0) {
				tornMu.Lock()
				torn++
				tornMu.Unlock()
			}
		}
	}()

	wg.Wait()
	rep := mgr.History().Check()
	fmt.Printf("snapshots+rebalances committed: %d\n", rep.CommittedRuns)
	fmt.Printf("torn snapshots observed:        %d (must be 0)\n", torn)
	fmt.Printf("serializable:                   %v\n", rep.Serializable)
	fmt.Printf("commit-order (Theorem 3):       %v\n", rep.CommitOrderOK)
	fmt.Printf("cycle-breaking aborts:          %d\n", mgr.Stats().CycleAborts)
	fmt.Printf("final pair:                     lo=%d hi=%d\n",
		mgr.ReadCommitted(lo), mgr.ReadCommitted(hi))
	if torn != 0 || !rep.Serializable {
		log.Fatal("invariant violated")
	}
	fmt.Println("\nevery snapshot saw an atomic pair: reads pass through write locks")
	fmt.Println("(dynamic serialization adjustment) yet never observe torn state.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
