// Package papercases encodes the worked examples of the paper (Examples 1,
// 3, 4 and 5) as transaction sets, together with the schedules the paper's
// prose fixes for them, and the smallest set found to deadlock the paper's
// rules as transcribed (LC4Deadlock). They serve as golden inputs for the figure
// reproductions (Figures 1-5) in the tests, the benchmarks and
// cmd/experiments.
//
// Where the paper's figures leave a compute-segment length implicit, the
// chosen durations are the unique ones consistent with every event time the
// prose states (lock times, completion times, blocking durations, the t=6
// deadline miss of Example 3); see DESIGN.md §4.
package papercases

import (
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Example1 builds the transaction set of the paper's Example 1 (Figure 1):
//
//	T1: Read(x)   arrives t=2   C1=1
//	T2: Read(y)   arrives t=1   C2=1
//	T3: Write(x)  arrives t=0   C3=3
//
// Under RW-PCP, T2 suffers a ceiling blocking (y is free but Sysceil =
// Aceil(x) = P1) and T1 a conflict blocking; both wait for T3.
func Example1() *txn.Set {
	s := txn.NewSet("example1")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "T1", Offset: 2, Steps: []txn.Step{txn.Read(x)}})
	s.Add(&txn.Template{Name: "T2", Offset: 1, Steps: []txn.Step{txn.Read(y)}})
	s.Add(&txn.Template{Name: "T3", Offset: 0, Steps: []txn.Step{txn.Write(x), txn.Comp(2)}})
	s.AssignByIndex()
	return s
}

// Example1Horizon is the simulation length for Figure 1.
const Example1Horizon rt.Ticks = 6

// Figure 1 (RW-PCP) golden rows: '#' executing, '-' preempted, '.' blocked.
const (
	Fig1RowT1 = "  .#  "
	Fig1RowT2 = " ...# "
	Fig1RowT3 = "###   "
)

// Example 1 under PCP-DA (not a paper figure, but the contrast the paper
// argues in prose: both blockings are unnecessary and disappear).
const (
	Ex1PCPDARowT1 = "  #   "
	Ex1PCPDARowT2 = " #    "
	Ex1PCPDARowT3 = "#--## "
)

// Example3 builds the transaction set of Example 3 (Figures 2 and 3):
//
//	T1: Read(x), Read(y)            period 5, arrives t=1, C1=2
//	T2: Write(x), 2 ticks compute,
//	    Write(y), 1 tick compute    one-shot, arrives t=0, C2=5
//
// Wceil(x)=Wceil(y)=P2. Under PCP-DA T1 never blocks; under RW-PCP the
// first T1 instance is blocked from t=1 to t=5 and misses its deadline at
// t=6.
func Example3() *txn.Set {
	s := txn.NewSet("example3")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "T1", Offset: 1, Period: 5, Steps: []txn.Step{txn.Read(x), txn.Read(y)}})
	s.Add(&txn.Template{Name: "T2", Offset: 0, Steps: []txn.Step{
		txn.Write(x), txn.Comp(2), txn.Write(y), txn.Comp(1),
	}})
	s.AssignByIndex()
	return s
}

// Example3Horizon is the simulation length for Figures 2 and 3.
const Example3Horizon rt.Ticks = 10

// Figure 2 (Example 3 under PCP-DA) golden rows.
const (
	Fig2RowT1 = " ##   ##  "
	Fig2RowT2 = "#--###--# "
)

// Figure 3 (Example 3 under RW-PCP) golden rows. The first T1 instance
// misses its t=6 deadline (it finishes at t=7; the second instance runs
// t=7..8 right behind it).
const (
	Fig3RowT1 = " ....#### "
	Fig3RowT2 = "#####     "
)

// Example4 builds the transaction set of Example 4 (Figures 4 and 5):
//
//	T1: Read(x)                    arrives t=4, C1=2
//	T2: Write(y)                   arrives t=9, C2=2
//	T3: Read(z), Write(z)          arrives t=1, C3=2
//	T4: Read(y), Write(x), compute arrives t=0, C4=5
//
// Wceil(x)=P4 (T4 is x's only writer), Wceil(y)=P2, Wceil(z)=P3;
// Aceil(x)=P1. Under PCP-DA, T3's read of z is granted by LC4 and T1's
// read of write-locked x by LC2; under RW-PCP, T3 suffers a 4-tick ceiling
// blocking and T1 a 1-tick conflict blocking.
func Example4() *txn.Set {
	s := txn.NewSet("example4")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	z := s.Catalog.Intern("z")
	s.Add(&txn.Template{Name: "T1", Offset: 4, Steps: []txn.Step{txn.Read(x), txn.Comp(1)}})
	s.Add(&txn.Template{Name: "T2", Offset: 9, Steps: []txn.Step{txn.Write(y), txn.Comp(1)}})
	s.Add(&txn.Template{Name: "T3", Offset: 1, Steps: []txn.Step{txn.Read(z), txn.Write(z)}})
	s.Add(&txn.Template{Name: "T4", Offset: 0, Steps: []txn.Step{txn.Read(y), txn.Write(x), txn.Comp(3)}})
	s.AssignByIndex()
	return s
}

// Example4Horizon is the simulation length for Figures 4 and 5.
const Example4Horizon rt.Ticks = 12

// Figure 4 (Example 4 under PCP-DA) golden rows.
const (
	Fig4RowT1 = "    ##      "
	Fig4RowT2 = "         ## "
	Fig4RowT3 = " ##         "
	Fig4RowT4 = "#--#--###   "
)

// Figure 5 (Example 4 under RW-PCP) golden rows.
const (
	Fig5RowT1 = "    .##     "
	Fig5RowT2 = "         ## "
	Fig5RowT3 = " ......##   "
	Fig5RowT4 = "#####       "
)

// Example5 builds the two-transaction set of Example 5 (Section 7), the
// deadlock demonstration for the naive "condition (2)" protocol:
//
//	TH: Read(y), Write(x)             arrives t=1
//	TL: Read(x), compute, Write(y)    arrives t=0
//
// Wceil(x)=P_H, Wceil(y)=P_L. Under the naive rule TH read-locks y at t=1,
// then TH and TL block each other; under PCP-DA LC3 refuses TH's read of y
// (y ∈ WriteSet(T*)) and no deadlock arises.
func Example5() *txn.Set {
	s := txn.NewSet("example5")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "TH", Offset: 1, Steps: []txn.Step{txn.Read(y), txn.Write(x)}})
	s.Add(&txn.Template{Name: "TL", Offset: 0, Steps: []txn.Step{txn.Read(x), txn.Comp(1), txn.Write(y)}})
	s.AssignByIndex()
	return s
}

// Example5Horizon is long enough for the PCP-DA run to finish and for the
// naive run to reach its deadlock.
const Example5Horizon rt.Ticks = 8

// Example 5 under PCP-DA: TH is ceiling-blocked twice for a total of 2
// ticks (single blocking by TL), then both complete.
const (
	Ex5PCPDARowTH = " ..##   "
	Ex5PCPDARowTL = "###     "
)

// LC4Deadlock builds the smallest set the explorer (sim.TestExplore) found
// to deadlock PCP-DA's locking conditions as transcribed from the paper:
//
//	H: Read(x), Write(x), Write(y)   arrives t=1
//	L: Read(y), Read(x)              arrives t=0
//
// Wceil(x)=Wceil(y)=P_H. L read-locks y at t=0; at t=1 LC4 grants H's read
// of x (P_H = Wceil(x), x free, x ∉ WriteSet(L)); H writes x at t=2, and at
// t=3 its write of y meets L's read lock, so L inherits P_H. L's read of x
// then faces Sysceil_L = Wceil(x) = P_H, raised by H's read lock: LC2 as
// transcribed wants a running priority strictly above it, so L waits on H
// while H waits on L. PCP-DA grants the read because every holder of that
// lock waits on L (the inherited-LC2 clause, DESIGN.md §3), and both commit.
func LC4Deadlock() *txn.Set {
	s := txn.NewSet("lc4-deadlock")
	x := s.Catalog.Intern("x")
	y := s.Catalog.Intern("y")
	s.Add(&txn.Template{Name: "H", Offset: 1, Steps: []txn.Step{txn.Read(x), txn.Write(x), txn.Write(y)}})
	s.Add(&txn.Template{Name: "L", Offset: 0, Steps: []txn.Step{txn.Read(y), txn.Read(x)}})
	s.AssignByIndex()
	return s
}

// LC4DeadlockHorizon is long enough for both transactions to commit.
const LC4DeadlockHorizon rt.Ticks = 6

// The LC4 deadlock set under PCP-DA: H is blocked one tick, by L alone.
const (
	LC4PCPDARowH = " ##.# "
	LC4PCPDARowL = "#--#  "
)
