// Package pcpda is a production-quality Go reproduction of
//
//	Kwok-wa Lam, Sang H. Son, Sheung-lun Hung:
//	"A Priority Ceiling Protocol with Dynamic Adjustment of Serialization
//	Order", ICDE 1997
//
// It provides the paper's protocol (PCP-DA), the baselines it is measured
// against (RW-PCP, CCP, the original PCP, 2PL with priority inheritance,
// and abort-based 2PL-HP), a discrete-time single-CPU real-time database
// simulator with priority inheritance and serializability checking, the
// worst-case blocking / rate-monotonic schedulability analysis of the
// paper's Section 9, and a seeded synthetic workload generator.
//
// # Quick start
//
//	set := pcpda.NewSet("demo")
//	x := set.Catalog.Intern("x")
//	set.Add(&pcpda.Template{Name: "T1", Period: 10, Steps: []pcpda.Step{pcpda.Read(x)}})
//	set.Add(&pcpda.Template{Name: "T2", Period: 30, Steps: []pcpda.Step{pcpda.Write(x), pcpda.Comp(2)}})
//	set.AssignRateMonotonic()
//
//	res, err := pcpda.Run(set, "pcpda", pcpda.Options{Trace: true})
//	if err != nil { ... }
//	fmt.Println(res.Timeline.Render(set))
//
// See the runnable programs under examples/ and the reproduction of every
// paper figure in cmd/experiments.
package pcpda

import (
	"pcpda/internal/analysis"
	"pcpda/internal/cc"
	"pcpda/internal/db"
	"pcpda/internal/history"
	"pcpda/internal/metrics"
	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/sched"
	"pcpda/internal/sim"
	"pcpda/internal/trace"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// Core vocabulary.
type (
	// Ticks is discrete simulation time.
	Ticks = rt.Ticks
	// Priority is a transaction priority (higher = more urgent).
	Priority = rt.Priority
	// Item identifies a data item.
	Item = rt.Item
	// Catalog maps item names to identifiers.
	Catalog = rt.Catalog
)

// Transaction model.
type (
	// Set is a complete transaction set over a shared catalog.
	Set = txn.Set
	// Template statically describes one periodic transaction.
	Template = txn.Template
	// Step is one segment of a transaction body.
	Step = txn.Step
	// Ceilings holds the static priority ceilings of a set.
	Ceilings = txn.Ceilings
)

// Simulation surface.
type (
	// Protocol is a pluggable concurrency-control policy.
	Protocol = cc.Protocol
	// Job is one released transaction instance with its runtime state.
	Job = cc.Job
	// Result is everything a simulation run produced.
	Result = sched.Result
	// Options configures a facade run.
	Options = sim.Options
	// Comparison pairs a protocol's run with its summary.
	Comparison = sim.Comparison
	// Summary condenses one run for cross-protocol tables.
	Summary = metrics.Summary
	// TxnStats aggregates one transaction's jobs in a run.
	TxnStats = metrics.TxnStats
	// Timeline is the paper-style ASCII Gantt chart.
	Timeline = trace.Timeline
	// History is the execution history with serializability checking.
	History = history.History
	// HistoryReport is the outcome of checking a history.
	HistoryReport = history.Report
)

// Analysis surface (paper Section 9).
type (
	// AnalysisKind selects a protocol's blocking analysis.
	AnalysisKind = analysis.Kind
	// AnalysisReport is a schedulability verdict for one set.
	AnalysisReport = analysis.Report
)

// Workload generation.
type (
	// WorkloadConfig parameterizes the synthetic generator.
	WorkloadConfig = workload.Config
)

// Live transaction manager (PCP-DA as a concurrency-control component for
// real goroutines; see internal/rtm for the execution-model notes).
type (
	// Manager is the live PCP-DA transaction manager.
	Manager = rtm.Manager
	// LiveTxn is a running transaction handle owned by one goroutine.
	LiveTxn = rtm.Txn
	// ManagerOptions configures fault injection for a live manager. A
	// caller's deadline is its context.
	ManagerOptions = rtm.Options
	// ManagerStats is the manager's lifetime counter snapshot, including
	// the failure-path counters (Cancellations, Retries, InjectedFaults).
	ManagerStats = rtm.Stats
	// Value is a data-item value in the store.
	Value = db.Value
)

// Live-manager sentinel errors. Every error exit that returns one of these
// is self-cleaning: by then the transaction's workspace is discarded, its
// locks released and its template slot freed (a later Abort() is a harmless
// no-op). A Read or Write of an undeclared item returns a plain error and
// leaves the transaction live: the caller must Abort() it.
var (
	// ErrAborted reports a sacrifice — cycle-breaking or injected fault
	// (workspace discarded; retry, or let Manager.Exec retry for you).
	ErrAborted = rtm.ErrAborted
	// ErrClosed reports use of a finished transaction handle.
	ErrClosed = rtm.ErrClosed
	// ErrCancelled reports a transaction torn down because its context was
	// cancelled or expired (the context is the caller's deadline); the
	// concrete context error is wrapped.
	ErrCancelled = rtm.ErrCancelled
)

// NewManager returns a live PCP-DA transaction manager over the registered
// transaction set.
func NewManager(set *Set) (*Manager, error) { return rtm.New(set) }

// NewManagerWithOptions returns a live manager configured by opts (fault
// injection).
func NewManagerWithOptions(set *Set, opts ManagerOptions) (*Manager, error) {
	return rtm.NewWithOptions(set, opts)
}

// Analysis kind constants.
const (
	AnalysisPCPDA = analysis.PCPDA
	AnalysisRWPCP = analysis.RWPCP
	AnalysisCCP   = analysis.CCP
	AnalysisOPCP  = analysis.OPCP
	AnalysisPIP   = analysis.PIP
)

// Dummy is the priority level below every real priority.
const Dummy = rt.Dummy

// NewSet returns an empty transaction set with a fresh catalog.
func NewSet(name string) *Set { return txn.NewSet(name) }

// Read returns a 1-tick read step on item.
func Read(item Item) Step { return txn.Read(item) }

// Write returns a 1-tick write step on item.
func Write(item Item) Step { return txn.Write(item) }

// Comp returns a compute step of d ticks.
func Comp(d Ticks) Step { return txn.Comp(d) }

// ComputeCeilings derives the static Wceil/Aceil maps for a set.
func ComputeCeilings(s *Set) *Ceilings { return txn.ComputeCeilings(s) }

// Protocols lists the available protocol names: pcpda, pcpda-lc2, rwpcp,
// ccp, pcp, pip, 2plhp, occ, naiveda.
func Protocols() []string { return sim.Protocols() }

// NewProtocol builds a fresh protocol instance by name.
func NewProtocol(name string) (Protocol, error) { return sim.NewProtocol(name) }

// Run simulates set under the named protocol.
func Run(set *Set, protocol string, opts Options) (*Result, error) {
	return sim.Run(set, protocol, opts)
}

// RunProtocol simulates set under an already-constructed protocol instance.
func RunProtocol(set *Set, p Protocol, opts Options) (*Result, error) {
	return sim.RunProtocol(set, p, opts)
}

// Compare runs set under each named protocol and summarizes the results.
func Compare(set *Set, protocols []string, opts Options) ([]Comparison, error) {
	return sim.Compare(set, protocols, opts)
}

// Summarize condenses a run (including the serializability check).
func Summarize(res *Result) Summary { return metrics.Summarize(res) }

// PerTxn aggregates a run per transaction template.
func PerTxn(res *Result) []TxnStats { return metrics.PerTxn(res) }

// SummaryTable renders summaries as an aligned text table.
func SummaryTable(sums []Summary) string { return metrics.Table(sums) }

// RMTest runs the paper's rate-monotonic schedulability condition.
func RMTest(set *Set, kind AnalysisKind) (*AnalysisReport, error) {
	return analysis.RMTest(set, kind)
}

// ResponseTimeTest runs exact response-time analysis with blocking terms.
func ResponseTimeTest(set *Set, kind AnalysisKind) (*AnalysisReport, error) {
	return analysis.ResponseTimeTest(set, kind)
}

// WorstCaseBlocking returns B_i for one transaction under a protocol.
func WorstCaseBlocking(set *Set, ceil *Ceilings, kind AnalysisKind, target *Template) Ticks {
	return analysis.WorstCaseBlocking(set, ceil, kind, target)
}

// BlockingSet returns BTS_i, the transactions that may block target.
func BlockingSet(set *Set, ceil *Ceilings, kind AnalysisKind, target *Template) []*Template {
	return analysis.BTS(set, ceil, kind, target)
}

// Generate builds a random periodic transaction set.
func Generate(cfg WorkloadConfig) (*Set, error) { return workload.Generate(cfg) }

// MarshalWorkload renders a set as workload-file JSON.
func MarshalWorkload(set *Set) ([]byte, error) { return workload.Marshal(set) }

// UnmarshalWorkload parses workload-file JSON into a validated set.
func UnmarshalWorkload(data []byte) (*Set, error) { return workload.Unmarshal(data) }

// DefaultHorizon derives a sensible simulation length for a set.
func DefaultHorizon(set *Set) Ticks { return sim.DefaultHorizon(set) }
