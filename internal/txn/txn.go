// Package txn models the paper's transaction workload: periodic transactions
// whose bodies are straight-line sequences of read/write/compute steps with
// statically declared read and write sets.
//
// Priority ceiling protocols require a-priori knowledge of which transactions
// may access which data items (that is how Wceil/Aceil are computed), so the
// model is deliberately static: a Template fully describes every instance
// ("job") the transaction will ever release.
package txn

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"pcpda/internal/rt"
)

// ID identifies a transaction template within a Set. IDs are dense indexes
// starting at 0; the paper's T1..Tn numbering maps to IDs 0..n-1. Four bytes:
// every history.Op carries one, and with 64-bit run ids beside it that is
// what keeps an Op at 40 bytes.
type ID int32

// NoTxn is the sentinel for "no transaction".
const NoTxn ID = -1

// StepKind distinguishes the three kinds of execution steps.
type StepKind uint8

const (
	// Compute burns CPU without touching data.
	Compute StepKind = iota
	// ReadStep acquires a read lock on Step.Item at the start of the step
	// and reads the item.
	ReadStep
	// WriteStep acquires a write lock on Step.Item at the start of the step
	// and writes the item (into the workspace under deferred-update
	// protocols, in place otherwise).
	WriteStep
)

// String returns a compact mnemonic.
func (k StepKind) String() string {
	switch k {
	case Compute:
		return "C"
	case ReadStep:
		return "R"
	case WriteStep:
		return "W"
	}
	return "?"
}

// Step is one segment of a transaction body. Lock steps request their lock
// when the segment starts; the segment then executes for Dur ticks (the
// first tick models the access itself, as in the paper's unit-time examples).
type Step struct {
	Kind StepKind
	Item rt.Item  // meaningful for ReadStep/WriteStep
	Dur  rt.Ticks // CPU demand of the segment; must be >= 1
}

// Read returns a 1-tick read step on item.
func Read(item rt.Item) Step { return Step{Kind: ReadStep, Item: item, Dur: 1} }

// Write returns a 1-tick write step on item.
func Write(item rt.Item) Step { return Step{Kind: WriteStep, Item: item, Dur: 1} }

// Comp returns a compute step of d ticks.
func Comp(d rt.Ticks) Step { return Step{Kind: Compute, Item: rt.NoItem, Dur: d} }

// Template statically describes a periodic transaction.
type Template struct {
	ID       ID
	Name     string
	Priority rt.Priority // original (base) priority; higher = more urgent
	Period   rt.Ticks    // release period Pd_i; 0 means one-shot (single job)
	Offset   rt.Ticks    // release time of the first job
	Deadline rt.Ticks    // relative deadline; 0 defaults to Period (paper: deadline = end of period)
	// Sporadic marks the transaction as sporadic: Period is the MINIMUM
	// inter-arrival time, and the kernel (when given arrival jitter) draws
	// inter-arrivals in [Period, Period·(1+J)]. The worst-case analysis is
	// unchanged — sporadic arrivals at minimum separation are exactly the
	// periodic worst case.
	Sporadic bool
	Steps    []Step

	readSet  *rt.ItemSet
	writeSet *rt.ItemSet
	exec     rt.Ticks
}

// finalize (re)derives the cached read/write sets and total execution time.
func (t *Template) finalize() {
	t.readSet = rt.NewItemSet()
	t.writeSet = rt.NewItemSet()
	t.exec = 0
	for _, s := range t.Steps {
		t.exec += s.Dur
		switch s.Kind {
		case ReadStep:
			t.readSet.Add(s.Item)
		case WriteStep:
			t.writeSet.Add(s.Item)
		}
	}
}

// Exec returns C_i, the total CPU demand of one job.
func (t *Template) Exec() rt.Ticks {
	if t.readSet == nil {
		t.finalize()
	}
	return t.exec
}

// ReadSet returns the set of items the transaction may read. The returned
// set is shared; callers must not mutate it.
func (t *Template) ReadSet() *rt.ItemSet {
	if t.readSet == nil {
		t.finalize()
	}
	return t.readSet
}

// WriteSet returns the paper's WriteSet(T_i): the set of items the
// transaction may write. The returned set is shared; callers must not
// mutate it.
func (t *Template) WriteSet() *rt.ItemSet {
	if t.writeSet == nil {
		t.finalize()
	}
	return t.writeSet
}

// AccessSet returns the union of the read and write sets.
func (t *Template) AccessSet() *rt.ItemSet {
	s := t.ReadSet().Clone()
	for _, it := range t.WriteSet().Items() {
		s.Add(it)
	}
	return s
}

// RelativeDeadline returns the effective relative deadline: Deadline when
// set, otherwise Period (the paper's "deadline of a transaction is at the
// end of its period"). One-shot transactions without an explicit deadline
// have no deadline (returned as 0).
func (t *Template) RelativeDeadline() rt.Ticks {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return t.Period
}

// OneShot reports whether the transaction releases exactly one job.
func (t *Template) OneShot() bool { return t.Period == 0 }

// Validate checks structural well-formedness of the template.
func (t *Template) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("txn %d: empty name", t.ID)
	}
	if t.Period < 0 || t.Offset < 0 || t.Deadline < 0 {
		return fmt.Errorf("txn %s: negative period/offset/deadline", t.Name)
	}
	if len(t.Steps) == 0 {
		return fmt.Errorf("txn %s: no steps", t.Name)
	}
	if t.Sporadic && t.Period <= 0 {
		return fmt.Errorf("txn %s: sporadic transactions need a minimum inter-arrival (Period)", t.Name)
	}
	for i, s := range t.Steps {
		if s.Dur < 1 {
			return fmt.Errorf("txn %s step %d: duration %d < 1", t.Name, i, s.Dur)
		}
		switch s.Kind {
		case Compute:
			if s.Item != rt.NoItem {
				return fmt.Errorf("txn %s step %d: compute step names an item", t.Name, i)
			}
		case ReadStep, WriteStep:
			if s.Item < 0 {
				return fmt.Errorf("txn %s step %d: lock step without item", t.Name, i)
			}
		default:
			return fmt.Errorf("txn %s step %d: unknown kind %d", t.Name, i, s.Kind)
		}
	}
	if !t.OneShot() && t.Exec() > t.Period {
		return fmt.Errorf("txn %s: execution time %d exceeds period %d", t.Name, t.Exec(), t.Period)
	}
	if d := t.RelativeDeadline(); d > 0 && t.Exec() > d {
		return fmt.Errorf("txn %s: execution time %d exceeds deadline %d", t.Name, t.Exec(), d)
	}
	return nil
}

// Signature renders the access pattern the way the paper lists it, e.g.
// "Read(x), Write(y)".
func (t *Template) Signature(cat *rt.Catalog) string {
	var b strings.Builder
	first := true
	for _, s := range t.Steps {
		if s.Kind == Compute {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		if s.Kind == ReadStep {
			b.WriteString("Read(")
		} else {
			b.WriteString("Write(")
		}
		b.WriteString(cat.Name(s.Item))
		b.WriteString(")")
	}
	if first {
		return "(no data access)"
	}
	return b.String()
}

// Set is a complete transaction set over a shared item catalog.
type Set struct {
	Name      string
	Templates []*Template
	Catalog   *rt.Catalog
}

// NewSet returns an empty set with a fresh catalog.
func NewSet(name string) *Set {
	return &Set{Name: name, Catalog: rt.NewCatalog()}
}

// Add appends a template, assigning its ID. The template's Priority may be
// zero at this point if AssignRateMonotonic will be called later.
func (s *Set) Add(t *Template) *Template {
	t.ID = ID(len(s.Templates))
	s.Templates = append(s.Templates, t)
	return t
}

// ByName returns the template with the given name, or nil.
func (s *Set) ByName(name string) *Template {
	for _, t := range s.Templates {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Validate checks every template plus set-level invariants: non-empty,
// unique names, and a total order of priorities (the paper assumes
// "priorities of transactions are of a total order").
func (s *Set) Validate() error {
	if len(s.Templates) == 0 {
		return errors.New("transaction set is empty")
	}
	names := make(map[string]bool, len(s.Templates))
	prios := make(map[rt.Priority]string, len(s.Templates))
	for i, t := range s.Templates {
		if t.ID != ID(i) {
			return fmt.Errorf("txn %s: ID %d out of order (want %d)", t.Name, t.ID, i)
		}
		if err := t.Validate(); err != nil {
			return err
		}
		for si, st := range t.Steps {
			if st.Kind != Compute && (s.Catalog == nil || int(st.Item) >= s.Catalog.Len()) {
				return fmt.Errorf("txn %s step %d: item %d is not in the catalog", t.Name, si, st.Item)
			}
		}
		if names[t.Name] {
			return fmt.Errorf("duplicate transaction name %q", t.Name)
		}
		names[t.Name] = true
		if t.Priority.IsDummy() {
			return fmt.Errorf("txn %s: priority not assigned (call AssignRateMonotonic or set explicitly)", t.Name)
		}
		if prev, dup := prios[t.Priority]; dup {
			return fmt.Errorf("txns %s and %s share priority %d; the paper requires a total order", prev, t.Name, t.Priority)
		}
		prios[t.Priority] = t.Name
	}
	return nil
}

// AssignRateMonotonic assigns original priorities by the rate-monotonic
// rule: the shorter the period, the higher the priority, with ties broken by
// position in the set (earlier wins). One-shot transactions (Period == 0)
// are ranked by their explicit Deadline instead; a one-shot transaction with
// neither is ranked last. Priorities are assigned as n, n-1, ..., 1 so that
// the paper's "T1 has the highest priority" reads naturally.
func (s *Set) AssignRateMonotonic() {
	n := len(s.Templates)
	order := make([]*Template, n)
	copy(order, s.Templates)
	// Insertion sort: stable, no imports, sets here are small.
	key := func(t *Template) rt.Ticks {
		if t.Period > 0 {
			return t.Period
		}
		if t.Deadline > 0 {
			return t.Deadline
		}
		return 1 << 40 // effectively last
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && key(order[j]) < key(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for rank, t := range order {
		t.Priority = rt.Priority(n - rank)
	}
}

// AssignByIndex assigns priorities in declaration order: the first template
// gets the highest priority. This matches the paper's examples, which state
// "T1, ..., Tn in descending order of priority".
func (s *Set) AssignByIndex() {
	n := len(s.Templates)
	for i, t := range s.Templates {
		t.Priority = rt.Priority(n - i)
	}
}

// ByPriorityDesc returns the templates in descending priority order (the
// paper's T1..Tn order). The receiver is unmodified.
func (s *Set) ByPriorityDesc() []*Template {
	out := make([]*Template, len(s.Templates))
	copy(out, s.Templates)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Priority > out[j-1].Priority; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Utilization returns ΣC_i/Pd_i over the periodic templates.
func (s *Set) Utilization() float64 {
	var u float64
	for _, t := range s.Templates {
		if t.Period > 0 {
			u += float64(t.Exec()) / float64(t.Period)
		}
	}
	return u
}

// Hyperperiod returns the least common multiple of the periodic templates'
// periods, or 0 when the set has no periodic member. Offsets are not
// included; simulate for Hyperperiod + max offset to cover a full pattern.
// Random periods have astronomically large common multiples: a hyperperiod
// beyond the tick range is returned as math.MaxInt64, never wrapped.
func (s *Set) Hyperperiod() rt.Ticks {
	var l rt.Ticks
	for _, t := range s.Templates {
		if t.Period == 0 {
			continue
		}
		if l == 0 {
			l = t.Period
			continue
		}
		l = lcm(l, t.Period)
	}
	return l
}

func gcd(a, b rt.Ticks) rt.Ticks {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm saturates at math.MaxInt64 instead of wrapping.
func lcm(a, b rt.Ticks) rt.Ticks {
	q := a / gcd(a, b)
	if q > math.MaxInt64/b {
		return math.MaxInt64
	}
	return q * b
}
