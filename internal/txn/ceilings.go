package txn

import "pcpda/internal/rt"

// Ceilings holds the statically computed priority ceilings of every data
// item for a transaction set. Both PCP-DA and the baselines derive their
// runtime rules from these two tables:
//
//   - Wceil(x) (= the paper's HPW(x)): the priority of the highest-priority
//     transaction that may WRITE x. PCP-DA's only ceiling.
//   - Aceil(x): the priority of the highest-priority transaction that may
//     read OR write x. RW-PCP raises RWceil(x) to Aceil(x) when x is
//     write-locked; the original PCP uses Aceil as its single ceiling.
//
// Items nobody writes (or accesses) have the dummy ceiling. Both tables are
// slices indexed by item id, one past the highest item any template accesses:
// every lock request of every protocol reads one, in both engines.
type Ceilings struct {
	wceil []rt.Priority
	aceil []rt.Priority
}

// ComputeCeilings derives the static ceilings from the declared read/write
// sets of every template in the set.
func ComputeCeilings(s *Set) *Ceilings {
	n := 0
	for _, t := range s.Templates {
		for _, st := range t.Steps {
			if st.Kind != Compute {
				n = max(n, st.Item.Index()+1)
			}
		}
	}
	c := &Ceilings{wceil: make([]rt.Priority, n), aceil: make([]rt.Priority, n)}
	for _, t := range s.Templates {
		for _, it := range t.WriteSet().Items() {
			c.wceil[it] = c.wceil[it].Max(t.Priority)
			c.aceil[it] = c.aceil[it].Max(t.Priority)
		}
		for _, it := range t.ReadSet().Items() {
			c.aceil[it] = c.aceil[it].Max(t.Priority)
		}
	}
	return c
}

// ceilOf is the total lookup behind both accessors: an id outside the table
// (negative, rt.NoItem, or an item no template accesses) has the dummy
// ceiling.
func ceilOf(tab []rt.Priority, x rt.Item) rt.Priority {
	if x < 0 || int(x) >= len(tab) {
		return rt.Dummy
	}
	return tab[x]
}

// Wceil returns the write priority ceiling of x (the paper's Wceil(x) /
// HPW(x)); dummy when no transaction writes x.
func (c *Ceilings) Wceil(x rt.Item) rt.Priority { return ceilOf(c.wceil, x) }

// Aceil returns the absolute priority ceiling of x; dummy when no
// transaction accesses x.
func (c *Ceilings) Aceil(x rt.Item) rt.Priority { return ceilOf(c.aceil, x) }

// WceilTable returns Wceil as a slice indexed by item id, for
// lock.Table.Ceiling. It is the live table: callers must not write to it.
func (c *Ceilings) WceilTable() []rt.Priority { return c.wceil }

// AceilTable is WceilTable for Aceil.
func (c *Ceilings) AceilTable() []rt.Priority { return c.aceil }
