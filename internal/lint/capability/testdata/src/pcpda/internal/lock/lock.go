// Stub of pcpda/internal/lock for capability analyzer tests: one mutating
// and one read-only method is enough to exercise the mutation rule.
package lock

import "pcpda/internal/rt"

type Table struct{}

func (t *Table) Acquire(o rt.JobID, x rt.Item, m rt.Mode) {}

func (t *Table) ReleaseAll(o rt.JobID) []rt.Item { return nil }

func (t *Table) Readers(x rt.Item) []rt.JobID { return nil }

func (t *Table) EachReader(x rt.Item, fn func(o rt.JobID) bool) {}
