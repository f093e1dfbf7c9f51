// Package cctest provides a miniature in-memory cc.Env for unit-testing
// protocol Request logic in isolation: tests arrange a lock table and a set
// of live jobs by hand and assert on individual grant/deny decisions
// without running the full kernel.
package cctest

import (
	"cmp"
	"slices"

	"pcpda/internal/cc"
	"pcpda/internal/db"
	"pcpda/internal/lock"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Env is a hand-arranged protocol environment.
type Env struct {
	Table *lock.Table
	Jobs  map[rt.JobID]*cc.Job
}

var _ cc.Env = (*Env)(nil)

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{Table: lock.NewTable(), Jobs: make(map[rt.JobID]*cc.Job)}
}

// Locks returns the table.
func (e *Env) Locks() *lock.Table { return e.Table }

// Job resolves an id.
func (e *Env) Job(id rt.JobID) *cc.Job { return e.Jobs[id] }

// ActiveJobs returns the live jobs in id order.
func (e *Env) ActiveJobs() []*cc.Job {
	out := make([]*cc.Job, 0, len(e.Jobs))
	for _, j := range e.Jobs {
		out = append(out, j)
	}
	slices.SortFunc(out, func(a, b *cc.Job) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// AddJob registers a ready job for tmpl under the given id and returns it.
func (e *Env) AddJob(id rt.JobID, tmpl *txn.Template) *cc.Job {
	j := &cc.Job{
		ID:         id,
		Run:        db.RunID(id) + 1,
		Tmpl:       tmpl,
		Status:     cc.Ready,
		RunPri:     tmpl.Priority,
		DataRead:   rt.NewItemSet(),
		WS:         db.NewWorkspace(),
		FinishTick: -1,
		MissedAt:   -1,
	}
	e.Jobs[id] = j
	return j
}

// ReadLock arranges that job id holds a read lock on x and has read x.
func (e *Env) ReadLock(id rt.JobID, x rt.Item) {
	e.Table.Acquire(id, x, rt.Read)
	if j, ok := e.Jobs[id]; ok {
		j.DataRead.Add(x)
	}
}

// WriteLock arranges that job id holds a write lock on x.
func (e *Env) WriteLock(id rt.JobID, x rt.Item) {
	e.Table.Acquire(id, x, rt.Write)
}
