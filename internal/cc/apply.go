package cc

import (
	"slices"

	"pcpda/internal/rt"
)

// Tally counts decisions by Decision.Rule: every grant, and every denial that
// blocked a job not already blocked. A rule that only ever denied a job
// already blocked (a retry) still has its line, with no Blocks, so the tally
// shows every rule that fired. A protocol names a handful of rules, so a scan
// finds the line with no map assignment per decision, and a warm tally
// allocates nothing.
type Tally []RuleCount

// RuleCount is one rule's line in a Tally.
type RuleCount struct {
	Rule   string
	Grants int
	Blocks int
}

// Of returns rule's line, zero counts when the rule was never seen.
func (t Tally) Of(rule string) RuleCount {
	for _, r := range t {
		if r.Rule == rule {
			return r
		}
	}
	return RuleCount{Rule: rule}
}

// line returns rule's line, opening one the first time the rule is seen.
func (t *Tally) line(rule string) *RuleCount {
	for i := range *t {
		if (*t)[i].Rule == rule {
			return &(*t)[i]
		}
	}
	*t = append(*t, RuleCount{Rule: rule})
	return &(*t)[len(*t)-1]
}

// Apply is the lock-state side of one request's outcome: j asked for x in
// mode m and the protocol answered dec. A grant makes j Ready, takes the lock
// and, for a read, records x in DataRead; a denial is Wait on dec's blockers.
// The rule's line is opened on every decision; a denial adds to Blocks only
// when it is fresh (j was not Blocked). It
// reports whether the Blocked set changed — j left it, joined it or now waits
// on a different set — which is when a caller runs Inherit and, after a
// denial, WaitCycle. Data movement (store, workspace, history) is the
// caller's.
func Apply(env Env, j *Job, x rt.Item, m rt.Mode, dec Decision, tally *Tally) (changed bool) {
	wasBlocked := j.Status == Blocked
	if !dec.Granted {
		if l := tally.line(dec.Rule); !wasBlocked {
			l.Blocks++
		}
		return Wait(j, x, m, dec.Blockers)
	}
	tally.line(dec.Rule).Grants++
	j.Status = Ready
	j.BlockedOn = rt.NoItem
	j.Blockers = j.Blockers[:0]
	env.Locks().Acquire(j.ID, x, m)
	if m == rt.Read {
		j.DataRead.Add(x)
	}
	return wasBlocked
}

// Wait marks j Blocked on x in mode m (rt.NoItem for a wait that is not a
// lock request) behind blockers. j.Blockers becomes a copy of them, sorted and
// without repeats, kept in j's own backing array, so the caller may reuse its
// slice and a protocol may name the same set in any order; each blocker not
// seen before joins EverBlockedBy. It reports whether the Blocked set changed:
// j was not Blocked, or now waits on a different set.
func Wait(j *Job, x rt.Item, m rt.Mode, blockers []rt.JobID) (changed bool) {
	changed = j.Status != Blocked || !sameSet(j.Blockers, blockers)
	j.Status = Blocked
	j.BlockedOn = x
	j.BlockedMode = m
	if !changed {
		return false
	}
	set := append(j.Blockers[:0], blockers...)
	for i := 1; i < len(set); i++ { // insertion sort: lists are tiny
		for p := i; p > 0 && set[p] < set[p-1]; p-- {
			set[p], set[p-1] = set[p-1], set[p]
		}
	}
	j.Blockers = slices.Compact(set)
	for _, b := range j.Blockers {
		if !slices.Contains(j.EverBlockedBy, b) {
			j.EverBlockedBy = append(j.EverBlockedBy, b)
		}
	}
	return true
}

// sameSet reports whether a and b hold the same job ids, repeats aside.
func sameSet(a, b []rt.JobID) bool {
	for _, id := range b {
		if !slices.Contains(a, id) {
			return false
		}
	}
	for _, id := range a {
		if !slices.Contains(b, id) {
			return false
		}
	}
	return true
}

// Retire is the lock-state side of j leaving: every lock released, DataRead
// emptied, the blocking state cleared and the status set to st (Done or
// Aborted; a kernel restart then re-arms the job as Ready). It reports
// whether j was Blocked, the one case in which its leaving moves anyone's
// priority and the caller runs Inherit. The caller takes j off its active
// list and moves the data.
func Retire(env Env, j *Job, st Status) (wasBlocked bool) {
	wasBlocked = j.Status == Blocked
	env.Locks().ReleaseAll(j.ID)
	j.DataRead.Clear()
	j.BlockedOn = rt.NoItem
	j.Blockers = j.Blockers[:0]
	j.Status = st
	return wasBlocked
}
