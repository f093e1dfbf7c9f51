// Incremental ceiling index for the simulation kernel.
//
// The protocols' admission rules keep asking one family of questions: "what
// is the highest ceiling over the locks held by everyone else, and who holds
// it?" — Sysceil_i/T* under PCP-DA and naive-DA (read locks raise Wceil),
// the exclusive-PCP ceiling under OPCP (every lock raises Aceil), and the
// r/w ceiling under RW-PCP and CCP (read locks raise Wceil, write locks
// Aceil). The scan answers walk the entire lock table per request; this
// index maintains, in O(1) per lock event, a count of live locks at each
// ceiling rank so every query is O(priority ranks) and allocation-free.
//
// Three primitive per-rank profiles cover all of the above:
//
//	readW:  read locks counted at Wceil(x)'s rank  (PCP-DA, naive-DA)
//	readA:  read locks counted at Aceil(x)'s rank  (OPCP, with writeA)
//	writeA: write locks counted at Aceil(x)'s rank (OPCP, RW-PCP/CCP)
//
// cc.CeilingIndex serves from readW, cc.AccessCeilingIndex from
// readA+writeA, cc.RWCeilingIndex from readW+writeA. The per-lock
// decomposition is equivalent to the protocols' per-item scans on every
// state the kernel can reach (see DESIGN.md §9 for the argument; the golden
// trace tests in internal/sim check bit-identical schedules empirically).
//
// Ranks are dense (rt.PriorityDomain over the template priorities), so each
// profile is a flat count array with a top-rank pointer, exactly like the
// live manager's index in internal/rtm. Per-job count vectors are pooled:
// jobs churn constantly in long runs but only a bounded number hold locks
// at once.
package sched

import (
	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// profile is one per-rank lock count with a "highest non-empty rank" hint.
type profile struct {
	counts []int32
	top    int // highest rank with counts > 0; -1 when empty
}

func (p *profile) add(r int) {
	p.counts[r]++
	if r > p.top {
		p.top = r
	}
}

func (p *profile) sub(r int) {
	p.counts[r]--
	for p.top >= 0 && p.counts[p.top] == 0 {
		p.top--
	}
}

// jobCounts mirrors one job's contribution to each profile so a commit or
// abort can retract everything the job added without consulting the lock
// table. Vectors are pooled through ceilIndex.free.
type jobCounts struct {
	readW  []int32
	readA  []int32
	writeA []int32
}

// ceilIndex is the kernel-side incremental ceiling state.
type ceilIndex struct {
	dom       *rt.PriorityDomain
	wceilRank []int16 // per item; -1 = dummy (nobody writes x)
	aceilRank []int16 // per item; -1 = dummy (nobody accesses x)

	readW  profile
	readA  profile
	writeA profile

	perJob []*jobCounts // indexed by job id; nil = no live contribution
	free   []*jobCounts
}

// newCeilIndex builds the index for set; jobs is the release count the run
// expects, which pre-sizes the per-job table.
func newCeilIndex(set *txn.Set, ceil *txn.Ceilings, jobs int) *ceilIndex {
	pris := make([]rt.Priority, 0, len(set.Templates))
	maxItem := rt.Item(-1)
	for _, tmpl := range set.Templates {
		pris = append(pris, tmpl.Priority)
		for _, x := range tmpl.AccessSet().Items() {
			if x > maxItem {
				maxItem = x
			}
		}
	}
	ix := &ceilIndex{
		dom:       rt.NewPriorityDomain(pris),
		wceilRank: make([]int16, maxItem+1),
		aceilRank: make([]int16, maxItem+1),
		perJob:    make([]*jobCounts, 0, jobs),
	}
	for x := range ix.wceilRank {
		ix.wceilRank[x] = rankOf(ix.dom, ceil.Wceil(rt.Item(x)))
		ix.aceilRank[x] = rankOf(ix.dom, ceil.Aceil(rt.Item(x)))
	}
	n := ix.dom.Size()
	ix.readW = profile{counts: make([]int32, n), top: -1}
	ix.readA = profile{counts: make([]int32, n), top: -1}
	ix.writeA = profile{counts: make([]int32, n), top: -1}
	return ix
}

func rankOf(dom *rt.PriorityDomain, p rt.Priority) int16 {
	r, ok := dom.Rank(p)
	if !ok {
		return -1
	}
	return int16(r)
}

func (ix *ceilIndex) countsFor(id rt.JobID) *jobCounts {
	for int(id) >= len(ix.perJob) {
		ix.perJob = append(ix.perJob, nil)
	}
	jc := ix.perJob[id]
	if jc == nil {
		if k := len(ix.free); k > 0 {
			jc = ix.free[k-1]
			ix.free = ix.free[:k-1]
		} else {
			n := len(ix.readW.counts)
			jc = &jobCounts{
				readW:  make([]int32, n),
				readA:  make([]int32, n),
				writeA: make([]int32, n),
			}
		}
		ix.perJob[id] = jc
	}
	return jc
}

// onAcquire records a FRESH lock acquisition (lock.Table.Acquire returned
// true); re-grants of an already held mode must not reach here.
func (ix *ceilIndex) onAcquire(id rt.JobID, x rt.Item, m rt.Mode) {
	jc := ix.countsFor(id)
	if m == rt.Read {
		if r := int(ix.wceilRank[x]); r >= 0 {
			ix.readW.add(r)
			jc.readW[r]++
		}
		if r := int(ix.aceilRank[x]); r >= 0 {
			ix.readA.add(r)
			jc.readA[r]++
		}
		return
	}
	if r := int(ix.aceilRank[x]); r >= 0 {
		ix.writeA.add(r)
		jc.writeA[r]++
	}
}

// onRelease retracts the modes of x that id actually held before a
// lock.Table.ReleaseItem (early release). hadRead/hadWrite come from the
// table, queried before the release.
func (ix *ceilIndex) onRelease(id rt.JobID, x rt.Item, hadRead, hadWrite bool) {
	if !hadRead && !hadWrite {
		return
	}
	jc := ix.countsFor(id)
	if hadRead {
		if r := int(ix.wceilRank[x]); r >= 0 {
			ix.readW.sub(r)
			jc.readW[r]--
		}
		if r := int(ix.aceilRank[x]); r >= 0 {
			ix.readA.sub(r)
			jc.readA[r]--
		}
	}
	if hadWrite {
		if r := int(ix.aceilRank[x]); r >= 0 {
			ix.writeA.sub(r)
			jc.writeA[r]--
		}
	}
}

// onReleaseAll retracts every contribution of id (commit, abort or restart —
// strict 2PL drops all locks together) and recycles the count vectors.
func (ix *ceilIndex) onReleaseAll(id rt.JobID) {
	if int(id) >= len(ix.perJob) || ix.perJob[id] == nil {
		return
	}
	jc := ix.perJob[id]
	ix.perJob[id] = nil
	retract(&ix.readW, jc.readW)
	retract(&ix.readA, jc.readA)
	retract(&ix.writeA, jc.writeA)
	ix.free = append(ix.free, jc)
}

func retract(p *profile, own []int32) {
	for r, c := range own {
		if c != 0 {
			p.counts[r] -= c
			own[r] = 0
		}
	}
	for p.top >= 0 && p.counts[p.top] == 0 {
		p.top--
	}
}

// ownCounts returns id's vectors, or nil when id has no live contribution
// (rt.NoJob and dead jobs included).
//
//pcpda:alloc-free
func (ix *ceilIndex) ownCounts(id rt.JobID) *jobCounts {
	if id < 0 || int(id) >= len(ix.perJob) {
		return nil
	}
	return ix.perJob[id]
}

// --- capability env ----------------------------------------------------------

// indexEnv is the cc.Env the kernel hands to protocols when the ceiling
// index is enabled: the kernel itself plus the three ceiling-index
// capabilities, discovered by the protocols via type assertion. Keeping the
// capabilities off Kernel itself means a Config.DisableCeilingIndex run
// presents a plain Env and the protocols fall back to their lock-table
// scans — the two paths the golden trace tests hold bit-identical.
type indexEnv struct {
	*Kernel
	ix *ceilIndex
}

var _ cc.Env = (*indexEnv)(nil)
var _ cc.CeilingIndex = (*indexEnv)(nil)
var _ cc.AccessCeilingIndex = (*indexEnv)(nil)
var _ cc.RWCeilingIndex = (*indexEnv)(nil)

// SysceilExcluding implements cc.CeilingIndex from the readW profile.
//
//pcpda:alloc-free
func (e *indexEnv) SysceilExcluding(o rt.JobID) rt.Priority {
	ix := e.ix
	var own []int32
	if jc := ix.ownCounts(o); jc != nil {
		own = jc.readW
	}
	for r := ix.readW.top; r >= 0; r-- {
		n := ix.readW.counts[r]
		if own != nil {
			n -= own[r]
		}
		if n > 0 {
			return ix.dom.Priority(r)
		}
	}
	return rt.Dummy
}

// EachCeilingHolder implements cc.CeilingIndex: live jobs other than o with
// a read lock at Wceil rank c, ascending job id (k.active is id-ordered).
//
//pcpda:alloc-free
func (e *indexEnv) EachCeilingHolder(c rt.Priority, o rt.JobID, fn func(holder rt.JobID)) {
	ix := e.ix
	r, ok := ix.dom.Rank(c)
	if !ok {
		return
	}
	for _, j := range e.active {
		if j.ID == o {
			continue
		}
		if jc := ix.ownCounts(j.ID); jc != nil && jc.readW[r] > 0 {
			fn(j.ID)
		}
	}
}

// SysAceilExcluding implements cc.AccessCeilingIndex from readA+writeA.
//
//pcpda:alloc-free
func (e *indexEnv) SysAceilExcluding(o rt.JobID) rt.Priority {
	ix := e.ix
	jc := ix.ownCounts(o)
	top := ix.readA.top
	if ix.writeA.top > top {
		top = ix.writeA.top
	}
	for r := top; r >= 0; r-- {
		n := ix.readA.counts[r] + ix.writeA.counts[r]
		if jc != nil {
			n -= jc.readA[r] + jc.writeA[r]
		}
		if n > 0 {
			return ix.dom.Priority(r)
		}
	}
	return rt.Dummy
}

// EachAceilHolder implements cc.AccessCeilingIndex.
//
//pcpda:alloc-free
func (e *indexEnv) EachAceilHolder(c rt.Priority, o rt.JobID, fn func(holder rt.JobID)) {
	ix := e.ix
	r, ok := ix.dom.Rank(c)
	if !ok {
		return
	}
	for _, j := range e.active {
		if j.ID == o {
			continue
		}
		if jc := ix.ownCounts(j.ID); jc != nil && jc.readA[r]+jc.writeA[r] > 0 {
			fn(j.ID)
		}
	}
}

// SysRWceilExcluding implements cc.RWCeilingIndex from readW+writeA.
//
//pcpda:alloc-free
func (e *indexEnv) SysRWceilExcluding(o rt.JobID) rt.Priority {
	ix := e.ix
	jc := ix.ownCounts(o)
	top := ix.readW.top
	if ix.writeA.top > top {
		top = ix.writeA.top
	}
	for r := top; r >= 0; r-- {
		n := ix.readW.counts[r] + ix.writeA.counts[r]
		if jc != nil {
			n -= jc.readW[r] + jc.writeA[r]
		}
		if n > 0 {
			return ix.dom.Priority(r)
		}
	}
	return rt.Dummy
}

// EachRWceilHolder implements cc.RWCeilingIndex.
//
//pcpda:alloc-free
func (e *indexEnv) EachRWceilHolder(c rt.Priority, o rt.JobID, fn func(holder rt.JobID)) {
	ix := e.ix
	r, ok := ix.dom.Rank(c)
	if !ok {
		return
	}
	for _, j := range e.active {
		if j.ID == o {
			continue
		}
		if jc := ix.ownCounts(j.ID); jc != nil && jc.readW[r]+jc.writeA[r] > 0 {
			fn(j.ID)
		}
	}
}
