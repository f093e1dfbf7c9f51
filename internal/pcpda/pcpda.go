// Package pcpda implements the paper's contribution: the Priority Ceiling
// Protocol with Dynamic Adjustment of serialization order (PCP-DA).
//
// PCP-DA schedules hard real-time transactions under the update-in-workspace
// model. Writes buffer in the writing transaction's private workspace and
// install at commit, so two write operations never conflict (their order is
// resolved by commit order), and a higher-priority transaction may read an
// item that a lower-priority transaction has write-locked — it simply
// serializes, and must commit, before the writer. Read operations remain
// non-preemptable: they are the only operations that raise ceilings.
//
// Each data item x carries one static ceiling, Wceil(x) (the paper's
// HPW(x)): the priority of the highest-priority transaction that may write
// x. Wceil(x) takes effect only while x is read-locked. Sysceil_i is the
// highest Wceil(x) over items read-locked by transactions other than T_i,
// and T* is the transaction holding the read lock that realizes Sysceil_i.
//
// A request by T_i for a lock on x is granted iff one of the paper's
// locking conditions holds:
//
//	LC1 (write): no other transaction holds a read lock on x.
//	LC2 (read):  P_i > Sysceil_i, or P_i = Sysceil_i where P_i is inherited
//	             and every T* holder waits on T_i (see below).
//	LC3 (read):  P_i > Wceil(x) and x ∉ WriteSet(T*).
//	LC4 (read):  P_i = Wceil(x), no other transaction read-locks x,
//	             and x ∉ WriteSet(T*).
//
// The equality clause of LC2 is a documented deviation: the paper's own
// rules, as transcribed, deadlock where LC4 granted T_i's read of x and T_i
// then waits on T*, whose inherited priority equals the ceiling that read
// lock raised (papercases.LC4Deadlock). PAPER.md holds only the abstract,
// so no clause the transcription may have dropped can be confirmed; the
// rule was chosen over two others by the explorer (sim.TestExplore; see
// DESIGN.md §3). With it, T* is the T* of Lemma 8: the only jobs holding
// the ceiling it faces wait on it, and a denial would close a wait cycle.
//
// Priority comparisons follow the paper's Section 7 convention ("the
// priority of a transaction ... always refers to ... its running
// priority"): LC2's ceiling test uses the RUNNING (possibly inherited)
// priority — without that, T* could be ceiling-blocked by a read lock its
// own blocked benefactor's grantee raised, deadlocking exactly where Lemma
// 8 promises progress. LC3 and LC4 compare against HPW(x), which is defined
// over assigned priorities and identifies writer identity, so they use the
// ORIGINAL priority (Lemma 4's "P_i > HPW(x) implies T_i will not
// write-lock x" is only sound for assigned priorities).
//
// In addition, a read request on an item currently write-locked by some T_L
// must satisfy Table 1's side condition DataRead(T_L) ∩ WriteSet(T_i) = ∅,
// which guarantees T_i is never blocked by T_L later and therefore commits
// first (no-restart guarantee, Lemma 9). The paper proves the condition is
// implied whenever LC2 or LC3 grants; this implementation still evaluates it
// on every path, and a denial where LC2 or LC3 would have granted names its
// path ("table1-on-LC2", "table1-on-LC3") — sim.Verify holds every run to a
// decision tally with no line for one, retries included, mechanically
// validating the paper's claim. On the LC4 path the denial is "wr-conflict".
//
// A ceiling denial names T*, and with LC3 on also the other readers of x;
// under the LC2Only ablation it names T* alone.
package pcpda

import (
	"slices"

	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Options tune the protocol for ablation experiments.
type Options struct {
	// LC2Only disables the LC3 and LC4 grant paths, leaving the ceiling
	// test alone (used by the ablation experiment X5 to measure how much
	// preemptability the extra conditions buy).
	LC2Only bool
}

// Protocol is the PCP-DA policy. Create with New; one instance drives one
// simulation run.
type Protocol struct {
	opts Options
	ceil *txn.Ceilings

	// Scratch buffers reused across Request calls (a Protocol instance is
	// driven under one kernel lock, never concurrently). A denial's Blockers
	// point into them, valid until the next Request (cc.Decision).
	tstarBuf []rt.JobID
	offBuf   []rt.JobID
	walkBuf  []rt.JobID
}

var _ cc.Protocol = (*Protocol)(nil)
var _ cc.CeilingReporter = (*Protocol)(nil)

// New returns a PCP-DA instance with default options.
func New() *Protocol { return NewWithOptions(Options{}) }

// NewWithOptions returns a PCP-DA instance with the given options.
func NewWithOptions(o Options) *Protocol {
	return &Protocol{opts: o}
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string {
	if p.opts.LC2Only {
		return "PCP-DA/LC2"
	}
	return "PCP-DA"
}

// Deferred is true: PCP-DA uses the update-in-workspace model.
func (p *Protocol) Deferred() bool { return true }

// Init captures the ceilings.
func (p *Protocol) Init(_ *txn.Set, ceil *txn.Ceilings) { p.ceil = ceil }

// sysinfo is the runtime ceiling state relevant to one requester.
type sysinfo struct {
	sysceil rt.Priority // Sysceil_i
	tstar   []rt.JobID  // holder(s) of the read lock(s) realizing Sysceil_i
}

// sysceilFor computes Sysceil_i and T* with respect to requester j: the
// highest Wceil over items read-locked by other jobs, and who holds them —
// lock.Table.Ceiling's walk over the locks held, under the kernel and the
// live manager alike. info.tstar aliases p.tstarBuf and is valid only until
// the next Request.
func (p *Protocol) sysceilFor(env cc.Env, j *cc.Job) sysinfo {
	c, tstar := env.Locks().Ceiling(j.ID, p.ceil.WceilTable(), nil, p.tstarBuf)
	p.tstarBuf = tstar
	return sysinfo{sysceil: c, tstar: tstar}
}

// appendReaders appends the jobs other than o holding read locks on x to dst.
func appendReaders(dst []rt.JobID, env cc.Env, x rt.Item, o rt.JobID) []rt.JobID {
	env.Locks().EachReader(x, func(id rt.JobID) bool {
		if id != o {
			dst = append(dst, id)
		}
		return true
	})
	return dst
}

// tstarWrites reports whether x is in the declared write set of any T*
// holder (the "x ∉ WriteSet(T*)" clause of LC3/LC4, applied to every holder
// when the read lock realizing Sysceil_i is shared).
func tstarWrites(env cc.Env, tstar []rt.JobID, x rt.Item) bool {
	for _, id := range tstar {
		if h := env.Job(id); h != nil && h.Tmpl.WriteSet().Has(x) {
			return true
		}
	}
	return false
}

// waitOnMe reports whether every job in holders is Blocked and waits on j,
// directly or through other Blocked jobs: each then donates to j the
// priority that j's request compares. The walk's queue is p.walkBuf.
func (p *Protocol) waitOnMe(env cc.Env, holders []rt.JobID, j rt.JobID) bool {
	for _, h := range holders {
		q := append(p.walkBuf[:0], h)
		found := false
		for k := 0; k < len(q) && !found; k++ {
			b := env.Job(q[k])
			if b == nil || b.Status != cc.Blocked {
				continue
			}
			for _, id := range b.Blockers {
				if id == j {
					found = true
				} else if !slices.Contains(q, id) {
					q = append(q, id)
				}
			}
		}
		p.walkBuf = q
		if !found {
			return false
		}
	}
	return true
}

// table1Offenders returns the write-lock holders T_L of x for which
// DataRead(T_L) ∩ WriteSet(T_i) ≠ ∅ — the holders that would later block
// T_i's own write and so must not be preempted by T_i's read (Case 1). The
// result aliases p.offBuf (valid until the next Request); the common case —
// no offenders — allocates nothing.
func (p *Protocol) table1Offenders(env cc.Env, j *cc.Job, x rt.Item) []rt.JobID {
	p.offBuf = p.offBuf[:0]
	env.Locks().EachWriter(x, func(id rt.JobID) bool {
		if id == j.ID {
			return true
		}
		if h := env.Job(id); h != nil && h.DataRead.Intersects(j.Tmpl.WriteSet()) {
			p.offBuf = append(p.offBuf, id)
		}
		return true
	})
	return p.offBuf
}

// Request implements the PCP-DA locking conditions.
func (p *Protocol) Request(env cc.Env, j *cc.Job, x rt.Item, m rt.Mode) cc.Decision {
	locks := env.Locks()
	if m == rt.Write {
		// LC1: a write lock needs only the absence of foreign read locks.
		// Foreign WRITE locks do not conflict: both writes are buffered and
		// commit order serializes them (the paper's Case 3, blind writes).
		if locks.NoRlockByOthers(x, j.ID) {
			return cc.Grant("LC1")
		}
		p.offBuf = appendReaders(p.offBuf[:0], env, x, j.ID)
		return cc.Block("rw-conflict", p.offBuf...)
	}

	// Read request.
	pri := j.BasePri()
	info := p.sysceilFor(env, j)
	// LC2 compares against the RUNNING priority (paper §7: "the priority of
	// a transaction ... always refers to ... its running priority"). This
	// is load-bearing for deadlock freedom: when T* executes with an
	// inherited priority above the ceiling its blocked benefactor raised,
	// LC2 must let T* through — Lemma 8's "T_i cannot block T* even if T*
	// has inherited a higher priority". LC3/LC4 identify writer identity
	// via HPW(x) and therefore keep using the original priority.
	runPri := j.RunPri
	if runPri < pri {
		runPri = pri
	}
	offenders := p.table1Offenders(env, j, x)

	// grantIfSafe grants under rule unless the Table-1 side condition
	// refuses, under denial. The paper proves the refusal cannot happen on
	// the LC2 and LC3 paths, so their denial names the path: the tally
	// shows it if it ever does.
	grantIfSafe := func(rule, denial string) cc.Decision {
		if len(offenders) == 0 {
			return cc.Grant(rule)
		}
		return cc.Block(denial, offenders...)
	}

	// LC2: P_i > Sysceil_i (running priority, see above), or P_i =
	// Sysceil_i when P_i is inherited and every T* holder waits on T_i
	// (a documented deviation, see the package doc): T_i is then the T*
	// of Lemma 8 and a denial would close a wait cycle.
	if runPri > info.sysceil || runPri == info.sysceil && runPri > pri && p.waitOnMe(env, info.tstar, j.ID) {
		return grantIfSafe("LC2", "table1-on-LC2")
	}
	if !p.opts.LC2Only {
		wx := p.ceil.Wceil(x) // the paper's HPW(x)
		// LC3: P_i > HPW(x) and x not in WriteSet(T*).
		if pri > wx && !tstarWrites(env, info.tstar, x) {
			return grantIfSafe("LC3", "table1-on-LC3")
		}
		// LC4: P_i = HPW(x), No_Rlock(x), x not in WriteSet(T*).
		if pri == wx && locks.NoRlockByOthers(x, j.ID) && !tstarWrites(env, info.tstar, x) {
			return grantIfSafe("LC4", "wr-conflict")
		}
	}

	// Ceiling blocking: T* inherits. With LC3 on, readers of x itself are
	// included — when they are lower-priority they coincide with T*
	// (Lemma 5), and inheritance is a no-op for higher-priority holders.
	// Lemma 5 needs LC3, so under LC2Only only T* is named: another
	// lower-priority reader of x would inherit P_i without blocking T_i.
	if p.opts.LC2Only {
		return cc.Block("ceiling", info.tstar...)
	}
	p.tstarBuf = appendReaders(info.tstar, env, x, j.ID)
	return cc.Block("ceiling", p.tstarBuf...)
}

// SystemCeiling reports the highest Wceil in force over all read-locked
// items — the quantity the paper plots as Max_Sysceil (dotted line in
// Figures 4 and 5). Write locks raise nothing under PCP-DA.
func (p *Protocol) SystemCeiling(env cc.Env) rt.Priority {
	c, tstar := env.Locks().Ceiling(rt.NoJob, p.ceil.WceilTable(), nil, p.tstarBuf)
	p.tstarBuf = tstar
	return c
}
