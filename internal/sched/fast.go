package sched

import (
	"pcpda/internal/cc"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// fastForward advances time in bulk across spans where nothing observable
// can happen, preserving exact tick-by-tick semantics:
//
//   - j (the job that just executed a tick) is mid-segment, or at the start
//     of a compute segment that no early lock release preceded: until j
//     reaches an access step or its end, no lock request, grant, release or
//     priority change occurs — provided no job release and no deadline
//     boundary falls inside the span, every tick is identical to the one just
//     accounted. A chain of compute segments is one span.
//   - the system is empty: idle until the next release.
//
// released says whether j's tick ended a segment with an early release
// (CCP's EarlyRelease): blocked jobs may then be granted at the next tick,
// which needs a full dispatch.
//
// Spans never cross a release time, a deadline boundary or the horizon, so
// the main loop's per-tick work (release, deadline check, dispatch) happens
// at exactly the same instants as in tick-by-tick mode. Fast-forwarding is
// disabled while tracing (the timeline needs every tick) and by
// Config.DisableFastForward.
//
// Ceiling tracking alone does NOT disable it: the lock table cannot change
// inside a span (no request, grant or release happens in it), so every
// skipped tick would have recorded the same ceiling as the tick just
// accounted, and the early release that ends a span only lowers the
// ceiling — Result.MaxSysceil is unaffected either way. (TrackCeiling plus
// RecordTrace still runs tick-by-tick: the timeline wants a per-tick
// ceiling row.)
func (k *Kernel) fastForward(j *cc.Job, released bool) {
	if k.cfg.DisableFastForward || k.cfg.RecordTrace {
		return
	}
	if j == nil {
		k.fastIdle()
		return
	}
	if k.frng != nil {
		// Fault injection draws once per executed tick; a span would skip
		// draws and change the fault schedule. Idle gaps (above) are safe —
		// no job executes, so no draw happens.
		return
	}
	for {
		step, ok := j.CurStep()
		if !ok || (j.StepDone == 0 && (released || step.Kind != txn.Compute)) {
			// The next tick needs a full dispatch: a lock request, or blocked
			// jobs re-requesting after an early release.
			return
		}
		span := k.clampSpan(step.Dur - j.StepDone) // remaining ticks in the segment
		if span <= 0 {
			return
		}
		j.StepDone += span
		k.accountSpan(j, span)
		k.now += span
		if j.StepDone < step.Dur {
			return
		}
		released = k.endStep(j)
	}
}

// fastIdle jumps an empty system to the next release (or the horizon).
// relMin is the exact next release time (Horizon+1 when none remain).
func (k *Kernel) fastIdle() {
	if len(k.active) > 0 {
		// Active-but-all-blocked means a deadlock is in progress; keep
		// per-tick accounting so blocked-time statistics stay exact.
		return
	}
	if k.relMin <= k.now {
		return
	}
	span := k.cfg.Horizon - k.now
	if gap := k.relMin - k.now; gap < span {
		span = gap
	}
	if span <= 0 {
		return
	}
	k.res.IdleTicks += span
	k.now += span
}

// clampSpan bounds a candidate span so it ends no later than the next
// release, the next unmissed deadline, or the horizon. relMin is exact;
// dlMin is a conservative lower bound — clamping to it can only shorten
// the span (the subsequent tick rescans and tightens the bound), never
// skip an event.
func (k *Kernel) clampSpan(span rt.Ticks) rt.Ticks {
	if lim := k.cfg.Horizon - k.now; span > lim {
		span = lim
	}
	if lim := k.relMin - k.now; lim < span {
		span = lim
	}
	if lim := k.dlMin - k.now; lim < span {
		span = lim
	}
	return span
}

// accountSpan bulk-applies accountTick's per-tick statistics for a span in
// which exec executed every tick and every other active job kept its state.
func (k *Kernel) accountSpan(exec *cc.Job, span rt.Ticks) {
	for _, o := range k.active {
		if o == exec {
			continue
		}
		if o.Status == cc.Blocked {
			o.BlockedTicks += span
			if o.BlockedOn >= 0 {
				k.res.ItemBlocked[o.BlockedOn] += span
			}
			if exec.BasePri() < o.BasePri() {
				o.InvBlockTicks += span
			}
		}
	}
}
