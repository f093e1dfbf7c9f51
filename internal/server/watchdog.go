package server

import "time"

// watchdog is the stuck-transaction scanner. A transaction can outlive its
// usefulness in two ways the per-session machinery cannot see: parked
// inside the manager on a lock whose holder is itself slow (the connection
// is healthy, so no read timeout fires), or idle holding locks while its
// client thinks (the manager is not involved, so nothing unwinds). Either
// way a transaction past its deadline budget plus grace is worthless by
// definition — PCP-DA's firm-deadline premise — and worse than worthless:
// it holds locks that block feasible work. This is the live path's one
// deadline: the manager keeps none of its own. The watchdog sweeps live
// transactions every WatchdogInterval and force-aborts offenders:
// cancelling the transaction's context unparks a blocked manager call, and
// the idempotent Abort releases the locks of an idle one. The owning session
// survives — its next operation on the transaction reports a retryable
// CodeDeadline (see txFailed) — so one stuck transaction costs one
// transaction, not one connection.
//
// After any sweep that tripped, the watchdog audits the manager with
// CheckInvariants: a force-abort exercises teardown paths (unwinding a
// parked waiter, releasing locks out of band), and if that ever leaves the
// ceiling/serialization state inconsistent, WatchdogAuditFails records it
// the moment it happens rather than at drain time.
func (s *Server) watchdog() {
	defer s.watchdogWG.Done()
	tick := time.NewTicker(s.cfg.WatchdogInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-tick.C:
			s.sweepStuck()
		}
	}
}

// sweepStuck force-aborts every live transaction past its firm deadline
// plus grace (or older than StuckTxnAge, when configured), then audits the
// manager if anything tripped.
func (s *Server) sweepStuck() {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	now := timeNow()
	tripped := 0
	for _, sess := range sessions {
		lt := sess.cur.Load()
		if lt == nil {
			continue
		}
		stuck := (!lt.deadline.IsZero() && now.After(lt.deadline.Add(s.cfg.WatchdogGrace))) ||
			(s.cfg.StuckTxnAge > 0 && now.Sub(lt.start) > s.cfg.StuckTxnAge)
		if !stuck {
			continue
		}
		// The CAS makes each liveTx trip at most once even if it lingers
		// across sweeps (the owner only notices on its next operation). A
		// trip racing the owner's commit/abort is benign: cancel hits a
		// context that no longer guards anything and Abort is idempotent.
		if !lt.tripped.CompareAndSwap(false, true) {
			continue
		}
		s.ctr.WatchdogTrips.Add(1) // before the cancel: whoever sees its CodeDeadline sees the trip counted
		lt.cancel()
		lt.tx.Abort()
		tripped++
		late := "no deadline"
		if !lt.deadline.IsZero() {
			late = "deadline " + now.Sub(lt.deadline).Round(time.Millisecond).String() + " ago"
		}
		s.logf("watchdog: force-aborted txn %d (%s) live %v, %s",
			lt.tx.ID(), lt.tx.Template().Name, now.Sub(lt.start).Round(time.Millisecond), late)
	}
	if tripped > 0 {
		if err := s.mgr.CheckInvariants(); err != nil {
			s.ctr.WatchdogAuditFails.Add(1)
			s.logf("watchdog: invariant audit failed after %d trips: %v; last operations: %s",
				tripped, err, s.mgr.HistoryTail(flightTail))
		}
	}
}
