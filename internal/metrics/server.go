package metrics

import "sync/atomic"

// ServerCounters is the live counter set for the network transaction
// service. All fields are atomics so sessions update them without
// coordinating; Snapshot gives a coherent-enough point-in-time copy for
// the daemon's /stats endpoint (counters are monotone, so a snapshot
// torn across concurrent increments still never goes backwards).
//
// Contains atomics: must be used through a pointer, never copied.
type ServerCounters struct {
	Accepted           atomic.Int64 // transactions admitted (BEGIN granted)
	ROAccepted         atomic.Int64 // read-only snapshot transactions begun (bypass admission)
	RejectedOverload   atomic.Int64 // BEGINs refused because the admission queue was full
	RejectedConnLimit  atomic.Int64 // connections refused at accept time by the -max-conns limit
	RejectedInfeasible atomic.Int64 // BEGINs refused because the queue-wait estimate already broke their firm deadline
	Shed               atomic.Int64 // BEGINs shed (displaced from or refused by the queue) as lowest-priority work past the high-water mark
	AutoAborted        atomic.Int64 // live transactions aborted because their session disconnected
	DrainAborted       atomic.Int64 // live transactions aborted by server drain
	WatchdogTrips      atomic.Int64 // transactions force-aborted by the stuck-transaction watchdog
	WatchdogAuditFails atomic.Int64 // CheckInvariants failures observed after a watchdog trip
	SlowClientKills    atomic.Int64 // sessions torn down because a reply flush hit the write deadline
	SessionsOpened     atomic.Int64 // connections that completed the hello handshake
	SessionsClosed     atomic.Int64 // sessions torn down (any reason)
	PipelinedSessions  atomic.Int64 // sessions that sent a request before the previous one was answered (two frames in one read)
	ResponseFlushes    atomic.Int64 // writer wakeups that wrote at least one response
	ResponsesFlushed   atomic.Int64 // responses written (ResponsesFlushed/ResponseFlushes = mean flush batch)
	InflightHWM        atomic.Int64 // highest per-session inflight (requests read, response not yet flushed) seen on any session
	BytesIn            atomic.Int64 // payload bytes read off the wire
	BytesOut           atomic.Int64 // payload bytes written to the wire
}

// ServerSnapshot is a plain-value copy of ServerCounters, safe to copy,
// compare and marshal.
type ServerSnapshot struct {
	Accepted           int64 `json:"accepted"`
	ROAccepted         int64 `json:"ro_accepted"`
	RejectedOverload   int64 `json:"rejected_overload"`
	RejectedConnLimit  int64 `json:"rejected_conn_limit"`
	RejectedInfeasible int64 `json:"rejected_infeasible"`
	Shed               int64 `json:"shed"`
	AutoAborted        int64 `json:"auto_aborted"`
	DrainAborted       int64 `json:"drain_aborted"`
	WatchdogTrips      int64 `json:"watchdog_trips"`
	WatchdogAuditFails int64 `json:"watchdog_audit_fails"`
	SlowClientKills    int64 `json:"slow_client_kills"`
	SessionsOpened     int64 `json:"sessions_opened"`
	SessionsClosed     int64 `json:"sessions_closed"`
	PipelinedSessions  int64 `json:"pipelined_sessions"`
	ResponseFlushes    int64 `json:"response_flushes"`
	ResponsesFlushed   int64 `json:"responses_flushed"`
	StolenAdmissions   int64 `json:"stolen_admissions"` // always 0: there is one admission queue; benchmark/probes.go:249 reads it, ROADMAP 4(e) drops both
	InflightHWM        int64 `json:"inflight_hwm"`
	BytesIn            int64 `json:"bytes_in"`
	BytesOut           int64 `json:"bytes_out"`
}

// Snapshot reads every counter once.
func (c *ServerCounters) Snapshot() ServerSnapshot {
	return ServerSnapshot{
		Accepted:           c.Accepted.Load(),
		ROAccepted:         c.ROAccepted.Load(),
		RejectedOverload:   c.RejectedOverload.Load(),
		RejectedConnLimit:  c.RejectedConnLimit.Load(),
		RejectedInfeasible: c.RejectedInfeasible.Load(),
		Shed:               c.Shed.Load(),
		AutoAborted:        c.AutoAborted.Load(),
		DrainAborted:       c.DrainAborted.Load(),
		WatchdogTrips:      c.WatchdogTrips.Load(),
		WatchdogAuditFails: c.WatchdogAuditFails.Load(),
		SlowClientKills:    c.SlowClientKills.Load(),
		SessionsOpened:     c.SessionsOpened.Load(),
		SessionsClosed:     c.SessionsClosed.Load(),
		PipelinedSessions:  c.PipelinedSessions.Load(),
		ResponseFlushes:    c.ResponseFlushes.Load(),
		ResponsesFlushed:   c.ResponsesFlushed.Load(),
		InflightHWM:        c.InflightHWM.Load(),
		BytesIn:            c.BytesIn.Load(),
		BytesOut:           c.BytesOut.Load(),
	}
}

// SessionsLive returns opened minus closed — the number of sessions
// currently attached.
func (c *ServerCounters) SessionsLive() int64 {
	// Closed is loaded first so a session closing between the two loads can
	// only overcount, never yield a negative live figure.
	closed := c.SessionsClosed.Load()
	return c.SessionsOpened.Load() - closed
}

// MaxInt64 raises a to at least v (a monotone high-water mark update).
func MaxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
