package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/wire"
)

func job(name string, pri int32) loadJob {
	return loadJob{tmpl: wire.TemplateInfo{Name: name, Priority: pri}}
}

// popNames empties q and returns the names in leaving order.
func popNames(q *openQueue) []string {
	q.close()
	var out []string
	for j, ok := q.pop(); ok; j, ok = q.pop() {
		out = append(out, j.tmpl.Name)
	}
	return out
}

// TestOpenQueueOrder: highest priority leaves first, arrival order within a
// priority, and a closed queue still hands out what it holds.
func TestOpenQueueOrder(t *testing.T) {
	q := newOpenQueue(8)
	for _, j := range []loadJob{job("low-1", 1), job("high-1", 3), job("mid-1", 2), job("high-2", 3), job("low-2", 1), job("mid-2", 2)} {
		if !q.push(j) {
			t.Fatalf("push %s into a queue with room reported a drop", j.tmpl.Name)
		}
	}
	got := fmt.Sprint(popNames(q))
	if want := "[high-1 high-2 mid-1 mid-2 low-1 low-2]"; got != want {
		t.Fatalf("left in order %s, want %s", got, want)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a closed, empty queue handed out a job")
	}
}

// TestOpenQueueDisplacement: a push into a full queue loses exactly one
// arrival, always the least important one present — the newcomer when it
// ranks no higher than the tail, the youngest of the lowest tier otherwise.
func TestOpenQueueDisplacement(t *testing.T) {
	q := newOpenQueue(3)
	for _, j := range []loadJob{job("mid", 2), job("low-old", 1), job("low-young", 1)} {
		q.push(j)
	}
	for _, tc := range []struct {
		in   loadJob
		want string // the queue afterwards
	}{
		{job("low-late", 1), "[mid low-old low-young]"}, // ties lose to the occupant
		{job("high", 3), "[high mid low-old]"},          // displaces the tail
		{job("mid-2", 2), "[high mid mid-2]"},
		{job("low-again", 1), "[high mid mid-2]"},
	} {
		if q.push(tc.in) {
			t.Fatalf("push %s into a full queue reported no drop", tc.in.tmpl.Name)
		}
		var names []string
		for _, it := range q.items {
			names = append(names, it.tmpl.Name)
		}
		if got := fmt.Sprint(names); got != tc.want {
			t.Fatalf("after %s the queue holds %s, want %s", tc.in.tmpl.Name, got, tc.want)
		}
	}
}

// TestOpenQueueCloseReleasesPop: a worker parked in pop on an empty queue
// leaves when the arrival process closes it.
func TestOpenQueueCloseReleasesPop(t *testing.T) {
	q := newOpenQueue(1)
	done := make(chan bool)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop returned a job from an empty queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop still parked after close")
	}
}

// loadServer is replyServer for RunLoad: refuse decides, by the count of
// transaction attempts (BEGIN or TXN frames, from 1) the server has seen,
// whether to answer one with an ERR. It returns the address and the count.
func loadServer(t *testing.T, refuse func(n int64) wire.ErrorCode) (string, *atomic.Int64) {
	var seen atomic.Int64
	return replyServer(t, nil, func(m wire.Message) wire.Message {
		switch m.(type) {
		case *wire.Begin, *wire.Txn:
			if code := refuse(seen.Add(1)); code != 0 {
				return &wire.ErrMsg{Code: code, Text: "scripted"}
			}
			if _, conversation := m.(*wire.Begin); conversation {
				return &wire.BeginOK{ID: 1}
			}
		case *wire.Commit:
			return &wire.CommitOK{}
		}
		return nil
	}), &seen
}

func runLoad(t *testing.T, cfg LoadConfig) *LoadReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := RunLoad(ctx, cfg)
	if err != nil {
		t.Fatalf("RunLoad: %v (report %+v)", err, rep)
	}
	return rep
}

// TestWorkerRetriesAFailedFirstAttempt: the pipelined closed loop has three
// transactions in flight when the first comes back with a retryable ERR;
// the worker runs the rest of its chain and the run ends with every
// transaction committed and one retry on the books.
func TestWorkerRetriesAFailedFirstAttempt(t *testing.T) {
	addr, seen := loadServer(t, func(n int64) wire.ErrorCode {
		if n == 1 {
			return wire.CodeAborted
		}
		return 0
	})
	rep := runLoad(t, LoadConfig{Addr: addr, Conns: 1, Txns: 3, Pipelined: true, Window: 4})
	if rep.Committed != 3 || rep.Attempts != 3 || rep.Retries != 1 || rep.Failed != 0 || rep.RetriesSuppressed != 0 {
		t.Fatalf("committed/attempts/retries/failed/suppressed = %d/%d/%d/%d/%d, want 3/3/1/0/0",
			rep.Committed, rep.Attempts, rep.Retries, rep.Failed, rep.RetriesSuppressed)
	}
	if got := seen.Load(); got != 4 {
		t.Fatalf("server saw %d TXN frames, want 4 (three first attempts and one retry)", got)
	}
	if tr := rep.Tiers[0]; tr.Offered != 3 || tr.Committed != 3 || tr.OnTime != 3 || rep.OnTime != 3 {
		t.Fatalf("tier %+v, on time %d: want 3 offered, committed and on time", tr, rep.OnTime)
	}
}

// TestWorkerHandsBackAnAbandonedClaim: with one attempt allowed, a shed
// first attempt is abandoned — Failed, no retry, the shed on its tier — and
// its claim goes back to the source. All three claims were out when that
// happened, so the count had run to zero: the worker must claim the
// returned one again and the run still reach its target.
func TestWorkerHandsBackAnAbandonedClaim(t *testing.T) {
	addr, seen := loadServer(t, func(n int64) wire.ErrorCode {
		if n == 1 {
			return wire.CodeShed
		}
		return 0
	})
	rep := runLoad(t, LoadConfig{Addr: addr, Conns: 1, Txns: 3, Pipelined: true, Window: 4, MaxAttempts: 1})
	if rep.Committed != 3 || rep.Attempts != 4 || rep.Retries != 0 || rep.Failed != 1 || rep.RetriesSuppressed != 0 {
		t.Fatalf("committed/attempts/retries/failed/suppressed = %d/%d/%d/%d/%d, want 3/4/0/1/0",
			rep.Committed, rep.Attempts, rep.Retries, rep.Failed, rep.RetriesSuppressed)
	}
	if got := seen.Load(); got != 4 {
		t.Fatalf("server saw %d TXN frames, want 4 (no retry, one replacement)", got)
	}
	if tr := rep.Tiers[0]; rep.Shed != 1 || tr.Shed != 1 || tr.Offered != 4 || tr.Committed != 3 {
		t.Fatalf("shed %d, tier %+v: want the shed counted once on the run and on its tier, 4 offered, 3 committed", rep.Shed, tr)
	}
}

// TestWorkerStopsOnDrain: a server that is draining ends a closed-loop run
// in order — no error, the refused transaction counted, nothing offered
// after it — whichever way its transactions are sent.
func TestWorkerStopsOnDrain(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			addr, seen := loadServer(t, func(n int64) wire.ErrorCode {
				if n >= 3 {
					return wire.CodeDraining
				}
				return 0
			})
			rep := runLoad(t, LoadConfig{Addr: addr, Conns: 1, Txns: 50, Pipelined: pipelined, Window: 1})
			if rep.Committed != 2 || rep.Failed != 1 || rep.Retries != 0 {
				t.Fatalf("committed/failed/retries = %d/%d/%d, want 2/1/0", rep.Committed, rep.Failed, rep.Retries)
			}
			if got := seen.Load(); got != 3 {
				t.Fatalf("server saw %d transaction attempts, want 3: the worker kept offering load to a draining server", got)
			}
		})
	}
}

// TestWorkerStopsRetryingWhenCancelled: a run cancelled while its worker is
// in a retry chain sends no further attempt — the backoff waits on the run's
// context, not a bare sleep — and returns promptly, whichever way its
// transactions are sent. The server cancels as it takes the third attempt,
// before it refuses it, so anything it sees after is sent after the cancel.
func TestWorkerStopsRetryingWhenCancelled(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var cancelledAt atomic.Int64
			addr, seen := loadServer(t, func(n int64) wire.ErrorCode {
				if n == 3 {
					cancelledAt.Store(time.Now().UnixNano())
					cancel()
				}
				return wire.CodeShed
			})
			rep, err := RunLoad(ctx, LoadConfig{Addr: addr, Conns: 1, Txns: 1, MaxAttempts: 1000, Pipelined: pipelined, Window: 1})
			took := time.Since(time.Unix(0, cancelledAt.Load()))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunLoad: %v, want context.Canceled", err)
			}
			if got := seen.Load(); got != 3 || rep.Retries != 2 {
				t.Fatalf("server saw %d attempts, %d retries sent: want 3 and 2, nothing after the cancel", got, rep.Retries)
			}
			if took > 50*time.Millisecond {
				t.Fatalf("RunLoad returned %v after the cancel, want within 50ms", took)
			}
		})
	}
}

// TestBackoffHoldsItsCapAtAnyAttempt: however long a retry chain runs, its
// backoff draws below the capped ceiling — a chain past the 44th retry does
// not shift the ceiling into a negative draw — and a cancelled run's
// backoff returns at once with the run's error.
func TestBackoffHoldsItsCapAtAnyAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &runner{rng: rand.New(rand.NewSource(1))}
	for _, a := range []int{1, 7, 8, 45, 64, 65, 1000} {
		if err := r.backoff(ctx, a); !errors.Is(err, context.Canceled) {
			t.Fatalf("backoff before retry %d of a cancelled run: %v, want context.Canceled", a, err)
		}
	}
}

// TestBucketsOfATinyWindow: an arrival window of a few nanoseconds still
// slices into buckets at least a nanosecond wide — no divide by zero at the
// first arrival — and books what lands past its end in the last bucket.
func TestBucketsOfATinyWindow(t *testing.T) {
	b := newBucketTracker(time.Now(), 3*time.Nanosecond)
	b.arrival(0, time.Millisecond)
	b.commit(true)
	got := b.report()
	if len(got) != Buckets {
		t.Fatalf("%d buckets, want %d", len(got), Buckets)
	}
	first, last := got[0], got[Buckets-1]
	if first.Scheduled != 1 || last.Emitted != 1 || last.Committed != 1 || last.OnTime != 1 {
		t.Fatalf("first %+v, last %+v: want the arrival scheduled in the first and emitted and committed in the last", first, last)
	}
	for _, bk := range got {
		if bk.EndS <= bk.StartS {
			t.Fatalf("bucket %+v has no width", bk)
		}
	}
}

// TestLatencyClockStartsBeforeSubmit: against a server that withholds every
// reply for a while, HELLO_OK included, a closed-loop latency covers
// everything between the claim and the commit whichever way it is sent — the first
// transaction's includes its connection's handshake, and none is shorter
// than one withheld reply.
func TestLatencyClockStartsBeforeSubmit(t *testing.T) {
	const withhold = 40 * time.Millisecond
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		for {
			m, tag, err := recv(conn)
			if err != nil {
				return
			}
			time.Sleep(withhold)
			var reply wire.Message
			switch m.(type) {
			case *wire.Hello:
				reply = fakeSchema
			case *wire.Begin:
				reply = &wire.BeginOK{ID: 1}
			case *wire.Commit:
				reply = &wire.CommitOK{}
			case *wire.Txn:
				reply = &wire.TxnOK{ID: 1}
			}
			send(t, conn, tag, reply)
		}
	})
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			rep := runLoad(t, LoadConfig{Addr: addr, Conns: 1, Txns: 3, Pipelined: pipelined, Window: 1})
			if rep.Committed != 3 {
				t.Fatalf("committed %d, want 3", rep.Committed)
			}
			if rep.P50 < withhold {
				t.Fatalf("p50 %v is shorter than one withheld reply (%v)", rep.P50, withhold)
			}
			if rep.Max < 2*withhold {
				t.Fatalf("max %v: the first transaction waited out a withheld HELLO_OK and a withheld reply (%v each)", rep.Max, withhold)
			}
		})
	}
}

// TestTinyRunPercentiles: with fewer samples than a percentile's
// denominator the index rounds down, never past the end.
func TestTinyRunPercentiles(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		lats                    [][]time.Duration
		p50, p90, p99, p999, hi time.Duration
	}{
		{lats: [][]time.Duration{nil, nil}},
		{[][]time.Duration{{7 * ms}}, 7 * ms, 7 * ms, 7 * ms, 7 * ms, 7 * ms},
		{[][]time.Duration{{3 * ms}, {1 * ms, 2 * ms}}, 2 * ms, 3 * ms, 3 * ms, 3 * ms, 3 * ms},
	} {
		r := &loadRun{tiers: newTierStats(fakeSchema), budget: newRetryBudget(1)}
		r.cfg.fill()
		rep := &LoadReport{}
		r.finishReport(rep, tc.lats, time.Now())
		if rep.P50 != tc.p50 || rep.P90 != tc.p90 || rep.P99 != tc.p99 || rep.P999 != tc.p999 || rep.Max != tc.hi {
			t.Fatalf("%v: p50/p90/p99/p999/max = %v/%v/%v/%v/%v, want %v/%v/%v/%v/%v", tc.lats,
				rep.P50, rep.P90, rep.P99, rep.P999, rep.Max, tc.p50, tc.p90, tc.p99, tc.p999, tc.hi)
		}
	}
}
