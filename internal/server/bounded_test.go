package server

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/history"
	"pcpda/internal/rtm"
)

// TestBoundedHistoryThroughServer is rtm.TestBoundedHistory behind the
// wire: 200 000 transactions from pipelined clients over loopback into a
// manager nobody resets, in deciles, after a warm-up that wraps the ring.
// The process's live heap and the cost of the audit a watchdog trip or the
// drain runs must be flat from the first decile to the last; the drain in
// the startServer cleanup must come back clean.
func TestBoundedHistoryThroughServer(t *testing.T) {
	total := 200_000
	if testing.Short() {
		total /= 10
	}
	mgr, err := rtm.New(testSet(t))
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, mgr, Config{QueueDepth: 128})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	load := func(txns int, seed int64) {
		t.Helper()
		rep, err := client.RunLoad(ctx, client.LoadConfig{Addr: addr, Conns: 4, Txns: txns, Seed: seed, Pipelined: true})
		if err != nil || rep.Committed < int64(txns) {
			t.Fatalf("load: %v (committed %d of %d)", err, rep.Committed, txns)
		}
		waitFor(t, "sessions idle", func() bool { return !srv.liveWork() })
	}
	for mgr.Stats().HistoryEvicted == 0 {
		load(4000, 1)
	}
	var heap [10]uint64
	var audit [10]time.Duration
	for d := range heap {
		load(total/10, int64(2+d))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[d], audit[d] = ms.HeapAlloc, 1<<62
		for i := 0; i < 5; i++ { // best of five
			t0 := time.Now()
			if err := mgr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			audit[d] = min(audit[d], time.Since(t0))
		}
	}
	st := mgr.Stats()
	t.Logf("%d commits: heap after GC %d KiB -> %d KiB, CheckInvariants %v -> %v, window %d ops, %d evicted",
		st.Commits, heap[0]>>10, heap[9]>>10, audit[0], audit[9], st.HistoryRetained, st.HistoryEvicted)
	if heap[9] > heap[0]+1<<20 {
		t.Errorf("live heap grew from %d to %d bytes over the run", heap[0], heap[9])
	}
	if audit[9] > 2*audit[0] {
		t.Errorf("audit cost grew from %v to %v over the run", audit[0], audit[9])
	}
	if st.CommitsAudited != uint64(st.Commits) || st.AuditViolations != 0 || st.HistoryRetained != history.RingCap {
		t.Errorf("audited %d of %d commits, %d violations, window %d ops", st.CommitsAudited, st.Commits, st.AuditViolations, st.HistoryRetained)
	}
}
