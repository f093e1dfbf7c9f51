package client

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pcpda/internal/wire"
)

// A pipelined connection writes when its owner is about to block inside
// it, not per transaction. These tests count the writes and read what they
// carry.
//
// A transaction is one TXN frame, so one either is in the unflushed batch
// whole or is not there at all. The tests that pinned what happened to a
// multi-frame burst cut short — TestHalfSentBurstFailsConnection, and the
// half-registered cases of TestFailedBurstLeavesNothingBehind that
// PipeConn.abandon existed for — went with that hazard; what stays of the
// latter is that a transaction which cannot be encoded costs nothing.

// countingConn records every Write the client issues.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// taken returns the writes recorded since the last call.
func (c *countingConn) taken() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

// dialCounting is DialPipelined over a write-counting connection; the
// handshake's own write is already taken.
func dialCounting(t *testing.T, addr string, window int) (*PipeConn, *countingConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	p, err := handshakePipelined(cc, 5*time.Second, window)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	cc.taken()
	return p, cc
}

// replyServer completes the handshake and then answers every request in
// arrival order, at its tag, with reply's choice (nil: the request's
// success reply), one write per reply. seen, if non-nil, receives every
// request.
func replyServer(t *testing.T, seen func(wire.Message), reply func(wire.Message) wire.Message) string {
	return fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		for {
			m, tag, err := recv(conn)
			if err != nil {
				return
			}
			if seen != nil {
				seen(m)
			}
			var r wire.Message
			if reply != nil {
				r = reply(m)
			}
			if r == nil {
				switch m := m.(type) {
				case *wire.Txn:
					ok := &wire.TxnOK{ID: 1}
					for _, op := range m.Ops {
						if op.Op == wire.OpRead {
							ok.Reads = append(ok.Reads, int64(op.Item)*10)
						}
					}
					r = ok
				case *wire.Ping:
					r = &wire.Pong{Nonce: m.Nonce}
				default:
					t.Errorf("fake server: unexpected %s", m.Kind())
					return
				}
			}
			send(t, conn, tag, r)
		}
	})
}

var twoWrites = []wire.Message{&wire.Write{Item: 1, Value: 2}, &wire.Write{Item: 2, Value: 3}}

// kinds decodes the frames in b and checks the tags run on from *next
// (the handshake took tag 0).
func kinds(t *testing.T, b []byte, next *uint32) []wire.Kind {
	t.Helper()
	var out []wire.Kind
	for len(b) > 0 {
		m, _, tag, rest, err := wire.DecodeAny(b)
		if err != nil {
			t.Fatalf("client wrote an undecodable frame: %v", err)
		}
		if tag != *next {
			t.Fatalf("frame %d carries tag %d, want %d", len(out), tag, *next)
		}
		*next++
		out = append(out, m.Kind())
		b = rest
	}
	return out
}

func resolved(f *TxnFuture) bool { return f.req.done.Load() }

func waitResolved(t *testing.T, f *TxnFuture) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !resolved(f); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("future never resolved")
		}
	}
}

// TestFlushOnBlock: submitting writes nothing; the first Wait that has to
// block sends every transaction submitted so far, in order, one frame
// each, with one write; a Wait that finds its outcome writes nothing even
// with a batch unflushed.
func TestFlushOnBlock(t *testing.T) {
	p, cc := dialCounting(t, replyServer(t, nil, nil), 0)
	const k = 3
	var futs []*TxnFuture
	for i := 0; i < k; i++ {
		f, err := p.SubmitTxn("T1", 0, twoWrites)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if w := cc.taken(); len(w) != 0 {
		t.Fatalf("%d SubmitTxn calls issued %d writes, want 0", k, len(w))
	}
	if err := futs[0].Wait(); err != nil {
		t.Fatal(err)
	}
	w := cc.taken()
	if len(w) != 1 {
		t.Fatalf("the first blocking Wait issued %d writes, want 1", len(w))
	}
	tag := uint32(1)
	got := kinds(t, w[0], &tag)
	if len(got) != k {
		t.Fatalf("the write carries %d frames, want %d: one per transaction", len(got), k)
	}
	for i, kind := range got {
		if kind != wire.KindTxn {
			t.Fatalf("frame %d is %s, want TXN", i, kind)
		}
	}

	waitResolved(t, futs[1])
	waitResolved(t, futs[2])
	last, err := p.SubmitTxn("T1", 0, twoWrites)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range futs[1:] {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if w := cc.taken(); len(w) != 0 {
		t.Fatalf("Wait on resolved futures issued %d writes, want 0", len(w))
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	if w := cc.taken(); len(w) != 1 || len(kinds(t, w[0], &tag)) != 1 {
		t.Fatalf("the unflushed transaction left in %d writes, want 1 carrying it alone", len(w))
	}
}

// TestSubmitWaitWithoutFlush: a standalone Submit followed directly by
// Wait completes (the Wait flushes), as does Ping, with one write each.
func TestSubmitWaitWithoutFlush(t *testing.T) {
	p, cc := dialCounting(t, replyServer(t, nil, nil), 0)
	f, err := p.Submit(&wire.Ping{Nonce: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*wire.Pong).Nonce; got != 7 {
		t.Fatalf("pong nonce %d, want 7", got)
	}
	if err := p.Ping(8); err != nil {
		t.Fatal(err)
	}
	if w := cc.taken(); len(w) != 2 {
		t.Fatalf("Submit+Wait and Ping issued %d writes, want 2", len(w))
	}
}

// TestClosedLoopPastTheWindow runs the benchmark's closed loop — depth
// transactions in flight, settle the oldest, resubmit — with more in flight
// than the window holds, and with a window that does not hold even the
// burst of submissions the loop opens with, so that submits block on the
// window and flush from there. Every second transaction is refused, and
// every one carries its own read set: an outcome or a value delivered to
// the wrong future would show.
func TestClosedLoopPastTheWindow(t *testing.T) {
	for _, tc := range []struct {
		name          string
		window, depth int
	}{
		{"depth-exceeds-window", 4, 8},
		{"window-below-one-burst", 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			txns := 0
			addr := replyServer(t, nil, func(m wire.Message) wire.Message {
				if _, ok := m.(*wire.Txn); ok {
					txns++
					if txns%2 == 0 {
						return &wire.ErrMsg{Code: wire.CodeAborted, Text: "sacrificed"}
					}
				}
				return nil
			})
			p, _ := dialCounting(t, addr, tc.window)
			type flight struct {
				fut  *TxnFuture
				item uint32
			}
			const n = 400
			var queue []flight
			settled := 0
			for submitted := 0; submitted < n || len(queue) > 0; {
				for submitted < n && len(queue) < tc.depth {
					item := uint32(submitted)
					f, err := p.SubmitTxn("T1", 0, []wire.Message{
						&wire.Read{Item: item}, &wire.Write{Item: 1, Value: 2}, &wire.Read{Item: item + 1}})
					if err != nil {
						t.Fatal(err)
					}
					queue = append(queue, flight{f, item})
					submitted++
				}
				f := queue[0]
				queue = queue[1:]
				err := f.fut.Wait()
				settled++
				if refused := settled%2 == 0; refused != wire.IsCode(err, wire.CodeAborted) || (!refused && err != nil) {
					t.Fatalf("transaction %d: outcome %v (refused by the server: %v)", settled, err, refused)
				}
				if got := f.fut.Reads(); err == nil && (len(got) != 2 || got[0] != int64(f.item)*10 || got[1] != int64(f.item+1)*10) {
					t.Fatalf("transaction %d read %v, want the fake's values for items %d and %d", settled, got, f.item, f.item+1)
				}
			}
		})
	}
}

// TestCloseFailsUnflushedBursts: Close discards the unflushed batch and
// every future submitted into it fails instead of hanging.
func TestCloseFailsUnflushedBursts(t *testing.T) {
	p, cc := dialCounting(t, replyServer(t, nil, nil), 0)
	var futs []*TxnFuture
	for i := 0; i < 3; i++ {
		f, err := p.SubmitTxn("T1", 0, twoWrites)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	_ = p.Close()
	for i, f := range futs {
		if err := f.Wait(); err == nil {
			t.Fatalf("future %d resolved on a closed connection", i)
		}
	}
	if w := cc.taken(); len(w) != 0 {
		t.Fatalf("Close wrote the unflushed batch (%d writes)", len(w))
	}
}

// txnCounter counts the TXNs a fake server sees.
type txnCounter struct {
	mu sync.Mutex
	n  int
}

func (c *txnCounter) see(m wire.Message) {
	if _, ok := m.(*wire.Txn); ok {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

func (c *txnCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestFailedBurstLeavesNothingBehind: a transaction that cannot be
// submitted — its template name is past what a frame can carry, which the
// encoder finds out with the window slot already chosen; or a step is not a
// READ or a WRITE — leaves no byte in the batch and no window slot
// taken, whether the batch was empty, held an earlier transaction, or was
// flushed by a full window just before.
func TestFailedBurstLeavesNothingBehind(t *testing.T) {
	unencodable := strings.Repeat("n", wire.MaxString+1)
	for _, tc := range []struct {
		name    string
		window  int
		earlier bool // a good transaction sits unflushed when the bad ones are submitted
	}{
		{"empty-batch", 0, false},
		{"behind-an-unflushed-burst", 0, true},
		{"window-full-at-its-first-frame", 1, true}, // the earlier transaction fills the window
	} {
		t.Run(tc.name, func(t *testing.T) {
			var txns txnCounter
			p, _ := dialCounting(t, replyServer(t, txns.see, nil), tc.window)
			var futs []*TxnFuture
			if tc.earlier {
				f, err := p.SubmitTxn("T1", 0, twoWrites)
				if err != nil {
					t.Fatal(err)
				}
				futs = append(futs, f)
			}
			if _, err := p.SubmitTxn(unencodable, 0, twoWrites); err == nil {
				t.Fatal("a transaction with an unencodable name was accepted")
			}
			if _, err := p.SubmitTxn("T1", 0, []wire.Message{twoWrites[0], &wire.Commit{}}); err == nil {
				t.Fatal("a transaction with a COMMIT for a step was accepted")
			}
			if p.Broken() {
				t.Fatal("refusing a transaction must not break the connection")
			}
			f, err := p.SubmitTxn("T1", 0, twoWrites)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range append(futs, f) {
				if err := f.Wait(); err != nil {
					t.Fatalf("a good transaction beside the failed ones: %v", err)
				}
			}
			if got, want := txns.count(), len(futs)+1; got != want {
				t.Fatalf("the server saw %d TXNs, want %d", got, want)
			}
			// Every reply is in: nothing of the failed transactions may still
			// hold a slot. The demux frees a slot just before it publishes the
			// outcome, so none is taken by now.
			if n := liveSlots(p); n != 0 {
				t.Fatalf("%d window slots still taken", n)
			}
			if p.unsent != 0 || len(p.wbuf) != 0 {
				t.Fatalf("left behind: %d unflushed frames, %d bytes", p.unsent, len(p.wbuf))
			}
		})
	}
}
