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
// it, not per burst. These tests count the writes and read what they carry.

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

// replyServer completes the handshake and then answers every tagged
// request in arrival order with reply's choice (nil: the request's success
// reply), one write per reply. seen, if non-nil, receives every request.
func replyServer(t *testing.T, seen func(wire.Message), reply func(wire.Message) wire.Message) string {
	return fakeServer(t, func(t *testing.T, conn net.Conn) {
		expect(t, conn, wire.KindHello)
		send(t, conn, fakeSchema)
		var scratch, out []byte
		for {
			m, ver, tag, sc, err := wire.ReadAny(conn, scratch)
			if err != nil {
				return
			}
			scratch = sc
			if seen != nil {
				seen(m)
			}
			var r wire.Message
			if reply != nil {
				r = reply(m)
			}
			if r == nil {
				switch m := m.(type) {
				case *wire.Begin:
					r = &wire.BeginOK{ID: 1}
				case *wire.Read:
					r = &wire.ReadOK{}
				case *wire.Write:
					r = &wire.WriteOK{}
				case *wire.Commit:
					r = &wire.CommitOK{}
				case *wire.Ping:
					r = &wire.Pong{Nonce: m.Nonce}
				default:
					t.Errorf("fake server: unexpected %s", m.Kind())
					return
				}
			}
			if out, err = wire.AppendTagged(out[:0], ver, tag, r); err != nil {
				t.Errorf("fake server encode: %v", err)
				return
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	})
}

var twoWrites = []wire.Message{&wire.Write{Item: 1, Value: 2}, &wire.Write{Item: 2, Value: 3}}

// kinds decodes the tagged frames in b and checks the tags run on from
// *next.
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

func resolved(f *TxnFuture) bool { return len(f.done) == 1 }

func waitResolved(t *testing.T, f *TxnFuture) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !resolved(f); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("future never resolved")
		}
	}
}

// TestFlushOnBlock: submitting writes nothing; the first Wait that has to
// block sends every burst submitted so far, in order, with one write; a
// Wait that finds its outcome writes nothing even with a batch unflushed.
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
	var tag uint32
	got := kinds(t, w[0], &tag)
	burst := []wire.Kind{wire.KindBegin, wire.KindWrite, wire.KindWrite, wire.KindCommit}
	if len(got) != k*len(burst) {
		t.Fatalf("the write carries %d frames, want %d", len(got), k*len(burst))
	}
	for i, kind := range got {
		if kind != burst[i%len(burst)] {
			t.Fatalf("frame %d is %s, want %s", i, kind, burst[i%len(burst)])
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
	if w := cc.taken(); len(w) != 1 || len(kinds(t, w[0], &tag)) != len(burst) {
		t.Fatalf("the unflushed burst left in %d writes, want 1 carrying it alone", len(w))
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
// bursts in flight, settle the oldest, resubmit — where depth × frames per
// burst exceeds the window, and where the window is smaller than a single
// burst. Every second transaction's COMMIT is refused: an outcome
// delivered before its burst's last reply (the seal rule broken by a
// mid-burst flush) would read as a commit.
func TestClosedLoopPastTheWindow(t *testing.T) {
	for _, tc := range []struct {
		name          string
		window, depth int
	}{
		{"depth-exceeds-window", 32, 8}, // 8 bursts × 5 frames
		{"window-below-one-burst", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			commits := 0
			addr := replyServer(t, nil, func(m wire.Message) wire.Message {
				if _, ok := m.(*wire.Commit); ok {
					commits++
					if commits%2 == 0 {
						return &wire.ErrMsg{Code: wire.CodeAborted, Text: "sacrificed"}
					}
				}
				return nil
			})
			p, _ := dialCounting(t, addr, tc.window)
			steps := []wire.Message{&wire.Read{Item: 1}, &wire.Write{Item: 1, Value: 2}, &wire.Write{Item: 2, Value: 3}}
			const n = 400
			var queue []*TxnFuture
			settled := 0
			for submitted := 0; submitted < n || len(queue) > 0; {
				for submitted < n && len(queue) < tc.depth {
					f, err := p.SubmitTxn("T1", 0, steps)
					if err != nil {
						t.Fatal(err)
					}
					queue = append(queue, f)
					submitted++
				}
				err := queue[0].Wait()
				queue = queue[1:]
				settled++
				if refused := settled%2 == 0; refused != wire.IsCode(err, wire.CodeAborted) || (!refused && err != nil) {
					t.Fatalf("transaction %d: outcome %v (refused by the server: %v)", settled, err, refused)
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

// beginCounter counts the BEGINs a fake server sees.
type beginCounter struct {
	mu sync.Mutex
	n  int
}

func (b *beginCounter) see(m wire.Message) {
	if _, ok := m.(*wire.Begin); ok {
		b.mu.Lock()
		b.n++
		b.mu.Unlock()
	}
}

func (b *beginCounter) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// unencodable is a request no frame can carry: its name is past the
// string limit.
var unencodable = &wire.Begin{Name: strings.Repeat("n", wire.MaxString+1)}

// TestFailedBurstLeavesNothingBehind: a burst whose middle step cannot be
// encoded is taken back whole — no orphan BEGIN reaches the server ahead
// of the next burst, no tag or window slot stays taken — whether the
// batch was empty, held an earlier burst, or was flushed by a full window
// just before the burst's first frame.
func TestFailedBurstLeavesNothingBehind(t *testing.T) {
	bad := []wire.Message{&wire.Write{Item: 1, Value: 2}, unencodable, &wire.Write{Item: 2, Value: 3}}
	for _, tc := range []struct {
		name    string
		window  int
		earlier bool // a good burst sits unflushed when the bad one is submitted
	}{
		{"empty-batch", 0, false},
		{"behind-an-unflushed-burst", 0, true},
		{"window-full-at-its-first-frame", 4, true}, // the earlier burst's 4 frames fill the window
	} {
		t.Run(tc.name, func(t *testing.T) {
			var begins beginCounter
			p, _ := dialCounting(t, replyServer(t, begins.see, nil), tc.window)
			var futs []*TxnFuture
			if tc.earlier {
				f, err := p.SubmitTxn("T1", 0, twoWrites)
				if err != nil {
					t.Fatal(err)
				}
				futs = append(futs, f)
			}
			if _, err := p.SubmitTxn("T1", 0, bad); err == nil {
				t.Fatal("a burst with an unencodable step was accepted")
			}
			if p.Broken() {
				t.Fatal("taking a burst back must not break the connection")
			}
			f, err := p.SubmitTxn("T1", 0, twoWrites)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range append(futs, f) {
				if err := f.Wait(); err != nil {
					t.Fatalf("a good burst beside the failed one: %v", err)
				}
			}
			if got, want := begins.count(), len(futs)+1; got != want {
				t.Fatalf("the server saw %d BEGINs, want %d", got, want)
			}
			// Every reply is in: nothing of the failed burst may still hold a
			// tag or a window slot. The demux frees a slot just after it
			// delivers, so give it a moment.
			for deadline := time.Now().Add(5 * time.Second); len(p.winCh) != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d window slots still taken", len(p.winCh))
				}
			}
			p.mu.Lock()
			left := len(p.pending)
			p.mu.Unlock()
			if left != 0 || p.nextTag != p.sent || len(p.wbuf) != 0 {
				t.Fatalf("left behind: %d tags, %d unflushed frames, %d bytes", left, p.nextTag-p.sent, len(p.wbuf))
			}
		})
	}
}

// TestHalfSentBurstFailsConnection: with a window smaller than the burst
// the head of a burst is on the wire before its unencodable step is
// reached; it cannot be recalled, so the connection fails rather than
// leave the server holding a BEGIN the next burst would run inside.
func TestHalfSentBurstFailsConnection(t *testing.T) {
	p, _ := dialCounting(t, replyServer(t, nil, nil), 2)
	bad := []wire.Message{&wire.Write{Item: 1, Value: 2}, &wire.Write{Item: 2, Value: 3}, unencodable}
	if _, err := p.SubmitTxn("T1", 0, bad); err == nil {
		t.Fatal("a burst with an unencodable step was accepted")
	}
	if !p.Broken() {
		t.Fatal("a half-sent burst must fail the connection")
	}
	if _, err := p.SubmitTxn("T1", 0, twoWrites); err == nil {
		t.Fatal("a burst was accepted on the failed connection")
	}
}
