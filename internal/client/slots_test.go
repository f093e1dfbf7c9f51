package client

import (
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"pcpda/internal/wire"
)

// A request in flight is a slot of the connection's table holding the
// future its caller was handed; the tag names the slot and its generation.
// These tests deliver replies in every order a server may choose, and a few
// it may not.

// liveSlots counts the window slots that hold an unanswered request.
func liveSlots(p *PipeConn) int {
	n := 0
	for i := range p.slots {
		if p.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// heldServer completes the handshake, reads n requests and hands them —
// message and tag, in arrival order — to script, which answers as it likes.
type held struct {
	m   wire.Message
	tag uint32
}

func heldServer(t *testing.T, n int, script func(conn net.Conn, reqs []held)) string {
	return fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		var reqs []held
		for len(reqs) < n {
			m, tag, err := recv(conn)
			if err != nil {
				return
			}
			reqs = append(reqs, held{m, tag})
		}
		script(conn, reqs)
		_, _ = io.Copy(io.Discard, conn) // until the client hangs up
	})
}

// readsOf is the fake's TXN_OK for a TXN: ten times the item of every read.
func readsOf(m wire.Message) *wire.TxnOK {
	ok := &wire.TxnOK{ID: 1}
	for _, op := range m.(*wire.Txn).Ops {
		if op.Op == wire.OpRead {
			ok.Reads = append(ok.Reads, int64(op.Item)*10)
		}
	}
	return ok
}

// TestRepliesInReverseOrder: every reply of a window's worth of
// transactions arrives in the opposite order to its request; each future
// resolves to its own transaction's values.
func TestRepliesInReverseOrder(t *testing.T) {
	const n = 8
	addr := heldServer(t, n, func(conn net.Conn, reqs []held) {
		for i := n - 1; i >= 0; i-- {
			send(t, conn, reqs[i].tag, readsOf(reqs[i].m))
		}
	})
	p, _ := dialCounting(t, addr, n)
	var futs []*TxnFuture
	for i := 0; i < n; i++ {
		f, err := p.SubmitTxn("T1", 0, []wire.Message{&wire.Read{Item: uint32(i)}, &wire.Read{Item: uint32(100 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		if want := []int64{int64(i) * 10, int64(100+i) * 10}; !slices.Equal(f.Reads(), want) {
			t.Fatalf("transaction %d read %v, want %v", i, f.Reads(), want)
		}
	}
	if n := liveSlots(p); n != 0 {
		t.Fatalf("%d slots still taken with every reply in", n)
	}
}

// TestPingOvertakesTxn: the PONG to a PING sent behind a TXN arrives first,
// as a server with that transaction parked would send it; the PING's future
// resolves with the transaction's still open, then that one does.
func TestPingOvertakesTxn(t *testing.T) {
	release := make(chan struct{})
	addr := heldServer(t, 2, func(conn net.Conn, reqs []held) {
		send(t, conn, reqs[1].tag, &wire.Pong{Nonce: reqs[1].m.(*wire.Ping).Nonce})
		<-release
		send(t, conn, reqs[0].tag, readsOf(reqs[0].m))
	})
	p, _ := dialCounting(t, addr, 0)
	txn, err := p.SubmitTxn("T1", 0, []wire.Message{&wire.Read{Item: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ping, err := p.Submit(&wire.Ping{Nonce: 77})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ping.Wait()
	if err != nil || m.(*wire.Pong).Nonce != 77 {
		t.Fatalf("ping behind a parked transaction: %v, %v", m, err)
	}
	if resolved(txn) {
		t.Fatal("the transaction resolved before its reply was sent")
	}
	close(release)
	if err := txn.Wait(); err != nil || !slices.Equal(txn.Reads(), []int64{40}) {
		t.Fatalf("the overtaken transaction: reads %v, %v", txn.Reads(), err)
	}
}

// TestUnknownTagFailsConnection: a reply whose tag names no request in
// flight — a slot that is free, a slot beyond the table, tag 0, or a busy
// slot's earlier generation — fails the connection: with the server's typed
// error when the reply is an ERR (its terminal word), as a desync otherwise.
func TestUnknownTagFailsConnection(t *testing.T) {
	const window = 4
	for _, tc := range []struct {
		name string
		tag  func(live uint32) uint32 // from the tag of the one request in flight
	}{
		{"free-slot", func(live uint32) uint32 { return live + 1 }},
		{"beyond-the-table", func(uint32) uint32 { return window + 1 }},
		{"tag-zero", func(uint32) uint32 { return 0 }},
		{"stale-generation", func(live uint32) uint32 { return live - 1<<16 }},
	} {
		for _, reply := range []wire.Message{&wire.TxnOK{ID: 1}, &wire.ErrMsg{Code: wire.CodeDraining, Text: "going away"}} {
			t.Run(tc.name+"/"+reply.Kind().String(), func(t *testing.T) {
				// The first window of requests is answered in full, so the
				// one in flight is slot 0's second: its generation is 1.
				addr := heldServer(t, window, func(conn net.Conn, reqs []held) {
					for _, r := range reqs {
						send(t, conn, r.tag, &wire.TxnOK{ID: 1})
					}
					if _, live, err := recv(conn); err == nil {
						send(t, conn, tc.tag(live), reply)
					}
				})
				p, _ := dialCounting(t, addr, window)
				var last *TxnFuture
				for i := 0; i <= window; i++ {
					f, err := p.SubmitTxn("T1", 0, twoWrites)
					if err != nil {
						t.Fatal(err)
					}
					last = f
				}
				err := last.Wait()
				var re *wire.RemoteError
				if _, isErr := reply.(*wire.ErrMsg); isErr {
					if !errors.As(err, &re) || re.Code != wire.CodeDraining {
						t.Fatalf("an unasked ERR came back as %v, want the server's CodeDraining", err)
					}
				} else if err == nil || errors.As(err, &re) {
					t.Fatalf("a TXN_OK for nobody came back as %v, want a desync", err)
				}
				if !p.Broken() {
					t.Fatal("the connection survived a reply for nobody")
				}
				if _, err := p.SubmitTxn("T1", 0, twoWrites); err == nil {
					t.Fatal("a failed connection took another transaction")
				}
			})
		}
	}
}

// TestAbandonedFuturesHoldNoSlot: a window's worth of transactions are
// answered and never waited on; the next window's worth is submitted
// without a write, which a submit into a full window would have made.
func TestAbandonedFuturesHoldNoSlot(t *testing.T) {
	const window = 4
	p, cc := dialCounting(t, replyServer(t, nil, nil), window)
	for i := 0; i < window; i++ {
		if _, err := p.SubmitTxn("T1", 0, twoWrites); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); liveSlots(p) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still taken by answered requests", liveSlots(p))
		}
	}
	cc.taken()
	var futs []*TxnFuture
	for i := 0; i < window; i++ {
		f, err := p.SubmitTxn("T1", 0, twoWrites)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if w := cc.taken(); len(w) != 0 {
		t.Fatalf("submitting behind %d abandoned futures issued %d writes: the window was not free", window, len(w))
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFullWindowProceedsOnFirstReply: a submit into a full window flushes
// what is unflushed and goes ahead as soon as any one reply — here the
// newest request's, not the oldest's — frees a slot.
func TestFullWindowProceedsOnFirstReply(t *testing.T) {
	const window = 3
	release := make(chan struct{})
	addr := heldServer(t, window, func(conn net.Conn, reqs []held) {
		send(t, conn, reqs[window-1].tag, readsOf(reqs[window-1].m))
		<-release
		for _, r := range reqs[:window-1] {
			send(t, conn, r.tag, readsOf(r.m))
		}
		m, tag, err := recv(conn)
		if err == nil {
			send(t, conn, tag, readsOf(m))
		}
	})
	p, cc := dialCounting(t, addr, window)
	var futs []*TxnFuture
	for i := 0; i <= window; i++ { // the last one finds the window full
		f, err := p.SubmitTxn("T1", 0, []wire.Message{&wire.Read{Item: uint32(i)}})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if w := cc.taken(); len(w) != 1 {
		t.Fatalf("a submit into a full window issued %d writes, want the one flush", len(w))
	}
	if !resolved(futs[window-1]) || resolved(futs[0]) {
		t.Fatal("the submit went ahead on something other than the one reply sent")
	}
	close(release)
	for i, f := range futs {
		if err := f.Wait(); err != nil || !slices.Equal(f.Reads(), []int64{int64(i) * 10}) {
			t.Fatalf("transaction %d: reads %v, %v", i, f.Reads(), err)
		}
	}
}

// TestCloseUnblocksOwner: Close from another goroutine wakes an owner
// blocked in Wait, and one blocked in a submit into a full window; both get
// the closed connection's error.
func TestCloseUnblocksOwner(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(p *PipeConn, f *TxnFuture) error
	}{
		{"wait", func(_ *PipeConn, f *TxnFuture) error { return f.Wait() }},
		{"full-window", func(p *PipeConn, _ *TxnFuture) error {
			_, err := p.SubmitTxn("T1", 0, twoWrites)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arrived := make(chan struct{})
			addr := heldServer(t, 1, func(net.Conn, []held) { close(arrived) }) // never answers
			p, _ := dialCounting(t, addr, 1)
			f, err := p.SubmitTxn("T1", 0, twoWrites)
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() { errc <- tc.block(p, f) }()
			<-arrived // the owner flushed, so it is blocked or about to be
			_ = p.Close()
			select {
			case err := <-errc:
				if !errors.Is(err, errPipeClosed) {
					t.Fatalf("the blocked owner came back with %v, want the closed connection's error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close left the owner blocked")
			}
		})
	}
}

// TestWaitTwice: the outcome lives in the future, so asking again gets it
// again — the values, the refusal, the reply — on a connection that stays
// healthy.
func TestWaitTwice(t *testing.T) {
	txns := 0
	addr := replyServer(t, nil, func(m wire.Message) wire.Message {
		if _, ok := m.(*wire.Txn); ok {
			if txns++; txns == 2 {
				return &wire.ErrMsg{Code: wire.CodeAborted, Text: "sacrificed"}
			}
		}
		return nil
	})
	p, _ := dialCounting(t, addr, 0)
	good, err := p.SubmitTxn("T1", 0, []wire.Message{&wire.Read{Item: 3}})
	if err != nil {
		t.Fatal(err)
	}
	refused, err := p.SubmitTxn("T1", 0, twoWrites)
	if err != nil {
		t.Fatal(err)
	}
	ping, err := p.Submit(&wire.Ping{Nonce: 5})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		if err := good.Wait(); err != nil || !slices.Equal(good.Reads(), []int64{30}) {
			t.Fatalf("Wait %d on a committed transaction: reads %v, %v", round, good.Reads(), err)
		}
		if err := refused.Wait(); !wire.IsCode(err, wire.CodeAborted) {
			t.Fatalf("Wait %d on a refused transaction: %v, want CodeAborted", round, err)
		}
		if m, err := ping.Wait(); err != nil || m.(*wire.Pong).Nonce != 5 {
			t.Fatalf("Wait %d on a ping: %v, %v", round, m, err)
		}
	}
	if p.Broken() {
		t.Fatal("waiting twice broke the connection")
	}
}

// echoServer answers without decoding and without allocating: after the
// handshake every frame comes back with the reply bit set on its kind and
// its payload untouched — which makes a PING's reply its PONG — except a
// TXN, which gets a canned TXN_OK carrying one value.
func echoServer(t *testing.T) string {
	txnOK, err := wire.AppendTagged(nil, wire.Version, 0, &wire.TxnOK{ID: 1, Reads: []int64{7}})
	if err != nil {
		t.Fatal(err)
	}
	return fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		in := make([]byte, 64<<10)
		out := make([]byte, 0, 64<<10)
		have := 0
		for {
			n, err := conn.Read(in[have:])
			if err != nil {
				return
			}
			have += n
			off := 0
			for have-off >= 10 {
				size := 10 + int(uint32(in[off+6])<<24|uint32(in[off+7])<<16|uint32(in[off+8])<<8|uint32(in[off+9]))
				if have-off < size {
					break
				}
				at := len(out)
				if wire.Kind(in[off+1]) == wire.KindTxn {
					out = append(out, txnOK...)
					copy(out[at+2:at+6], in[off+2:off+6])
				} else {
					out = append(out, in[off:off+size]...)
					out[at+1] |= 0x80
				}
				off += size
			}
			have = copy(in, in[off:have])
			if _, err := conn.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	})
}

// TestGenerationWraps: a slot's generation is 16 bits of the tag; 10⁵
// strictly sequential requests through a one-slot window and 3·10⁵ through
// a four-slot one, four at a time, take every slot past 65 536 claims, and
// no reply is taken for a stale one or lands in the wrong future.
func TestGenerationWraps(t *testing.T) {
	for _, tc := range []struct{ window, rounds int }{{1, 100_000}, {4, 75_000}} {
		p, err := DialPipelined(echoServer(t), 5*time.Second, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		futs := make([]*Pending, tc.window)
		pings := make([]wire.Ping, tc.window)
		nonce := uint64(0)
		for r := 0; r < tc.rounds; r++ {
			for i := range futs {
				nonce++
				pings[i].Nonce = nonce
				if futs[i], err = p.Submit(&pings[i]); err != nil {
					t.Fatalf("window %d, request %d: %v", tc.window, nonce, err)
				}
			}
			for i, f := range futs {
				m, err := f.Wait()
				if err != nil {
					t.Fatalf("window %d, request %d: %v", tc.window, pings[i].Nonce, err)
				}
				if got := m.(*wire.Pong).Nonce; got != pings[i].Nonce {
					t.Fatalf("window %d: request %d resolved with the reply to %d", tc.window, pings[i].Nonce, got)
				}
			}
		}
		for i, g := range p.gens {
			if int(g) != tc.rounds&0xFFFF {
				t.Fatalf("window %d: slot %d is at generation %d after %d claims", tc.window, i, g, tc.rounds)
			}
		}
		_ = p.Close()
	}
}

// TestClientAllocsPerTxn pins what a transaction costs the client in
// allocations, against a server that makes none: the future, the decoded
// TXN_OK and its values — no channel, nothing for the request table.
func TestClientAllocsPerTxn(t *testing.T) {
	p, err := DialPipelined(echoServer(t), 5*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	steps := []wire.Message{&wire.Read{Item: 1}, &wire.Write{Item: 2, Value: 3}}
	run := func() {
		if err := p.RunTxn("T1", 0, steps); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // grow the write buffer, the TXN's ops and the runtime's own pools
		run()
	}
	if got := testing.AllocsPerRun(2000, run); got > 3 {
		t.Fatalf("a transaction costs the client %.2f allocations, want 3", got)
	}
}
