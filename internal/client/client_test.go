package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/wire"
)

// fakeServer runs script against every accepted connection and returns
// the listen address. The script talks raw frames of the one framing and
// answers each request at the tag it arrived under.
func fakeServer(t *testing.T, script func(t *testing.T, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				script(t, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// recv reads the next frame the client sent and the tag to answer it at.
// The fakes read the socket unbuffered, a frame at a time, so a script may
// hand the connection from one helper to the next.
func recv(conn net.Conn) (wire.Message, uint32, error) {
	frame := make([]byte, 10) // the header; its last four bytes are the payload length
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, 0, err
	}
	frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame[6:]))...)
	if _, err := io.ReadFull(conn, frame[10:]); err != nil {
		return nil, 0, err
	}
	m, _, tag, _, err := wire.DecodeAny(frame)
	return m, tag, err
}

// expect reads the next frame, requires its kind and returns its tag.
func expect(t *testing.T, conn net.Conn, want wire.Kind) uint32 {
	t.Helper()
	m, tag, err := recv(conn)
	if err != nil {
		t.Errorf("fake server read: %v", err)
		return 0
	}
	if m.Kind() != want {
		t.Errorf("fake server got %s, want %s", m.Kind(), want)
	}
	return tag
}

// send answers the request that arrived under tag.
func send(t *testing.T, conn net.Conn, tag uint32, m wire.Message) {
	t.Helper()
	frame, err := wire.AppendTagged(nil, wire.Version, tag, m)
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		t.Errorf("fake server write: %v", err)
	}
}

var fakeSchema = &wire.HelloOK{Set: "fake",
	Templates: []wire.TemplateInfo{{Name: "T1", Priority: 1}}}

// greet answers the client's HELLO with fakeSchema.
func greet(t *testing.T, conn net.Conn) {
	t.Helper()
	send(t, conn, expect(t, conn, wire.KindHello), fakeSchema)
}

func TestDialHandshake(t *testing.T) {
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
	})
	c, err := DialPipelined(addr, 2*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Schema().Set != "fake" || len(c.Schema().Templates) != 1 {
		t.Fatalf("schema: %+v", c.Schema())
	}
}

// TestDoRetriesOverload: a first attempt refused with the retryable
// CodeOverload is backed off, sent again and commits, whichever way the
// transaction is sent.
func TestDoRetriesOverload(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			addr, seen := loadServer(t, func(n int64) wire.ErrorCode {
				if n == 1 {
					return wire.CodeOverload
				}
				return 0
			})
			rep := runLoad(t, LoadConfig{Addr: addr, Conns: 1, Txns: 1, Pipelined: pipelined})
			if rep.Committed != 1 || rep.Retries != 1 || seen.Load() != 2 {
				t.Fatalf("committed/retries = %d/%d, server saw %d attempts; want 1/1 and 2",
					rep.Committed, rep.Retries, seen.Load())
			}
		})
	}
}

// TestDoFatalErrorNotRetried: CodeProtocol is not retryable; a closed loop
// fails the run with it after one attempt.
func TestDoFatalErrorNotRetried(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			var seen atomic.Int64 // loadServer cannot script CodeProtocol: it is code 0
			addr := replyServer(t, nil, func(wire.Message) wire.Message {
				seen.Add(1)
				return &wire.ErrMsg{Code: wire.CodeProtocol, Text: "no"}
			})
			rep, err := RunLoad(context.Background(), LoadConfig{Addr: addr, Conns: 1, Txns: 5, Pipelined: pipelined, Window: 1})
			if !wire.IsCode(err, wire.CodeProtocol) {
				t.Fatalf("err = %v, want CodeProtocol", err)
			}
			if seen.Load() != 1 || rep.Retries != 0 {
				t.Fatalf("server saw %d attempts, %d retries; want 1 and none", seen.Load(), rep.Retries)
			}
		})
	}
}

// convServer answers HELLO, then every transaction, sent as a conversation
// or whole, with success; it counts dials.
type convServer struct {
	dials atomic.Int64
}

func (cs *convServer) script(t *testing.T, conn net.Conn) {
	cs.dials.Add(1)
	greet(t, conn)
	for {
		m, tag, err := recv(conn)
		if err != nil {
			return
		}
		switch m.(type) {
		case *wire.Begin:
			send(t, conn, tag, &wire.BeginOK{ID: 1})
		case *wire.Commit:
			send(t, conn, tag, &wire.CommitOK{})
		case *wire.Txn:
			send(t, conn, tag, &wire.TxnOK{ID: 1})
		}
	}
}

// TestClientReusesConnection: a worker runs transaction after transaction
// on the connection it dialled for the first; the server accepts one
// connection for the worker and one for RunLoad's schema probe.
func TestClientReusesConnection(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			var cs convServer
			rep := runLoad(t, LoadConfig{Addr: fakeServer(t, cs.script), Conns: 1, Txns: 10, Pipelined: pipelined})
			if rep.Committed != 10 || cs.dials.Load() != 2 {
				t.Fatalf("committed %d over %d dials, want 10 over 2 (the probe and the worker's one)",
					rep.Committed, cs.dials.Load())
			}
		})
	}
}

// TestBrokenConnRedialled: a framing failure marks the worker's connection
// broken and fails its transaction, and the next transaction dials afresh
// instead of reusing it. An open loop counts the failure and goes on, so
// the run commits every other arrival.
func TestBrokenConnRedialled(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			var cs convServer
			var dials atomic.Int64
			addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
				if dials.Add(1) != 2 { // the first dial is RunLoad's schema probe
					cs.script(t, conn)
					return
				}
				greet(t, conn)
				if _, _, err := recv(conn); err == nil { // garbage for a reply: the stream is useless from here
					_, _ = conn.Write([]byte{0xBA, 0xD0})
				}
			})
			rep := runLoad(t, LoadConfig{Addr: addr, Conns: 1, Pipelined: pipelined, ArrivalRate: 1, Duration: time.Second,
				ArrivalTimes: []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}})
			if rep.Committed != 2 || rep.Failed != 1 || rep.Retries != 0 {
				t.Fatalf("committed/failed/retries = %d/%d/%d, want 2/1/0", rep.Committed, rep.Failed, rep.Retries)
			}
			if dials.Load() != 3 {
				t.Fatalf("dials = %d, want 3: the probe, the broken connection and its replacement", dials.Load())
			}
		})
	}
}

// TestWrongKindReplyKillsConnection: a reply at the right tag but of a kind
// the request cannot have is a stream desync — the step fails and the
// connection is dead.
func TestWrongKindReplyKillsConnection(t *testing.T) {
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		send(t, conn, expect(t, conn, wire.KindBegin), &wire.CommitOK{})
		_, _ = conn.Read(make([]byte, 1)) // hold the socket open until the client hangs up
	})
	c, err := DialPipelined(addr, 2*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	var remote *wire.RemoteError
	if _, err := c.Begin("T1"); err == nil || errors.As(err, &remote) {
		t.Fatalf("BEGIN answered by COMMIT_OK: %v, want a local desync error", err)
	}
	if !c.Broken() {
		t.Fatal("a reply of the wrong kind left the connection usable")
	}
	if err := c.Ping(1); err == nil {
		t.Fatal("ping on a dead connection succeeded")
	}
}

// TestDialRefusalIsTypedAndRetried: a server at its connection limit
// answers the dial with one ERR at tag 0 and closes. DialPipelined returns
// it as the *wire.RemoteError it is, and the worker — for which a refused
// dial is a failed attempt like any other — backs off and dials again.
func TestDialRefusalIsTypedAndRetried(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			var cs convServer
			var dials atomic.Int64
			addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
				// The first dial is this test's own, the second RunLoad's
				// schema probe, the third the worker's first.
				if n := dials.Add(1); n == 1 || n == 3 {
					send(t, conn, 0, &wire.ErrMsg{Code: wire.CodeOverload, Text: "connection limit 1 reached; retry later"})
					return
				}
				cs.script(t, conn)
			})
			if _, err := DialPipelined(addr, 2*time.Second, 0); !wire.IsCode(err, wire.CodeOverload) {
				t.Fatalf("dial at the connection limit: %v, want CodeOverload", err)
			}
			rep := runLoad(t, LoadConfig{Addr: addr, Conns: 1, Txns: 1, Pipelined: pipelined})
			if rep.Committed != 1 || rep.Retries != 1 || cs.dials.Load() != 2 {
				t.Fatalf("committed/retries = %d/%d, accepted dials = %d, want 1/1 and 2 (the probe and the redial)",
					rep.Committed, rep.Retries, cs.dials.Load())
			}
		})
	}
}
