package client

import (
	"encoding/binary"
	"errors"
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

// TestDoRetriesOverload: the first BEGIN is refused with the retryable
// CodeOverload; Do must back off and succeed on the second attempt.
func TestDoRetriesOverload(t *testing.T) {
	begins := 0
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		for {
			m, tag, err := recv(conn)
			if err != nil {
				return
			}
			switch m.(type) {
			case *wire.Begin:
				begins++
				if begins == 1 {
					send(t, conn, tag, &wire.ErrMsg{Code: wire.CodeOverload, Text: "full"})
				} else {
					send(t, conn, tag, &wire.BeginOK{ID: 9})
				}
			case *wire.Commit:
				send(t, conn, tag, &wire.CommitOK{})
			default:
				t.Errorf("fake server: unexpected %s", m.Kind())
				return
			}
		}
	})
	cl := NewPipeClient(addr, 2*time.Second, 0, 1)
	defer cl.Close()
	var retries atomic.Int64
	cl.Retries = &retries
	if err := cl.Do("T1", func(c *PipeConn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if begins != 2 || retries.Load() != 1 {
		t.Fatalf("begins = %d, retries = %d", begins, retries.Load())
	}
}

// TestDoFatalErrorNotRetried: CodeProtocol is not retryable; Do returns it
// after one attempt.
func TestDoFatalErrorNotRetried(t *testing.T) {
	begins := 0
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		for {
			_, tag, err := recv(conn)
			if err != nil {
				return
			}
			begins++
			send(t, conn, tag, &wire.ErrMsg{Code: wire.CodeProtocol, Text: "no"})
		}
	})
	cl := NewPipeClient(addr, 2*time.Second, 0, 1)
	defer cl.Close()
	err := cl.Do("T1", func(c *PipeConn) error { return nil })
	if !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("err = %v", err)
	}
	if begins != 1 {
		t.Fatalf("begins = %d, want 1 (no retry)", begins)
	}
}

// convServer answers HELLO, then every step of a conversation with its
// success reply unless refuse has an ERR for it; it counts dials and
// the ABORT frames it is sent.
type convServer struct {
	dials, aborts atomic.Int64
	refuse        func(m wire.Message) *wire.ErrMsg
}

func (cs *convServer) script(t *testing.T, conn net.Conn) {
	cs.dials.Add(1)
	greet(t, conn)
	for {
		m, tag, err := recv(conn)
		if err != nil {
			return
		}
		if cs.refuse != nil {
			if e := cs.refuse(m); e != nil {
				send(t, conn, tag, e)
				continue
			}
		}
		switch m := m.(type) {
		case *wire.Begin:
			send(t, conn, tag, &wire.BeginOK{ID: 1})
		case *wire.Read:
			send(t, conn, tag, &wire.ReadOK{Value: 7})
		case *wire.Write:
			send(t, conn, tag, &wire.WriteOK{})
		case *wire.Commit:
			send(t, conn, tag, &wire.CommitOK{})
		case *wire.Abort:
			cs.aborts.Add(1)
			send(t, conn, tag, &wire.AbortOK{})
		case *wire.Ping:
			send(t, conn, tag, &wire.Pong{Nonce: m.Nonce})
		}
	}
}

// TestClientReusesConnection: conversations run back to back over one
// PipeClient share the connection its first attempt dialled.
func TestClientReusesConnection(t *testing.T) {
	var cs convServer
	cl := NewPipeClient(fakeServer(t, cs.script), 2*time.Second, 0, 1)
	defer cl.Close()
	var conns [2]*PipeConn
	for i := range conns {
		if err := cl.Do("T1", func(c *PipeConn) error { conns[i] = c; return c.Ping(uint64(i)) }); err != nil {
			t.Fatal(err)
		}
	}
	if conns[0] != conns[1] || cs.dials.Load() != 1 {
		t.Fatalf("second conversation ran on a new connection (%d dials)", cs.dials.Load())
	}
}

// TestBrokenConnRedialled: a framing failure marks the connection broken,
// ends the attempt with a non-retryable error, and the client's next
// transaction dials afresh instead of reusing it.
func TestBrokenConnRedialled(t *testing.T) {
	var dials atomic.Int64
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		first := dials.Add(1) == 1
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
			case *wire.Ping:
				if first { // garbage for a reply: the stream is useless from here
					_, _ = conn.Write([]byte{0xBA, 0xD0})
					return
				}
				send(t, conn, tag, &wire.Pong{Nonce: 1})
			}
		}
	})
	cl := NewPipeClient(addr, 2*time.Second, 0, 1)
	defer cl.Close()
	var broken *PipeConn
	if err := cl.Do("T1", func(c *PipeConn) error { broken = c; return c.Ping(1) }); err == nil {
		t.Fatal("ping over a corrupted stream succeeded")
	}
	if !broken.Broken() {
		t.Fatal("framing failure did not mark the conn broken")
	}
	if err := cl.Do("T1", func(c *PipeConn) error {
		if c == broken {
			t.Error("client handed back a broken connection")
		}
		return c.Ping(1)
	}); err != nil {
		t.Fatalf("transaction after a broken connection: %v", err)
	}
	if dials.Load() != 2 {
		t.Fatalf("dials = %d, want 2", dials.Load())
	}
}

// TestDoAbortsOnlyItsOwnFailures: the server ends the transaction on every
// ERR reply, so Do sends no compensating ABORT after one; a failure of fn's
// own leaves the transaction live, and Do sends exactly one.
func TestDoAbortsOnlyItsOwnFailures(t *testing.T) {
	cs := convServer{refuse: func(m wire.Message) *wire.ErrMsg {
		if _, isRead := m.(*wire.Read); isRead {
			return &wire.ErrMsg{Code: wire.CodeProtocol, Text: "undeclared item"}
		}
		return nil
	}}
	cl := NewPipeClient(fakeServer(t, cs.script), 2*time.Second, 0, 1)
	defer cl.Close()
	err := cl.Do("T1", func(c *PipeConn) error { _, err := c.Read(1); return err })
	if !wire.IsCode(err, wire.CodeProtocol) || cs.aborts.Load() != 0 {
		t.Fatalf("after an ERR reply: err = %v, %d ABORTs sent, want CodeProtocol and none", err, cs.aborts.Load())
	}
	own := errors.New("application says no")
	err = cl.Do("T1", func(c *PipeConn) error {
		if err := c.Write(1, 2); err != nil {
			return err
		}
		return own
	})
	if !errors.Is(err, own) || cs.aborts.Load() != 1 {
		t.Fatalf("after fn's own failure: err = %v, %d ABORTs sent, want fn's error and one", err, cs.aborts.Load())
	}
	if cs.dials.Load() != 1 {
		t.Fatalf("dials = %d: neither failure breaks the connection", cs.dials.Load())
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
// it as the *wire.RemoteError it is, and Do — for which a refused dial is a
// failed attempt like any other — backs off and dials again.
func TestDialRefusalIsTypedAndRetried(t *testing.T) {
	var cs convServer
	var refused atomic.Int64
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		if refused.Add(1) <= 2 {
			send(t, conn, 0, &wire.ErrMsg{Code: wire.CodeOverload, Text: "connection limit 1 reached; retry later"})
			return
		}
		cs.script(t, conn)
	})
	if _, err := DialPipelined(addr, 2*time.Second, 0); !wire.IsCode(err, wire.CodeOverload) {
		t.Fatalf("dial at the connection limit: %v, want CodeOverload", err)
	}
	cl := NewPipeClient(addr, 2*time.Second, 0, 1)
	defer cl.Close()
	var retries atomic.Int64
	cl.Retries = &retries
	if err := cl.Do("T1", func(c *PipeConn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if retries.Load() != 1 || cs.dials.Load() != 1 {
		t.Fatalf("retries = %d, accepted dials = %d, want 1 and 1", retries.Load(), cs.dials.Load())
	}
}
