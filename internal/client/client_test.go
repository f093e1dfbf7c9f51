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
	c, err := Dial(addr, 2*time.Second)
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
	pool := NewPool(addr, 2*time.Second, 2)
	defer pool.Close()
	cl := NewClient(pool, 1)
	var retries atomic.Int64
	cl.Retries = &retries
	if err := cl.Do("T1", func(c *Conn) error { return nil }); err != nil {
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
	pool := NewPool(addr, 2*time.Second, 2)
	defer pool.Close()
	cl := NewClient(pool, 1)
	err := cl.Do("T1", func(c *Conn) error { return nil })
	if !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("err = %v", err)
	}
	if begins != 1 {
		t.Fatalf("begins = %d, want 1 (no retry)", begins)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	dials := 0
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		dials++
		greet(t, conn)
		for {
			m, tag, err := recv(conn)
			if err != nil {
				return
			}
			if p, ok := m.(*wire.Ping); ok {
				send(t, conn, tag, &wire.Pong{Nonce: p.Nonce})
			}
		}
	})
	pool := NewPool(addr, 2*time.Second, 2)
	defer pool.Close()
	c1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(1); err != nil {
		t.Fatal(err)
	}
	pool.Put(c1)
	c2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("pool did not reuse the idle connection")
	}
	pool.Put(c2)
	if dials != 1 {
		t.Fatalf("dials = %d, want 1", dials)
	}
}

func TestBrokenConnNotPooled(t *testing.T) {
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		// Answer the first request with garbage, breaking the stream.
		if _, _, err := recv(conn); err == nil {
			_, _ = conn.Write([]byte{0xBA, 0xD0})
		}
	})
	pool := NewPool(addr, 2*time.Second, 2)
	defer pool.Close()
	c, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(1); err == nil {
		t.Fatal("ping over a corrupted stream succeeded")
	}
	if !c.Broken() {
		t.Fatal("framing failure did not mark the conn broken")
	}
	pool.Put(c)
	c2, err := pool.Get()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("get after broken put: %v", err)
	}
	if c2 == c {
		t.Fatal("pool handed back a broken connection")
	}
	if c2 != nil {
		pool.Put(c2)
	}
}
