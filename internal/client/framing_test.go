package client

import (
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"pcpda/internal/wire"
)

// The client reads a connection through one buffered reader from the
// handshake on; a pipelined connection's demux takes that same reader
// over. These tests make the server's bytes arrive in awkward pieces.

// burstReplies consumes one tagged transaction burst (BEGIN .. COMMIT) and
// returns the reply frames for it, encoded back to back; nil once the
// client has hung up.
func burstReplies(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	var out, scratch []byte
	for {
		m, ver, tag, sc, err := wire.ReadAny(conn, scratch)
		if err != nil {
			if err != io.EOF {
				t.Errorf("fake server read: %v", err)
			}
			return nil
		}
		scratch = sc
		var reply wire.Message
		switch m.(type) {
		case *wire.Begin:
			reply = &wire.BeginOK{ID: 1}
		case *wire.Write:
			reply = &wire.WriteOK{}
		case *wire.Commit:
			reply = &wire.CommitOK{}
		default:
			t.Errorf("fake server got %s inside a burst", m.Kind())
			return nil
		}
		if out, err = wire.AppendTagged(out, ver, tag, reply); err != nil {
			t.Errorf("fake server encode: %v", err)
			return nil
		}
		if _, done := m.(*wire.Commit); done {
			return out
		}
	}
}

// TestPipelinedRepliesSplitEverywhere: the replies to burst after burst
// reach the client a byte at a time, then cut in two at every offset;
// every burst resolves.
func TestPipelinedRepliesSplitEverywhere(t *testing.T) {
	steps := []wire.Message{&wire.Write{Item: 1, Value: 2}, &wire.Write{Item: 2, Value: 3}}
	const replyLen = 18 + 10 + 10 + 10 // BEGIN_OK carries an id, the rest are bare tagged headers
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		expect(t, conn, wire.KindHello)
		send(t, conn, fakeSchema)
		for round := 0; ; round++ {
			replies := burstReplies(t, conn)
			if replies == nil {
				return
			}
			if len(replies) != replyLen {
				t.Errorf("reply burst is %d bytes, test assumes %d", len(replies), replyLen)
				return
			}
			var pieces [][]byte
			if round == 0 {
				for i := range replies {
					pieces = append(pieces, replies[i:i+1])
				}
			} else {
				pieces = [][]byte{replies[:round-1], replies[round-1:]}
			}
			for _, b := range pieces {
				if len(b) == 0 {
					continue
				}
				if _, err := conn.Write(b); err != nil {
					t.Errorf("fake server write: %v", err)
					return
				}
				time.Sleep(200 * time.Microsecond) // let the piece leave as its own segment
			}
		}
	})
	p, err := DialPipelined(addr, 2*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	for round := 0; round <= replyLen+1; round++ {
		if err := p.RunTxn("T1", 0, steps); err != nil {
			t.Fatalf("round %d (0: bytewise, then split at round-1): %v", round, err)
		}
	}
}

// TestHandshakeSegmentCarriesMore: the server's HELLO_OK arrives in one
// write together with the next frame (a terminal ERR, the one frame a
// server sends unasked) — once as a small schema, so both frames land in
// the reader's buffer during the handshake, and once as a schema near
// MaxPayload, far larger than that buffer. The schema round-trips, and the
// trailing frame is the pipelined connection's first read rather than
// being stranded in the handshake's reader until a timeout.
func TestHandshakeSegmentCarriesMore(t *testing.T) {
	big := &wire.HelloOK{Proto: wire.Version, Set: "big"}
	name := strings.Repeat("n", wire.MaxString)
	for i := 0; i < 250; i++ {
		big.Templates = append(big.Templates, wire.TemplateInfo{Name: name, Priority: int32(i)})
	}
	for _, schema := range []*wire.HelloOK{fakeSchema, big} {
		addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
			expect(t, conn, wire.KindHello)
			seg, err := wire.AppendFrame(nil, schema)
			if err == nil {
				seg, err = wire.AppendFrame(seg, &wire.ErrMsg{Code: wire.CodeDraining, Text: "server draining"})
			}
			if err != nil {
				t.Errorf("fake server encode: %v", err)
				return
			}
			if _, err := conn.Write(seg); err != nil {
				t.Errorf("fake server write: %v", err)
			}
			_, _ = conn.Read(make([]byte, 1)) // hold the socket open until the client hangs up
		})
		const timeout = 5 * time.Second
		p, err := DialPipelined(addr, timeout, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Schema(), schema) {
			t.Fatalf("schema %q (%d templates) did not round-trip", schema.Set, len(schema.Templates))
		}
		select {
		case <-p.done:
		case <-time.After(timeout / 2):
			t.Fatalf("schema %q: the frame behind HELLO_OK never reached the pipelined reader", schema.Set)
		}
		if err := p.RunTxn("T1", 0, nil); !wire.IsCode(err, wire.CodeDraining) {
			t.Fatalf("schema %q: %v, want the server's CodeDraining", schema.Set, err)
		}
		_ = p.Close()
	}
}
