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

// roundReplies consumes the three TXN frames of one round and returns the
// replies to them encoded back to back — a TXN_OK carrying two values, a
// TXN_OK carrying none, an ERR — or nil once the client has hung up.
func roundReplies(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	var out []byte
	for i, reply := range []wire.Message{
		&wire.TxnOK{ID: 1, Reads: []int64{-7, 1 << 40}},
		&wire.TxnOK{ID: 2},
		&wire.ErrMsg{Code: wire.CodeAborted, Text: "WRITE: sacrificed"},
	} {
		m, tag, err := recv(conn)
		if err != nil {
			if err != io.EOF || i != 0 {
				t.Errorf("fake server read: %v", err)
			}
			return nil
		}
		if m.Kind() != wire.KindTxn {
			t.Errorf("fake server got %s, want TXN", m.Kind())
			return nil
		}
		if out, err = wire.AppendTagged(out, wire.Version, tag, reply); err != nil {
			t.Errorf("fake server encode: %v", err)
			return nil
		}
	}
	return out
}

// TestPipelinedRepliesSplitEverywhere: the replies to round after round of
// three transactions reach the client a byte at a time, then cut in two at
// every offset; every transaction gets its own outcome and values.
func TestPipelinedRepliesSplitEverywhere(t *testing.T) {
	const replyLen = (10 + 8 + 2 + 16) + (10 + 8 + 2) + (10 + 1 + 2 + 17)
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		for round := 0; ; round++ {
			replies := roundReplies(t, conn)
			if replies == nil {
				return
			}
			if len(replies) != replyLen {
				t.Errorf("a round's replies are %d bytes, test assumes %d", len(replies), replyLen)
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
	steps := []wire.Message{&wire.Read{Item: 1}, &wire.Write{Item: 2, Value: 3}, &wire.Read{Item: 2}}
	for round := 0; round <= replyLen+1; round++ {
		var futs [3]*TxnFuture
		for i := range futs {
			if futs[i], err = p.SubmitTxn("T1", 0, steps); err != nil {
				t.Fatal(err)
			}
		}
		errs := [3]error{futs[0].Wait(), futs[1].Wait(), futs[2].Wait()}
		if errs[0] != nil || errs[1] != nil || !wire.IsCode(errs[2], wire.CodeAborted) {
			t.Fatalf("round %d (0: bytewise, then split at round-1): outcomes %v", round, errs)
		}
		if got := futs[0].Reads(); !reflect.DeepEqual(got, []int64{-7, 1 << 40}) || len(futs[1].Reads()) != 0 {
			t.Fatalf("round %d: values %v and %v, want [-7 1<<40] and none", round, got, futs[1].Reads())
		}
	}
}

// TestHandshakeSegmentCarriesMore: the server's HELLO_OK arrives in one
// write together with the next frame (a terminal ERR at tag 0, the one
// frame a server sends unasked) — once as a small schema, so both frames land in
// the reader's buffer during the handshake, and once as a schema near
// MaxPayload, far larger than that buffer. The schema round-trips, and the
// trailing frame is the pipelined connection's first read rather than
// being stranded in the handshake's reader until a timeout.
func TestHandshakeSegmentCarriesMore(t *testing.T) {
	big := &wire.HelloOK{Set: "big"}
	name := strings.Repeat("n", wire.MaxString)
	for i := 0; i < 250; i++ {
		big.Templates = append(big.Templates, wire.TemplateInfo{Name: name, Priority: int32(i)})
	}
	for _, schema := range []*wire.HelloOK{fakeSchema, big} {
		addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
			tag := expect(t, conn, wire.KindHello)
			seg, err := wire.AppendTagged(nil, wire.Version, tag, schema)
			if err == nil {
				seg, err = wire.AppendTagged(seg, wire.Version, 0, &wire.ErrMsg{Code: wire.CodeDraining, Text: "server draining"})
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
