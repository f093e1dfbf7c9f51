package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"pcpda/internal/metrics"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// A session reads its connection through one buffered reader from the
// first byte on. These tests hand it a handshake plus three pipelined
// transactions — two whole ones, one a step at a time — in every possible
// pair of pieces (over net.Pipe, where each write is exactly one read on
// the other side) and require the same replies and an exact BytesIn.

// pipeSession attaches the server to one end of an in-memory connection
// and returns the other.
func pipeSession(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	cli, sv := net.Pipe()
	srv.startSession(sv)
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// updaterBurst is HELLO followed by an "updater" TXN writing x and y, a
// "reader" TXN reading them back, and a "zonly" transaction driven a step
// at a time; and the replies it must draw.
func updaterBurst(t *testing.T, mgr *rtm.Manager) ([]byte, []wire.Message) {
	t.Helper()
	set := mgr.Set()
	x, y, z := item(t, set, "x"), item(t, set, "y"), item(t, set, "z")
	var burst []byte
	var err error
	for i, m := range []wire.Message{
		&wire.Hello{},
		&wire.Txn{Name: "updater", Ops: []wire.TxnOp{{Op: wire.OpWrite, Item: x, Value: 1}, {Op: wire.OpWrite, Item: y, Value: 2}}},
		&wire.Txn{Name: "reader", Ops: []wire.TxnOp{{Op: wire.OpRead, Item: y}, {Op: wire.OpRead, Item: x}}},
		&wire.Begin{Name: "zonly"},
		&wire.Write{Item: z, Value: 3},
		&wire.Commit{},
	} {
		if burst, err = wire.AppendTagged(burst, wire.Version, uint32(i), m); err != nil {
			t.Fatal(err)
		}
	}
	return burst, []wire.Message{schemaOf(set), &wire.TxnOK{}, &wire.TxnOK{Reads: []int64{2, 1}},
		&wire.BeginOK{}, &wire.WriteOK{}, &wire.CommitOK{}}
}

// exchange writes chunks to the session one write each and reads the
// replies, which must come tagged 0, 1, 2, … and equal want but for the
// ids the manager assigns; it returns once every expected reply has
// arrived.
func exchange(t *testing.T, cli net.Conn, chunks [][]byte, want []wire.Message) {
	t.Helper()
	wrote := make(chan error, 1)
	go func() {
		for _, c := range chunks {
			if len(c) == 0 {
				continue
			}
			if _, err := cli.Write(c); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()
	if err := readReplies(bufio.NewReader(cli), want); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write: %v", err)
	}
}

// readReplies reads len(want) replies off br and compares them as exchange
// describes. A nil entry in want accepts any ERR.
func readReplies(br *bufio.Reader, want []wire.Message) error {
	for i, w := range want {
		m, _, tag, _, err := wire.ReadAny(br, nil)
		if err != nil {
			return fmt.Errorf("reply %d: %w", i, err)
		}
		switch m := m.(type) {
		case *wire.TxnOK:
			m.ID = 0
		case *wire.BeginOK:
			m.ID = 0
		case *wire.ErrMsg:
			if w == nil {
				w = m
			}
		}
		if tag != uint32(i) || !reflect.DeepEqual(m, w) {
			return fmt.Errorf("reply %d: %s tagged %d (%+v), want %+v", i, m.Kind(), tag, m, w)
		}
	}
	return nil
}

func TestSessionReadsSplitBursts(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	ctr := &metrics.ServerCounters{}
	_, srv := startServer(t, mgr, Config{Counters: ctr})
	burst, want := updaterBurst(t, mgr)

	run := func(name string, chunks [][]byte) {
		before := ctr.BytesIn.Load()
		cli := pipeSession(t, srv)
		exchange(t, cli, chunks, want)
		if got := ctr.BytesIn.Load() - before; got != int64(len(burst)) {
			t.Fatalf("%s: BytesIn grew by %d, peer wrote %d", name, got, len(burst))
		}
		_ = cli.Close()
	}
	bytewise := make([][]byte, len(burst))
	for i := range burst {
		bytewise[i] = burst[i : i+1]
	}
	run("one byte at a time", bytewise)
	for k := 0; k <= len(burst); k++ {
		run("split", [][]byte{burst[:k], burst[k:]})
	}
	if got, want := mgr.Stats().Commits, 3*(len(burst)+2); got != want {
		t.Fatalf("commits = %d, want %d: three a run", got, want)
	}
}

// A segment larger than the reader's buffer, with a near-buffer-sized frame
// (a TXN naming a 4000-byte template) straddling the buffer's end: every
// frame is answered in order and none is lost or misread. (No frame a
// client may send after HELLO is larger than the buffer on its own; the
// wire and client tests cover that with a schema reply.)
func TestSessionSegmentLargerThanBuffer(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	ctr := &metrics.ServerCounters{}
	_, srv := startServer(t, mgr, Config{Counters: ctr})
	burst, want := updaterBurst(t, mgr)
	// The burst's own frames are tagged 0–5; the frames pushed in between
	// HELLO and the rest take over 1–11 and move the rest up.
	_, _, _, afterHello, err := wire.DecodeAny(burst)
	if err != nil {
		t.Fatal(err)
	}
	seg := append([]byte(nil), burst[:len(burst)-len(afterHello)]...)
	replies := []wire.Message{want[0]}
	for i := 1; i <= 10; i++ {
		if seg, err = wire.AppendTagged(seg, wire.Version, uint32(i), &wire.Read{}); err != nil {
			t.Fatal(err)
		}
		replies = append(replies, nil) // READ outside a transaction
	}
	seg, err = wire.AppendTagged(seg, wire.Version, 11, &wire.Txn{Name: strings.Repeat("n", 4000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) <= 4096 {
		t.Fatalf("oversized TXN ends at %d, inside the buffer", len(seg))
	}
	replies = append(replies, nil) // unknown transaction type
	for rest := afterHello; len(rest) > 0; {
		m, _, _, r, err := wire.DecodeAny(rest)
		if err != nil {
			t.Fatal(err)
		}
		if seg, err = wire.AppendTagged(seg, wire.Version, uint32(len(replies)), m); err != nil {
			t.Fatal(err)
		}
		replies, rest = append(replies, want[len(replies)-11]), r
	}

	cli := pipeSession(t, srv)
	exchange(t, cli, [][]byte{seg}, replies)
	if got := ctr.BytesIn.Load(); got != int64(len(seg)) {
		t.Fatalf("BytesIn = %d, peer wrote %d", got, len(seg))
	}
}

// The idle deadline is re-armed before every read on the socket, not per
// frame: a peer that keeps bytes coming — however slowly they add up to
// frames — stays connected past IdleTimeout, and a silent one is dropped.
func TestIdleTimeoutPerRead(t *testing.T) {
	const idle = 300 * time.Millisecond
	mgr, _ := rtm.New(testSet(t))
	addr, _ := startServer(t, mgr, Config{IdleTimeout: idle})
	burst, want := updaterBurst(t, mgr)

	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	// Ten pieces 50 ms apart: the burst takes longer than IdleTimeout.
	var chunks [][]byte
	for i := 0; i < 10; i++ {
		chunks = append(chunks, burst[i*len(burst)/10:(i+1)*len(burst)/10])
	}
	start := time.Now()
	replies := make(chan error, 1)
	go func() {
		br := bufio.NewReader(cli)
		if err := readReplies(br, want); err != nil {
			replies <- err
			return
		}
		// Silence: the next thing the socket delivers is the server hanging up.
		_ = cli.SetReadDeadline(time.Now().Add(10 * idle))
		_, err := br.ReadByte()
		replies <- err
	}()
	for _, c := range chunks {
		time.Sleep(50 * time.Millisecond)
		if _, err := cli.Write(c); err != nil {
			t.Fatalf("write mid-burst: %v", err)
		}
	}
	if took := time.Since(start); took < idle {
		t.Fatalf("burst took %v, want longer than the %v idle timeout", took, idle)
	}
	quiet := time.Now()
	if err := <-replies; !errors.Is(err, io.EOF) {
		t.Fatalf("silent connection: read ended with %v, want EOF from the server's idle timeout", err)
	}
	if waited := time.Since(quiet); waited < idle/2 {
		t.Fatalf("server hung up %v after the last byte, want about %v", waited, idle)
	}
}
