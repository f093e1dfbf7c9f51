package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"pcpda/internal/metrics"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// A session reads its connection through one buffered reader from the
// first byte on. These tests hand it a handshake plus a whole pipelined
// transaction in every possible pair of pieces (over net.Pipe, where each
// write is exactly one read on the other side) and require the same
// replies and an exact BytesIn.

// pipeSession attaches the server to one end of an in-memory connection
// and returns the other.
func pipeSession(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	cli, sv := net.Pipe()
	srv.startSession(sv)
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// updaterBurst is HELLO followed by one tagged "updater" transaction, and
// the reply kinds it must draw.
func updaterBurst(t *testing.T, mgr *rtm.Manager) ([]byte, []wire.Kind) {
	t.Helper()
	set := mgr.Set()
	burst, err := wire.AppendFrame(nil, &wire.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []wire.Message{
		&wire.Begin{Name: "updater"},
		&wire.Write{Item: item(t, set, "x"), Value: 1},
		&wire.Write{Item: item(t, set, "y"), Value: 2},
		&wire.Commit{},
	} {
		if burst, err = wire.AppendTagged(burst, wire.Version, uint32(i), m); err != nil {
			t.Fatal(err)
		}
	}
	return burst, []wire.Kind{wire.KindHelloOK, wire.KindBeginOK, wire.KindWriteOK, wire.KindWriteOK, wire.KindCommitOK}
}

// exchange writes chunks to the session one write each and reads the
// replies; it returns once every expected reply has arrived.
func exchange(t *testing.T, cli net.Conn, chunks [][]byte, want []wire.Kind) {
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
	br := bufio.NewReader(cli)
	for i, k := range want {
		m, _, _, _, err := wire.ReadAny(br, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if m.Kind() != k {
			t.Fatalf("reply %d: %s, want %s (%+v)", i, m.Kind(), k, m)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write: %v", err)
	}
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
	if got := mgr.Stats().Commits; got != len(burst)+2 {
		t.Fatalf("commits = %d, want %d", got, len(burst)+2)
	}
}

// A segment larger than the reader's buffer, with a near-buffer-sized frame
// (a BEGIN naming a 4000-byte template) straddling the buffer's end: every
// frame is answered in order and none is lost or misread. (No frame a
// client may send after HELLO is larger than the buffer on its own; the
// wire and client tests cover that with a schema reply.)
func TestSessionSegmentLargerThanBuffer(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	ctr := &metrics.ServerCounters{}
	_, srv := startServer(t, mgr, Config{Counters: ctr})
	burst, want := updaterBurst(t, mgr)
	hello, err := wire.AppendFrame(nil, &wire.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	seg := append([]byte(nil), hello...)
	kinds := []wire.Kind{wire.KindHelloOK}
	for i := 0; i < 10; i++ {
		if seg, err = wire.AppendTagged(seg, wire.Version, uint32(100+i), &wire.Read{}); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, wire.KindErr) // READ outside a transaction
	}
	seg, err = wire.AppendTagged(seg, wire.Version, 77, &wire.Begin{Name: strings.Repeat("n", 4000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) <= 4096 {
		t.Fatalf("oversized BEGIN ends at %d, inside the buffer", len(seg))
	}
	seg = append(seg, burst[len(hello):]...)
	kinds = append(append(kinds, wire.KindErr), want[1:]...)

	cli := pipeSession(t, srv)
	exchange(t, cli, [][]byte{seg}, kinds)
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
		for i, k := range want {
			m, _, _, _, err := wire.ReadAny(br, nil)
			if err == nil && m.Kind() != k {
				err = fmt.Errorf("got %s, want %s", m.Kind(), k)
			}
			if err != nil {
				replies <- fmt.Errorf("reply %d: %w", i, err)
				return
			}
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
