package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// Both ends of the wire read frames through one bufio.Reader per
// connection, so a frame's bytes reach ReadAny in whatever pieces the
// transport delivered them: these tests cut a burst at every possible
// place and require the same decode.

type decoded struct {
	m   Message
	ver uint8
	tag uint32
}

// burstFrames is what a server's reader sees from a fresh connection —
// the handshake, a whole transaction in one frame, a transaction a step at
// a time, a probe — followed by the replies a client's reader sees, TXN_OK
// with and without values among them.
func burstFrames(t *testing.T) ([]byte, []decoded) {
	t.Helper()
	want := []decoded{
		{&Hello{}, Version, 0},
		{&Txn{Name: "T1", Deadline: 2, Ops: []TxnOp{
			{Op: OpRead, Item: 3}, {Op: OpWrite, Item: 4, Value: -9}, {Op: OpRead, Item: 5},
		}}, Version, 1},
		{&Txn{ReadOnly: true, Ops: []TxnOp{{Op: OpRead, Item: 3}}}, Version, 2},
		{&Begin{Name: "T1", Deadline: 2}, Version, 7},
		{&Read{Item: 3}, Version, 8},
		{&Write{Item: 4, Value: -9}, Version, 9},
		{&Commit{}, Version, 10},
		{&Ping{Nonce: 99}, Version, 11},
		{&TxnOK{ID: 5, Reads: []int64{7, -8}}, Version, 1},
		{&TxnOK{ID: 1<<63 | 6, Reads: []int64{7}}, Version, 2},
		{&TxnOK{ID: 7}, Version, 3},
		{&ErrMsg{Code: CodeAborted, Text: "WRITE: sacrificed"}, Version, 4},
	}
	var stream []byte
	var err error
	for _, d := range want {
		if stream, err = AppendTagged(stream, d.ver, d.tag, d.m); err != nil {
			t.Fatal(err)
		}
	}
	return stream, want
}

// readAll decodes frames from r through a default-size bufio.Reader until
// the stream ends.
func readAll(r io.Reader) ([]decoded, error) {
	br := bufio.NewReader(r)
	var out []decoded
	var scratch []byte
	for {
		m, ver, tag, sc, err := ReadAny(br, scratch)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		scratch = sc
		out = append(out, decoded{m, ver, tag})
	}
}

func TestBufferedReadSplitEverywhere(t *testing.T) {
	stream, want := burstFrames(t)
	got, err := readAll(iotest.OneByteReader(bytes.NewReader(stream)))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("one byte at a time: %d frames, err %v", len(got), err)
	}
	for k := 0; k <= len(stream); k++ {
		r := io.MultiReader(bytes.NewReader(stream[:k]), bytes.NewReader(stream[k:]))
		got, err := readAll(r)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %d: %d frames, err %v", k, len(got), err)
		}
	}
}

// A stream that ends anywhere but on a frame boundary is malformed, and
// every frame before the cut still decodes: buffering must not turn a
// truncation into a clean EOF or swallow a complete frame.
func TestBufferedReadTruncatedEverywhere(t *testing.T) {
	stream, want := burstFrames(t)
	boundary := map[int]int{0: 0} // offset → frames complete at it
	rest := stream
	for i := 0; len(rest) > 0; i++ {
		_, _, _, r, err := DecodeAny(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = r
		boundary[len(stream)-len(rest)] = i + 1
	}
	complete := 0
	for k := 0; k <= len(stream); k++ {
		n, clean := boundary[k]
		if clean {
			complete = n
		}
		got, err := readAll(bytes.NewReader(stream[:k]))
		if len(got) != complete || (complete > 0 && !reflect.DeepEqual(got, want[:complete])) {
			t.Fatalf("cut at %d: decoded %d frames, want %d", k, len(got), complete)
		}
		if clean && err != nil {
			t.Fatalf("cut at frame boundary %d: %v", k, err)
		}
		if !clean && !errors.Is(err, ErrMalformed) {
			t.Fatalf("cut at %d: err = %v, want ErrMalformed", k, err)
		}
	}
}

// A frame far larger than the reader's buffer — a schema reply near
// MaxPayload — passes through between two small frames, whether the caller
// keeps the grown scratch or (as a session does past its retention cap)
// drops it; a declared payload beyond MaxPayload is still refused from the
// header alone.
func TestBufferedReadLargeFrame(t *testing.T) {
	big := &HelloOK{Set: "big"}
	name := strings.Repeat("n", MaxString)
	for i := 0; i < 250; i++ {
		big.Templates = append(big.Templates, TemplateInfo{Name: name, Priority: int32(i)})
	}
	var stream []byte
	var err error
	for _, m := range []Message{&Pong{Nonce: 1}, big, &Pong{Nonce: 2}} {
		if stream, err = AppendTagged(stream, Version, 5, m); err != nil {
			t.Fatal(err)
		}
	}
	if len(stream) < MaxPayload*9/10 {
		t.Fatalf("schema frame only %d bytes; want near MaxPayload", len(stream))
	}
	for _, release := range []bool{false, true} {
		br := bufio.NewReader(iotest.HalfReader(bytes.NewReader(stream)))
		var scratch []byte
		for i, want := range []Message{&Pong{Nonce: 1}, big, &Pong{Nonce: 2}} {
			m, _, _, sc, err := ReadAny(br, scratch)
			if err != nil {
				t.Fatalf("release=%v frame %d: %v", release, i, err)
			}
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("release=%v frame %d: got %s", release, i, m.Kind())
			}
			scratch = sc
			if release && cap(scratch) > 64<<10 {
				scratch = nil
			}
		}
		if br.Buffered() != 0 {
			t.Fatalf("release=%v: %d bytes left in the reader", release, br.Buffered())
		}
	}

	over := []byte{Version, byte(KindHelloOK), 0, 0, 0, 5, 0, 0x10, 0, 1} // plen = MaxPayload+1
	if _, _, _, _, err := ReadAny(bufio.NewReader(bytes.NewReader(over)), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized declared payload: err = %v, want ErrTooLarge", err)
	}
}

// ReadAny decodes out of the reader's buffer, which the next fill slides and
// overwrites: a message it returned must own every byte it shows. Each
// message here is held while the next three frames pass through the same
// 4 KiB buffer — a byte at a time, so that every fill moves the buffer's
// contents — and must then still encode to the bytes it came from.
func TestReadAnyMessagesDoNotAliasTheBuffer(t *testing.T) {
	msgs := []Message{
		&Txn{Name: "transfer", Deadline: 9, Ops: []TxnOp{{Op: OpRead, Item: 1}, {Op: OpWrite, Item: 2, Value: -3}}},
		&TxnOK{ID: 11, Reads: []int64{1, -2, 3}},
		&ErrMsg{Code: CodeAborted, Text: "COMMIT: sacrificed to a cycle"},
		&HelloOK{Set: "bank", Templates: []TemplateInfo{{Name: "audit", Priority: 2, Steps: []StepInfo{{Op: OpRead, Item: 4, Dur: 1}}}}},
		&Begin{Name: "audit", ReadOnly: true},
	}
	const rounds = 40 // ~2.5 KiB a round: the stream laps the buffer many times
	var stream []byte
	var frames [][]byte
	for i := 0; i < rounds*len(msgs); i++ {
		start := len(stream)
		var err error
		if stream, err = AppendTagged(stream, Version, uint32(i), msgs[i%len(msgs)]); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, stream[start:])
	}
	for name, r := range map[string]io.Reader{
		"whole":  bytes.NewReader(stream),
		"1-byte": iotest.OneByteReader(bytes.NewReader(stream)),
	} {
		br := bufio.NewReaderSize(r, 4096)
		var held []Message
		for i := range frames {
			m, _, tag, _, err := ReadAny(br, nil)
			if err != nil || tag != uint32(i) {
				t.Fatalf("%s: frame %d: tag %d, %v", name, i, tag, err)
			}
			held = append(held, m)
			if i < 3 {
				continue
			}
			old := i - 3
			again, err := AppendTagged(nil, Version, uint32(old), held[old])
			if err != nil || !bytes.Equal(again, frames[old]) {
				t.Fatalf("%s: the %s read as frame %d changed while frames %d-%d were read: %v", name, held[old].Kind(), old, old+1, i, err)
			}
		}
	}
}
