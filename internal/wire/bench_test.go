package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// The steady-state frames of a session: a whole transaction each way, and
// the small fixed-size request/reply pairs of one driven a step at a time. The benchmarks pin their allocs/op — encode into a
// reused buffer is 0 allocs/op, decode allocates only the message value.

// steadyFrames are those frames, the set the benchmarks stream and
// TestCodecAllocBudget pins one by one.
func steadyFrames() []Message {
	return []Message{
		&Txn{Name: "T1", Deadline: 150, Ops: []TxnOp{{Op: OpRead, Item: 3}, {Op: OpWrite, Item: 4, Value: 9}}},
		&TxnOK{ID: 7, Reads: []int64{-1}},
		&Begin{Name: "T1", Deadline: 150},
		&BeginOK{ID: 7},
		&Read{Item: 3},
		&ReadOK{Value: -1},
		&Write{Item: 4, Value: 9},
		&WriteOK{},
		&Commit{},
		&CommitOK{},
	}
}

func benchFrames(b *testing.B) []byte {
	var stream []byte
	var err error
	for i, m := range steadyFrames() {
		stream, err = AppendTagged(stream, Version, uint32(i), m)
		if err != nil {
			b.Fatal(err)
		}
	}
	return stream
}

func BenchmarkAppendTagged(b *testing.B) {
	msg := &Write{Item: 4, Value: 9}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendTagged(buf[:0], Version, uint32(i), msg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeAny(b *testing.B) {
	frame, err := AppendTagged(nil, Version, 42, &Write{Item: 4, Value: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := DecodeAny(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadAnyStream(b *testing.B) {
	stream := benchFrames(b)
	src := bytes.NewReader(stream)
	r := bufio.NewReader(src)
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, _, _, scratch, err = ReadAny(r, scratch)
		if err == io.EOF {
			src.Reset(stream)
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
