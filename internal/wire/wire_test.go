package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// sampleMessages covers every message kind with representative payloads.
func sampleMessages() []Message {
	return []Message{
		&Hello{},
		&HelloOK{Set: "paper-example-3", Templates: []TemplateInfo{
			{Name: "T1", Priority: 3, Steps: []StepInfo{
				{Op: OpRead, Item: 0, Dur: 1},
				{Op: OpCompute, Item: NoItem, Dur: 4},
				{Op: OpWrite, Item: 1, Dur: 1},
			}},
			{Name: "T2", Priority: 2, Steps: nil},
			{Name: "T3", Priority: 1, Steps: []StepInfo{{Op: OpRead, Item: 7, Dur: 2}}},
		}},
		&Begin{Name: "T1"},
		&Begin{Name: "T2", Deadline: 250},
		&Begin{ReadOnly: true},
		&BeginOK{ID: 0xDEADBEEFCAFE},
		&Read{Item: 42},
		&ReadOK{Value: -77},
		&Write{Item: 3, Value: 1 << 40},
		&WriteOK{},
		&Commit{},
		&CommitOK{},
		&Abort{},
		&AbortOK{},
		&Ping{Nonce: 99},
		&Pong{Nonce: 99},
		&Txn{Name: "T1", Deadline: 2, Ops: []TxnOp{
			{Op: OpRead, Item: 3}, {Op: OpWrite, Item: 4, Value: -9}, {Op: OpRead, Item: 4},
		}},
		&Txn{ReadOnly: true, Ops: []TxnOp{{Op: OpRead, Item: 1}, {Op: OpRead, Item: 2}}},
		&Txn{Name: "T2"},
		&TxnOK{ID: 12, Reads: []int64{-77, 1 << 40}},
		&TxnOK{ID: 1 << 63},
		&ErrMsg{Code: CodeOverload, Text: "queue full"},
		&ErrMsg{Code: CodeAborted, Text: ""},
		&ErrMsg{Code: CodeShed, Text: "priority shed"},
		&ErrMsg{Code: CodeInfeasible, Text: "deadline infeasible"},
	}
}

// appendAll encodes msgs back to back, tags counting up from 0.
func appendAll(t *testing.T, msgs []Message) []byte {
	t.Helper()
	var stream []byte
	var err error
	for i, m := range msgs {
		if stream, err = AppendTagged(stream, Version, uint32(i), m); err != nil {
			t.Fatalf("%s: encode: %v", m.Kind(), err)
		}
	}
	return stream
}

func TestRoundTripAllKinds(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range sampleMessages() {
		seen[m.Kind()] = true
		frame, err := AppendTagged(nil, Version, 0, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Kind(), err)
		}
		got, _, _, rest, err := DecodeAny(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind(), err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d unconsumed bytes", m.Kind(), len(rest))
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%s: round trip mismatch:\n have %#v\n want %#v", m.Kind(), got, m)
		}
	}
	for k := range kindNames {
		if !seen[k] {
			t.Errorf("no sample message of kind %s", k)
		}
	}
}

func TestTaggedRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		tag := uint32(i * 1000003)
		frame, err := AppendTagged(nil, Version, tag, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Kind(), err)
		}
		got, ver, gotTag, rest, err := DecodeAny(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind(), err)
		}
		if ver != Version || gotTag != tag || len(rest) != 0 {
			t.Fatalf("%s: ver=%d tag=%d rest=%d, want v%d tag=%d rest=0",
				m.Kind(), ver, gotTag, len(rest), Version, tag)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%s: round trip mismatch:\n have %#v\n want %#v", m.Kind(), got, m)
		}
	}
}

// TestReadOnlyVersions pins how the one version carries the read-only
// flag: BEGIN and TXN both do, as one byte that is there whatever its
// value, and a read is five bytes of a TXN where a write is thirteen.
func TestReadOnlyVersions(t *testing.T) {
	for _, pair := range [][2]Message{
		{&Begin{Name: "T1", ReadOnly: true}, &Begin{Name: "T1"}},
		{&Txn{Name: "T1", ReadOnly: true}, &Txn{Name: "T1"}},
	} {
		ro, err := AppendTagged(nil, Version, 9, pair[0])
		if err != nil {
			t.Fatal(err)
		}
		rw, err := AppendTagged(nil, Version, 9, pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(ro) != len(rw) {
			t.Fatalf("%s sizes differ by flag value: %d vs %d", pair[0].Kind(), len(ro), len(rw))
		}
		got, _, _, _, err := DecodeAny(ro)
		if err != nil || !reflect.DeepEqual(got, pair[0]) {
			t.Fatalf("read-only %s decoded as %+v (%v)", pair[0].Kind(), got, err)
		}
	}
	size := func(ops ...TxnOp) int {
		f, err := AppendTagged(nil, Version, 0, &Txn{Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		return len(f)
	}
	if r, w := size(TxnOp{Op: OpRead, Item: 1})-size(), size(TxnOp{Op: OpWrite, Item: 1, Value: 2})-size(); r != 5 || w != 13 {
		t.Fatalf("a TXN read costs %d bytes and a write %d, want 5 and 13", r, w)
	}
}

// TestCompatVersions pins the compatibility rule, which is that there is
// none: every version byte but Version is refused, by both decoders and by
// the encoder, and the refusal needs nothing of the frame but that byte.
func TestCompatVersions(t *testing.T) {
	frame, err := AppendTagged(nil, Version, 1, &Ping{Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 256; v++ {
		ver := uint8(v)
		b := append([]byte{ver}, frame[1:]...)
		_, _, _, _, dErr := DecodeAny(b)
		_, _, _, _, rErr := ReadAny(bufio.NewReader(bytes.NewReader(b)), nil)
		_, _, _, _, firstByte := ReadAny(bufio.NewReader(bytes.NewReader(b[:1])), nil)
		_, aErr := AppendTagged(nil, ver, 1, &Ping{Nonce: 1})
		if ver == Version {
			if dErr != nil || rErr != nil || aErr != nil {
				t.Fatalf("version %d: decode %v, read %v, encode %v", ver, dErr, rErr, aErr)
			}
			continue
		}
		for what, err := range map[string]error{"DecodeAny": dErr, "ReadAny": rErr, "ReadAny of the first byte alone": firstByte, "AppendTagged": aErr} {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("version %d: %s: err = %v, want ErrMalformed", ver, what, err)
			}
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	want := sampleMessages()
	stream := appendAll(t, want)
	// Byte-slice decoding consumes the stream frame by frame.
	rest := stream
	var got []Message
	for len(rest) > 0 {
		m, _, tag, r, err := DecodeAny(rest)
		if err != nil {
			t.Fatal(err)
		}
		if tag != uint32(len(got)) {
			t.Fatalf("frame %d carries tag %d", len(got), tag)
		}
		got, rest = append(got, m), r
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream decode mismatch: %d messages, want %d", len(got), len(want))
	}
	// Reader decoding sees the same sequence, reusing one scratch buffer.
	r := bufio.NewReader(bytes.NewReader(stream))
	var scratch []byte
	for i := 0; ; i++ {
		m, _, tag, sc, err := ReadAny(r, scratch)
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("reader stopped after %d of %d messages", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		scratch = sc
		if tag != uint32(i) || !reflect.DeepEqual(m, want[i]) {
			t.Fatalf("message %d (tag %d) mismatch: %#v", i, tag, m)
		}
	}
}

// TestMixedVersionStream puts a frame of each framing this one replaced —
// an untagged v2 HELLO, a tagged v4 BEGIN, as their peers wrote them — in
// the middle of a stream: the frames before it decode, the stream fails at
// the old frame's first byte, and nothing behind it is looked at.
func TestMixedVersionStream(t *testing.T) {
	good := appendAll(t, []Message{&Hello{}, &Ping{Nonce: 4}})
	for name, old := range map[string][]byte{
		"v2 HELLO": {2, uint8(KindHello), 0, 0, 0, 0},
		"v4 BEGIN": {4, uint8(KindBegin), 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0},
	} {
		stream := append(append(bytes.Clone(good), old...), good...)
		r := bufio.NewReader(bytes.NewReader(stream))
		var scratch []byte
		for i := 0; i < 2; i++ {
			_, _, tag, sc, err := ReadAny(r, scratch)
			if err != nil || tag != uint32(i) {
				t.Fatalf("%s: frame %d ahead of it: tag %d, %v", name, i, tag, err)
			}
			scratch = sc
		}
		if _, _, _, _, err := ReadAny(r, scratch); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: err = %v, want ErrMalformed", name, err)
		}
		if left := r.Buffered(); left != len(old)+len(good) {
			t.Fatalf("%s: the reader went %d bytes into the old frame", name, len(old)+len(good)-left)
		}
		if _, _, _, _, err := DecodeAny(stream[len(good):]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: DecodeAny: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestDecodeMalformed(t *testing.T) {
	valid, err := AppendTagged(nil, Version, 1, &Begin{Name: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	// frame builds a frame around a hand-written payload.
	frame := func(k Kind, payload ...byte) []byte {
		return withLen(append([]byte{Version, uint8(k), 0, 0, 0, 1, 0, 0, 0, 0}, payload...), len(payload))
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      valid[:7],
		"bad version":       append([]byte{9}, valid[1:]...),
		"unknown kind":      frame(0x70),
		"truncated payload": valid[:len(valid)-1],
		"trailing payload":  withLen(append(bytes.Clone(valid), 0), len(valid)-headerLen+1),
		"oversized decl":    {Version, uint8(KindPing), 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		"string overrun":    frame(KindBegin, 0, 9),
		"bad error code":    frame(KindErr, 200, 0, 0),
		"bad step op": frame(KindHelloOK,
			0, 0, 0, 1, // set "", one template
			0, 0, 0, 0, 0, 3, 0, 1, // name "", pri 3, one step
			9, 0, 0, 0, 0, 0, 0, 0, 1, // op 9 (invalid)
		),
		"begin without ro flag": frame(KindBegin, 0, 0, 0, 0, 0, 0),
		"begin bad ro flag":     frame(KindBegin, 0, 0, 0, 0, 0, 0, 2), // name "", deadline 0, flag 2 (only 0/1 valid)
		"txn bad ro flag":       frame(KindTxn, 0, 0, 0, 0, 0, 0, 2, 0, 0),
		"txn forged op count":   frame(KindTxn, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 1, 0, 0, 0, 1),
		"txn unknown op":        frame(KindTxn, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 1),
		"txn compute op":        frame(KindTxn, 0, 0, 0, 0, 0, 0, 0, 0, 1, OpCompute, 0, 0, 0, 1),
		"txn read with a value": frame(KindTxn, 0, 0, 0, 0, 0, 0, 0, 0, 1, OpRead, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5),
		"txn write cut short":   frame(KindTxn, 0, 0, 0, 0, 0, 0, 0, 0, 1, OpWrite, 0, 0, 0, 1, 0, 0, 0, 5),
		"txn trailing byte":     frame(KindTxn, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"txn_ok forged count":   frame(KindTxnOK, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 5),
		"txn_ok count short":    frame(KindTxnOK, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5),
		"txn_ok trailing byte":  frame(KindTxnOK, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
	}
	for name, b := range cases {
		if _, _, _, _, err := DecodeAny(b); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		} else if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: error %v does not wrap ErrMalformed/ErrTooLarge", name, err)
		}
	}
}

// withLen rewrites a header's payload-length field.
func withLen(b []byte, n int) []byte {
	putU32(b[headerLen-4:], uint32(n))
	return b
}

func TestEncodeLimits(t *testing.T) {
	encode := func(m Message) error {
		_, err := AppendTagged(nil, Version, 0, m)
		return err
	}
	long := strings.Repeat("x", MaxString+1)
	if err := encode(&Begin{Name: long}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized name: err = %v, want ErrTooLarge", err)
	}
	if err := encode(&Txn{Name: long}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized TXN name: err = %v, want ErrTooLarge", err)
	}
	if err := encode(&Txn{Ops: make([]TxnOp, 0x10000)}); !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrMalformed) {
		t.Errorf("TXN with 65536 ops: err = %v, want a refusal", err)
	}
	if err := encode(&Txn{Ops: []TxnOp{{Op: OpCompute}}}); !errors.Is(err, ErrMalformed) {
		t.Errorf("TXN with a compute op: err = %v, want ErrMalformed", err)
	}
	if err := encode(&TxnOK{Reads: make([]int64, 0x10000)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("TXN_OK with 65536 reads: err = %v, want ErrTooLarge", err)
	}
	if err := encode(&ErrMsg{Code: numCodes, Text: "?"}); !errors.Is(err, ErrMalformed) {
		t.Errorf("unknown code: err = %v, want ErrMalformed", err)
	}
	// A schema big enough to overflow MaxPayload must be refused, not sent.
	big := &HelloOK{Set: "big"}
	tmpl := TemplateInfo{Name: strings.Repeat("n", MaxString), Steps: make([]StepInfo, 1000)}
	for len(big.Templates) < 200 {
		big.Templates = append(big.Templates, tmpl)
	}
	if err := encode(big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized schema: err = %v, want ErrTooLarge", err)
	}
}

func TestReadAnyEOF(t *testing.T) {
	if _, _, _, _, err := ReadAny(bufio.NewReader(bytes.NewReader(nil)), nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	if _, _, _, _, err := ReadAny(bufio.NewReader(bytes.NewReader([]byte{Version, 1})), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("cut header: err = %v, want ErrMalformed", err)
	}
	if _, _, _, _, err := ReadAny(bufio.NewReader(bytes.NewReader([]byte{Version})), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("header cut after the version byte: err = %v, want ErrMalformed", err)
	}
	// Once the header is in, a failure names the frame it belongs to.
	bad := []byte{Version, 0x70, 0, 0, 0, 42, 0, 0, 0, 0}
	if _, _, tag, _, err := ReadAny(bufio.NewReader(bytes.NewReader(bad)), nil); !errors.Is(err, ErrMalformed) || tag != 42 {
		t.Fatalf("unknown kind: tag %d, err = %v; want tag 42 and ErrMalformed", tag, err)
	}
}

func TestRetryableCodes(t *testing.T) {
	want := map[ErrorCode]bool{
		CodeOverload: true, CodeAborted: true, CodeDeadline: true,
		CodeShed: true, CodeInfeasible: true,
		CodeProtocol: false, CodeState: false, CodeCancelled: false,
		CodeDraining: false, CodeInternal: false,
	}
	for c, r := range want {
		if c.Retryable() != r {
			t.Errorf("%s.Retryable() = %v, want %v", c, !r, r)
		}
	}
}

func TestIsCode(t *testing.T) {
	err := error(&RemoteError{Code: CodeOverload, Text: "busy"})
	if !IsCode(err, CodeOverload) || IsCode(err, CodeAborted) {
		t.Fatal("IsCode misclassified a RemoteError")
	}
	if IsCode(errors.New("plain"), CodeOverload) {
		t.Fatal("IsCode matched a non-remote error")
	}
}
