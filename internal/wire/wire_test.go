package wire

import (
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
		&HelloOK{Proto: Version, Set: "paper-example-3", Templates: []TemplateInfo{
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
		&ErrMsg{Code: CodeOverload, Text: "queue full"},
		&ErrMsg{Code: CodeAborted, Text: ""},
		&ErrMsg{Code: CodeShed, Text: "priority shed"},
		&ErrMsg{Code: CodeInfeasible, Text: "deadline infeasible"},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Kind(), err)
		}
		got, rest, err := DecodeFrame(frame)
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
}

func TestTaggedRoundTrip(t *testing.T) {
	for _, tagVer := range []uint8{V3, V4} {
		for i, m := range sampleMessages() {
			tag := uint32(i * 1000003)
			frame, err := AppendTagged(nil, tagVer, tag, m)
			if err != nil {
				t.Fatalf("%s: encode: %v", m.Kind(), err)
			}
			got, ver, gotTag, rest, err := DecodeAny(frame)
			if err != nil {
				t.Fatalf("%s: decode: %v", m.Kind(), err)
			}
			if ver != tagVer || gotTag != tag || len(rest) != 0 {
				t.Fatalf("%s: ver=%d tag=%d rest=%d, want v%d tag=%d rest=0",
					m.Kind(), ver, gotTag, len(rest), tagVer, tag)
			}
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("%s: round trip mismatch:\n have %#v\n want %#v", m.Kind(), got, m)
			}
			// Tagged frames are rejected by the strict untagged decode paths.
			if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: DecodeFrame on tagged frame: err = %v, want ErrMalformed", m.Kind(), err)
			}
			if _, _, err := ReadFrame(bytes.NewReader(frame), nil); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: ReadFrame on tagged frame: err = %v, want ErrMalformed", m.Kind(), err)
			}
		}
	}
	if _, err := AppendTagged(nil, V2, 1, &Ping{}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AppendTagged at v2: err = %v, want ErrMalformed", err)
	}
}

// TestReadOnlyVersions pins the v4 rule: BEGIN's read-only flag encodes
// only at v4 and is refused (not silently dropped) at every earlier
// version.
func TestReadOnlyVersions(t *testing.T) {
	ro := &Begin{Name: "T1", ReadOnly: true}
	frame, err := AppendTagged(nil, V4, 9, ro)
	if err != nil {
		t.Fatal(err)
	}
	got, ver, tag, _, err := DecodeAny(frame)
	if err != nil || ver != V4 || tag != 9 {
		t.Fatalf("v4 RO BEGIN decode: %v (ver %d tag %d)", err, ver, tag)
	}
	if b := got.(*Begin); !b.ReadOnly || b.Name != "T1" {
		t.Fatalf("v4 RO BEGIN decoded as %+v", b)
	}
	rw, err := AppendTagged(nil, V4, 9, &Begin{Name: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != len(rw) {
		t.Fatalf("v4 BEGIN sizes differ by flag value: %d vs %d", len(frame), len(rw))
	}
	for _, ver := range []uint8{V1, V2, V3} {
		var err error
		if ver == V3 {
			_, err = AppendTagged(nil, ver, 1, ro)
		} else {
			_, err = AppendCompat(nil, ver, ro)
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("v%d RO BEGIN: err = %v, want ErrMalformed", ver, err)
		}
	}
	// A v3 BEGIN carries no flag byte: one byte shorter than v4.
	v3, err := AppendTagged(nil, V3, 9, &Begin{Name: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(v3) != len(rw)-1 {
		t.Fatalf("v3 BEGIN is %d bytes, v4 is %d; want exactly 1 fewer (no flag)", len(v3), len(rw))
	}
}

// TestCompatVersions pins the cross-version encoding rules: v1 BEGIN has
// no deadline field, v1 cannot carry the v2 overload codes, and
// CodeForVersion degrades them to plain overload.
func TestCompatVersions(t *testing.T) {
	v1begin, err := AppendCompat(nil, V1, &Begin{Name: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	v2begin, err := AppendCompat(nil, V2, &Begin{Name: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(v1begin) != len(v2begin)-4 {
		t.Fatalf("v1 BEGIN is %d bytes, v2 is %d; want exactly 4 fewer (no deadline)",
			len(v1begin), len(v2begin))
	}
	m, ver, _, _, err := DecodeAny(v1begin)
	if err != nil || ver != V1 {
		t.Fatalf("v1 BEGIN decode: %v (ver %d)", err, ver)
	}
	if b := m.(*Begin); b.Name != "T1" || b.Deadline != 0 {
		t.Fatalf("v1 BEGIN decoded as %+v", b)
	}
	if _, err := AppendCompat(nil, V1, &Begin{Name: "T1", Deadline: 9}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("v1 BEGIN with deadline: err = %v, want ErrMalformed", err)
	}
	if _, err := AppendCompat(nil, V1, &ErrMsg{Code: CodeShed, Text: "x"}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("v1 ERR with CodeShed: err = %v, want ErrMalformed", err)
	}
	if _, err := AppendCompat(nil, V3, &Ping{}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AppendCompat at v3: err = %v, want ErrMalformed", err)
	}
	for c, want := range map[ErrorCode]ErrorCode{
		CodeShed:       CodeOverload,
		CodeInfeasible: CodeOverload,
		CodeOverload:   CodeOverload,
		CodeAborted:    CodeAborted,
	} {
		if got := CodeForVersion(c, V1); got != want {
			t.Errorf("CodeForVersion(%s, v1) = %s, want %s", c, got, want)
		}
		if got := CodeForVersion(c, V2); got != c {
			t.Errorf("CodeForVersion(%s, v2) = %s, want %s", c, got, c)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var stream []byte
	var err error
	for _, m := range sampleMessages() {
		stream, err = AppendFrame(stream, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Byte-slice decoding consumes the stream frame by frame.
	rest := stream
	var got []Message
	for len(rest) > 0 {
		var m Message
		m, rest, err = DecodeFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	want := sampleMessages()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream decode mismatch: %d messages, want %d", len(got), len(want))
	}
	// Reader decoding sees the same sequence, reusing one scratch buffer.
	r := bytes.NewReader(stream)
	var scratch []byte
	for i := 0; ; i++ {
		var m Message
		m, scratch, err = ReadFrame(r, scratch)
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("reader stopped after %d of %d messages", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, want[i]) {
			t.Fatalf("message %d mismatch: %#v", i, m)
		}
	}
}

// TestMixedVersionStream interleaves untagged v1/v2 frames with tagged v3
// frames on one stream — what a server's reader sees from a client that
// upgrades to pipelining mid-connection.
func TestMixedVersionStream(t *testing.T) {
	type frameSpec struct {
		ver uint8
		tag uint32
		m   Message
	}
	specs := []frameSpec{
		{V2, 0, &Hello{}},
		{V3, 1, &Begin{Name: "T1", Deadline: 50}},
		{V1, 0, &Ping{Nonce: 4}},
		{V4, 2, &Begin{Name: "T2", ReadOnly: true}},
		{V3, 3, &Write{Item: 1, Value: -9}},
		{V4, 0xFFFFFFFF, &Commit{}},
		{V2, 0, &Abort{}},
	}
	var stream []byte
	var err error
	for _, s := range specs {
		if s.ver >= V3 {
			stream, err = AppendTagged(stream, s.ver, s.tag, s.m)
		} else {
			stream, err = AppendCompat(stream, s.ver, s.m)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	var scratch []byte
	for i, s := range specs {
		var m Message
		var ver uint8
		var tag uint32
		m, ver, tag, scratch, err = ReadAny(r, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ver != s.ver || tag != s.tag || !reflect.DeepEqual(m, s.m) {
			t.Fatalf("frame %d: got (v%d, tag %d, %#v), want (v%d, tag %d, %#v)",
				i, ver, tag, m, s.ver, s.tag, s.m)
		}
	}
	if _, _, _, _, err = ReadAny(r, scratch); err != io.EOF {
		t.Fatalf("stream end: err = %v, want io.EOF", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	valid, err := AppendFrame(nil, &Begin{Name: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      valid[:4],
		"bad version":       append([]byte{9}, valid[1:]...),
		"unknown kind":      {V2, 0x70, 0, 0, 0, 0},
		"truncated payload": valid[:len(valid)-1],
		"trailing payload":  withLen(append(bytes.Clone(valid), 0), len(valid)-headerLen+1),
		"oversized decl":    {V2, uint8(KindPing), 0xFF, 0xFF, 0xFF, 0xFF},
		"string overrun":    withLen([]byte{V2, uint8(KindBegin), 0, 0, 0, 2, 0, 9}, 2),
		"bad error code":    withLen([]byte{V2, uint8(KindErr), 0, 0, 0, 3, 200, 0, 0}, 3),
		"v1 shed code":      withLen([]byte{V1, uint8(KindErr), 0, 0, 0, 3, uint8(CodeShed), 0, 0}, 3),
		"bad step op": withLen([]byte{V2, uint8(KindHelloOK), 0, 0, 0, 0,
			V2, 0, 0, 0, 1, // proto, set "", one template
			0, 0, 0, 0, 0, 3, 0, 1, // name "", pri 3, one step
			9, 0, 0, 0, 0, 0, 0, 0, 1, // op 9 (invalid)
		}, 22),
		"short tagged header":    {V3, uint8(KindPing), 0, 0, 0, 1, 0},
		"tagged oversized decl":  {V3, uint8(KindPing), 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		"tagged truncated":       {V3, uint8(KindPing), 0, 0, 0, 1, 0, 0, 0, 8, 1, 2},
		"v1 begin with deadline": withLen([]byte{V1, uint8(KindBegin), 0, 0, 0, 8, 0, 2, 'T', '1', 0, 0, 0, 5}, 8),
		"v4 begin bad ro flag": {V4, uint8(KindBegin), 0, 0, 0, 0, 0, 0, 0, 7,
			0, 0, 0, 0, 0, 0, 2}, // name "", deadline 0, flag 2 (only 0/1 valid)
		"v3 begin with ro byte": {V3, uint8(KindBegin), 0, 0, 0, 0, 0, 0, 0, 7,
			0, 0, 0, 0, 0, 0, 1}, // the flag byte is trailing junk below v4
	}
	for name, b := range cases {
		if _, _, _, _, err := DecodeAny(b); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		} else if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: error %v does not wrap ErrMalformed/ErrTooLarge", name, err)
		}
	}
}

// withLen rewrites an untagged header's payload-length field.
func withLen(b []byte, n int) []byte {
	putU32(b[2:], uint32(n))
	return b
}

func TestEncodeLimits(t *testing.T) {
	if _, err := AppendFrame(nil, &Begin{Name: strings.Repeat("x", MaxString+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized name: err = %v, want ErrTooLarge", err)
	}
	if _, err := AppendFrame(nil, &ErrMsg{Code: numCodes, Text: "?"}); !errors.Is(err, ErrMalformed) {
		t.Errorf("unknown code: err = %v, want ErrMalformed", err)
	}
	// A schema big enough to overflow MaxPayload must be refused, not sent.
	big := &HelloOK{Proto: Version, Set: "big"}
	tmpl := TemplateInfo{Name: strings.Repeat("n", MaxString), Steps: make([]StepInfo, 1000)}
	for len(big.Templates) < 200 {
		big.Templates = append(big.Templates, tmpl)
	}
	if _, err := AppendFrame(nil, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized schema: err = %v, want ErrTooLarge", err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{V2, 1}), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("cut header: err = %v, want ErrMalformed", err)
	}
	// A tagged header cut between the common prefix and the length field.
	if _, _, _, _, err := ReadAny(bytes.NewReader([]byte{V3, 1, 0, 0, 0, 0, 0}), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("cut tagged header: err = %v, want ErrMalformed", err)
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
