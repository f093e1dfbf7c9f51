package wire

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the frame decoder. The
// contract under fuzzing:
//
//   - decoding never panics, whatever the input;
//   - a malformed frame errors with ErrMalformed/ErrTooLarge;
//   - a frame that decodes re-encodes at its own tag to exactly the bytes
//     consumed (canonical encoding), and decoding the re-encoding yields an
//     equal message (round trip);
//   - the decoder never allocates beyond the declared, bounded payload
//     (enforced structurally: element counts are checked against the
//     remaining payload before any allocation).
func FuzzWireRoundTrip(f *testing.F) {
	// Every sample message — TXN and TXN_OK in several shapes among them —
	// under the tag of an unasked ERR, an ordinary one and the last one.
	for _, m := range sampleMessages() {
		for _, tag := range []uint32{0, 0xABCD1234, 0xFFFFFFFF} {
			frame, err := AppendTagged(nil, Version, tag, m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	// frame wraps a hand-written payload: the malformed shapes the decoder
	// must refuse, as starting points for the mutator.
	frame := func(k Kind, payload ...byte) []byte {
		return withLen(append([]byte{Version, uint8(k), 0, 0, 0, 9, 0, 0, 0, 0}, payload...), len(payload))
	}
	f.Add(frame(KindHelloOK, 0, 0, 0xFF, 0xFF))                                         // forged template count
	f.Add(frame(KindErr, 0xFF, 0, 0))                                                   // unknown code
	f.Add(frame(KindPing, 0, 0, 0, 0, 0, 0, 0, 1))                                      // valid, by hand
	f.Add([]byte{2, uint8(KindHello), 0, 0, 0, 0})                                      // an untagged v2 HELLO
	f.Add([]byte{4, uint8(KindBegin), 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 1})     // a tagged v4 BEGIN
	f.Add(frame(KindTxn, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, OpRead, 0, 0, 0, 1))          // forged op count
	f.Add(frame(KindTxn, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 1))                     // unknown op byte
	f.Add(frame(KindTxn, 0, 0, 0, 0, 0, 0, 2, 0, 0))                                    // bad read-only flag
	f.Add(frame(KindTxn, 0, 0, 0, 0, 0, 0, 1, 0, 1, OpRead, 0, 0, 0, 1, 0))             // trailing byte
	f.Add(frame(KindTxnOK, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 5)) // forged read count
	f.Add(frame(KindTxnOK, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0))                            // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		m, ver, tag, rest, err := DecodeAny(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("decode error %v wraps neither ErrMalformed nor ErrTooLarge", err)
			}
			return
		}
		consumed := data[:len(data)-len(rest)]
		re, err := AppendTagged(nil, ver, tag, m)
		if err != nil {
			t.Fatalf("re-encode of decoded %s failed: %v", m.Kind(), err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("%s not canonical:\n consumed %x\n re-encoded %x", m.Kind(), consumed, re)
		}
		m2, ver2, tag2, rest2, err := DecodeAny(re)
		if err != nil || len(rest2) != 0 || ver2 != ver || tag2 != tag {
			t.Fatalf("decode of re-encoding failed: %v (%d rest, v%d tag %d)", err, len(rest2), ver2, tag2)
		}
		f2, err := AppendTagged(nil, ver2, tag2, m2)
		if err != nil || !bytes.Equal(f2, re) {
			t.Fatalf("second round trip diverged: %v", err)
		}
		// The stream reader agrees with the slice decoder.
		m3, _, tag3, _, err := ReadAny(bufio.NewReader(bytes.NewReader(consumed)), nil)
		if err != nil || tag3 != tag || !reflect.DeepEqual(m3, m) {
			t.Fatalf("ReadAny disagrees with DecodeAny on %s: %v", m.Kind(), err)
		}
	})
}
