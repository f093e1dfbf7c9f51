package wire

import (
	"fmt"
	"testing"

	"pcpda/internal/testenv"
)

// TestCodecAllocBudget is the exact-allocation test of the codec's
// //pcpda:alloc-free helpers (putU32, u32 and the dec cursor): every
// steady-state frame encodes into a reused buffer without allocating, and
// decoding one allocates the message value plus what the message itself
// holds — a name, an op list, a read list — and nothing for the cursor.
func TestCodecAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race runtime allocates")
	}
	decodeBudget := map[Kind]float64{
		KindTxn:   3, // the message, its name, its ops
		KindTxnOK: 2, // the message, its reads
		KindBegin: 2, // the message, its name
		// A message without fields is a zero-size value: no allocation.
		KindWriteOK: 0, KindCommit: 0, KindCommitOK: 0,
	}
	buf := make([]byte, 0, 128)
	for i, m := range steadyFrames() {
		t.Run(fmt.Sprint(m.Kind()), func(t *testing.T) {
			encode := func() {
				var err error
				if buf, err = AppendTagged(buf[:0], Version, uint32(i), m); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
				t.Errorf("encode into a warm buffer allocates %v, want 0", allocs)
			}
			want, ok := decodeBudget[m.Kind()]
			if !ok {
				want = 1 // the message value alone
			}
			frame := append([]byte(nil), buf...)
			decode := func() {
				if _, _, _, _, err := DecodeAny(frame); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(100, decode); allocs != want {
				t.Errorf("decode allocates %v, want %v", allocs, want)
			}
		})
	}
}
