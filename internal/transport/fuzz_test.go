package transport

import (
	"bytes"
	"testing"
)

// FuzzReadMessage checks that arbitrary byte streams never panic the codec
// or produce a message that fails to round-trip.
func FuzzReadMessage(f *testing.F) {
	// Seed with valid frames.
	seed := []*Message{
		{Kind: KindControl},
		msgOf(KindShares, []int64{1, -2}, 3, -4, 0),
		msgOf(KindBits, nil, 1, 0, 1, 1),
		msgOf(KindMux, []int64{3, int64(KindResult), 1}), // reserved kind: decodes, every receiver refuses it
	}
	for _, m := range seed {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is fine
		}
		// Anything accepted must re-encode and decode identically.
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("re-encode accepted message: %v", err)
		}
		back, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !sameMessage(msg, back) {
			t.Fatalf("round trip mismatch: %+v vs %+v", msg, back)
		}
	})
}
