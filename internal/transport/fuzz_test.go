package transport

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzReadMessage checks that arbitrary byte streams never panic the codec
// or produce a message that fails to round-trip, and that EncodedSize
// predicts the length of every accepted message's encoding.
func FuzzReadMessage(f *testing.F) {
	// Seed with valid frames, values at the byte boundaries included.
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	seed := []*Message{
		{Kind: KindControl},
		msgOf(KindShares, []int64{1, -2}, 3, -4, 0),
		msgOf(KindBits, nil, 1, 0, 1, 1),
		msgOf(KindMux, []int64{3, int64(KindResult), 1}), // reserved kind: decodes, every receiver refuses it
		msgOf(KindShares, nil, 255, 256, -255, -256, 0, -1),
		{Kind: KindCipherSeq, Values: []*big.Int{two64, new(big.Int).Neg(two64), new(big.Int).Sub(two64, big.NewInt(1))}},
	}
	for _, m := range seed {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Non-canonical: −255 sent with a leading zero byte re-encodes shorter.
	f.Add([]byte{byte(KindShares), 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0x00, 0xff})
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
		if n := EncodedSize(msg); n != buf.Len() {
			t.Fatalf("EncodedSize %d, encoding %d bytes", n, buf.Len())
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
