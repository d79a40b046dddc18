package transport

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"
)

// FuzzReadMessage checks that arbitrary byte streams never panic the codec
// or produce a message that fails to round-trip, that EncodedSize
// predicts the length of every accepted message's encoding, and that each
// value is encoded as big.Int.FillBytes writes it.
func FuzzReadMessage(f *testing.F) {
	// Seed with valid frames, values at the byte boundaries included, and
	// one value of every length from 1 to 24 bytes: one to three words, each
	// top word full or partial, at either word size.
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	var widths []*big.Int
	for n := 1; n <= 24; n++ {
		b := make([]byte, n) // bytes 1, 2, …, n: any misplaced byte shows
		for i := range b {
			b[i] = byte(i + 1)
		}
		v := new(big.Int).SetBytes(b)
		widths = append(widths, v, new(big.Int).Neg(v))
	}
	seed := []*Message{
		{Kind: KindControl},
		msgOf(KindShares, []int64{1, -2}, 3, -4, 0),
		msgOf(KindBits, nil, 1, 0, 1, 1),
		msgOf(KindMux, []int64{3, int64(KindResult), 1}), // reserved kind: decodes, every receiver refuses it
		msgOf(KindShares, nil, 255, 256, -255, -256, 0, -1),
		{Kind: KindCipherSeq, Values: []*big.Int{two64, new(big.Int).Neg(two64), new(big.Int).Sub(two64, big.NewInt(1))}},
		{Kind: KindCipherSeq, Values: widths},
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
		msg, _, err := DecodeMessage(data)
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
		if want := fillBytesEncoding(msg); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("encoding %x, FillBytes writes %x", buf.Bytes(), want)
		}
		back, n, err := DecodeMessage(buf.Bytes())
		if err != nil || n != buf.Len() {
			t.Fatalf("re-decode: %d of %d bytes, %v", n, buf.Len(), err)
		}
		if !sameMessage(msg, back) {
			t.Fatalf("round trip mismatch: %+v vs %+v", msg, back)
		}
		checkNoAlias(t, msg)
	})
}

// fillBytesEncoding is msg's codec encoding with every value's magnitude
// written by big.Int.FillBytes: the reference for putMagnitude.
func fillBytesEncoding(msg *Message) []byte {
	buf := binary.BigEndian.AppendUint32([]byte{byte(msg.Kind)}, uint32(len(msg.Flags)))
	for _, f := range msg.Flags {
		buf = binary.BigEndian.AppendUint64(buf, uint64(f))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(msg.Values)))
	for _, v := range msg.Values {
		sign := byte(0)
		if v.Sign() < 0 {
			sign = 1
		}
		b := v.FillBytes(make([]byte, (v.BitLen()+7)/8))
		buf = binary.BigEndian.AppendUint32(append(buf, sign), uint32(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// checkNoAlias grows each value of a decoded message in place — Add, Mul
// and Lsh — and fails if any other value of the message changes: the
// values share one word arena and must not reach into each other's words.
// It checks the first 64 values, so a fuzzed frame of a million values
// stays quick.
func checkNoAlias(t *testing.T, msg *Message) {
	t.Helper()
	vals := msg.Values[:min(len(msg.Values), 64)]
	want := make([]*big.Int, len(vals))
	for i, v := range vals {
		want[i] = new(big.Int).Set(v)
	}
	for i, v := range vals {
		v.Add(v, v)
		if v.BitLen() <= 1<<13 {
			v.Mul(v, v)
		}
		v.Lsh(v, 3)
		want[i].Set(v)
		for j, w := range vals {
			if w.Cmp(want[j]) != 0 {
				t.Fatalf("growing value %d in place changed value %d: %v, want %v", i, j, w, want[j])
			}
		}
	}
}
