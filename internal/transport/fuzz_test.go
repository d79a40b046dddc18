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

// FuzzSegmentRecompose checks the segmentation codec against arbitrary
// segment lists.
func FuzzSegmentRecompose(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Interpret raw bytes as a big integer; segment and recompose.
		v, err := Recompose(bytesToSegs(raw))
		if err != nil {
			return
		}
		segs, err := Segment(v)
		if err != nil {
			t.Fatalf("segment recomposed value: %v", err)
		}
		back, err := Recompose(segs)
		if err != nil || back.Cmp(v) != 0 {
			t.Fatalf("round trip mismatch: %v vs %v (%v)", v, back, err)
		}
	})
}

// bytesToSegs derives a segment list from fuzz bytes.
func bytesToSegs(raw []byte) []int64 {
	if len(raw) == 0 {
		return nil
	}
	segs := make([]int64, 0, len(raw)/4+1)
	var cur int64
	for i, b := range raw {
		cur = cur*251 + int64(b)
		if i%4 == 3 {
			segs = append(segs, cur%1000000000000000000)
			cur = 0
		}
	}
	segs = append(segs, cur%1000000000000000000)
	return segs
}
