package transport

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"testing"
)

func isFatalErr(err error) bool {
	var fatal *FatalError
	return errors.As(err, &fatal)
}

func TestBatchRoundTrip(t *testing.T) {
	items := []*Message{
		{Kind: KindBits, Values: []*big.Int{big.NewInt(10), big.NewInt(20)}},
		{Kind: KindBits, Values: []*big.Int{big.NewInt(30)}, Flags: []int64{7}},
		{Kind: KindBits, Flags: []int64{1, 2, 3}},
	}
	frame, err := WrapBatch(items)
	if err != nil {
		t.Fatalf("WrapBatch: %v", err)
	}
	if frame.Kind != KindBatch {
		t.Fatalf("frame kind = %v, want %v", frame.Kind, KindBatch)
	}
	got, err := OpenBatch(frame)
	if err != nil {
		t.Fatalf("OpenBatch: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d items, want %d", len(got), len(items))
	}
	for i, it := range got {
		if it.Kind != KindBits {
			t.Errorf("item %d kind = %v", i, it.Kind)
		}
		if len(it.Values) != len(items[i].Values) {
			t.Errorf("item %d: %d values, want %d", i, len(it.Values), len(items[i].Values))
			continue
		}
		for j, v := range it.Values {
			if v.Cmp(items[i].Values[j]) != 0 {
				t.Errorf("item %d value %d = %v, want %v", i, j, v, items[i].Values[j])
			}
		}
		if len(it.Flags) != len(items[i].Flags) {
			t.Errorf("item %d: %d flags, want %d", i, len(it.Flags), len(items[i].Flags))
			continue
		}
		for j, f := range it.Flags {
			if f != items[i].Flags[j] {
				t.Errorf("item %d flag %d = %d, want %d", i, j, f, items[i].Flags[j])
			}
		}
	}
}

func TestBatchRoundTripThroughCodec(t *testing.T) {
	// A batch frame must survive the wire codec: encode, decode, reopen.
	items := []*Message{
		{Kind: KindResult, Flags: []int64{1}},
		{Kind: KindResult, Flags: []int64{0}},
	}
	frame, err := WrapBatch(items)
	if err != nil {
		t.Fatalf("WrapBatch: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, frame); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, _, err := DecodeMessage(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := OpenBatch(decoded)
	if err != nil {
		t.Fatalf("OpenBatch after codec: %v", err)
	}
	if len(got) != 2 || got[0].Flags[0] != 1 || got[1].Flags[0] != 0 {
		t.Fatalf("decoded batch = %+v", got)
	}
}

func TestWrapBatchRejects(t *testing.T) {
	cases := []struct {
		name  string
		items []*Message
	}{
		{"empty", nil},
		{"nil item", []*Message{nil}},
		{"zero kind", []*Message{{Kind: 0}}},
		{"mux", []*Message{{Kind: KindMux}}},
		{"nested batch", []*Message{{Kind: KindBatch}}},
		{"mixed kinds", []*Message{{Kind: KindBits}, {Kind: KindResult}}},
	}
	for _, tc := range cases {
		if _, err := WrapBatch(tc.items); err == nil {
			t.Errorf("%s: WrapBatch accepted invalid input", tc.name)
		}
	}
}

func TestOpenBatchRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		msg  *Message
	}{
		{"nil", nil},
		{"wrong kind", &Message{Kind: KindBits}},
		{"no header", &Message{Kind: KindBatch}},
		{"bad inner kind", &Message{Kind: KindBatch, Flags: []int64{0, 1, 0, 0}}},
		{"inner mux", &Message{Kind: KindBatch, Flags: []int64{int64(KindMux), 1, 0, 0}}},
		{"inner batch", &Message{Kind: KindBatch, Flags: []int64{int64(KindBatch), 1, 0, 0}}},
		{"zero count", &Message{Kind: KindBatch, Flags: []int64{int64(KindBits), 0}}},
		{"count overruns", &Message{Kind: KindBatch, Flags: []int64{int64(KindBits), 2, 0, 0}}},
		{"values overrun", &Message{Kind: KindBatch, Flags: []int64{int64(KindBits), 1, 3, 0}}},
		{"negative values", &Message{Kind: KindBatch, Flags: []int64{int64(KindBits), 1, -1, 0}}},
		{"flags overrun", &Message{Kind: KindBatch, Flags: []int64{int64(KindBits), 1, 0, 9}}},
		{"negative flags", &Message{Kind: KindBatch, Flags: []int64{int64(KindBits), 1, 0, -1}}},
		{"trailing flags", &Message{Kind: KindBatch, Flags: []int64{int64(KindBits), 1, 0, 0, 5}}},
		{"trailing values", &Message{Kind: KindBatch, Flags: []int64{int64(KindBits), 1, 0, 0},
			Values: []*big.Int{big.NewInt(1)}}},
	}
	for _, tc := range cases {
		if _, err := OpenBatch(tc.msg); err == nil {
			t.Errorf("%s: OpenBatch accepted malformed frame", tc.name)
		}
	}
}

func TestExpectBatch(t *testing.T) {
	ctx := context.Background()
	a, b := Pair()
	defer a.Close()
	defer b.Close()

	frame, err := WrapBatch([]*Message{
		{Kind: KindResult, Flags: []int64{1}},
		{Kind: KindResult, Flags: []int64{0}},
	})
	if err != nil {
		t.Fatalf("WrapBatch: %v", err)
	}
	go a.Send(ctx, frame)
	items, err := ExpectBatch(ctx, b, KindResult, 2)
	if err != nil {
		t.Fatalf("ExpectBatch: %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items", len(items))
	}

	// Wrong count is fatal.
	go a.Send(ctx, frame)
	if _, err := ExpectBatch(ctx, b, KindResult, 3); err == nil || !isFatalErr(err) {
		t.Fatalf("count mismatch error = %v, want fatal", err)
	}

	// Wrong inner kind is fatal.
	go a.Send(ctx, frame)
	if _, err := ExpectBatch(ctx, b, KindBits, 2); err == nil || !isFatalErr(err) {
		t.Fatalf("kind mismatch error = %v, want fatal", err)
	}
}
