package ingest

import (
	"bytes"
	"math/big"
	"testing"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// fuzzFrames runs one frame decoder over arbitrary wire bytes. seeds are
// well-formed and hostile frames of the decoder's grammar. decode returns
// the canonical re-encoding of what it accepted: a decoder may reject
// anything, but must never panic, and whatever it accepts must re-encode to
// the byte-identical frame — the relays' and servers' replay dedup keys on
// that digest.
func fuzzFrames(f *testing.F, seeds []*transport.Message, decode func(*transport.Message) (*transport.Message, error)) {
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := transport.WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, _, err := transport.DecodeMessage(data)
		if err != nil {
			return
		}
		back, err := decode(msg)
		if err != nil {
			return // rejecting garbage is fine
		}
		if FrameDigest(back) != FrameDigest(msg) {
			t.Fatalf("accepted frame does not re-encode identically: %+v vs %+v", msg, back)
		}
	})
}

// mustFrame unwraps an encoder result for seeding.
func mustFrame(f *testing.F) func(*transport.Message, error) *transport.Message {
	return func(m *transport.Message, err error) *transport.Message {
		f.Helper()
		if err != nil {
			f.Fatal(err)
		}
		return m
	}
}

// wrapCount is a class count whose triple wraps a 64-bit int to 2: a frame
// declaring it with two values once passed the length check and indexed out
// of range.
const wrapCount = (1<<64-1)/3 + 1

func big3() []*big.Int { return []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)} }

func FuzzDecodeHalf(f *testing.F) {
	must := mustFrame(f)
	fuzzFrames(f, []*transport.Message{
		must(EncodeHalf(5, 2, testHalf(3, 42))),
		{Kind: transport.KindShares, Flags: []int64{0, 0, wrapCount}, Values: big3()[:2]},
		{Kind: transport.KindShares, Flags: []int64{0, 0, -1}, Values: big3()},
	}, func(msg *transport.Message) (*transport.Message, error) {
		user, instance, half, err := DecodeHalf(msg)
		if err != nil {
			return nil, err
		}
		return EncodeHalf(user, instance, half)
	})
}

func FuzzDecodeCombined(f *testing.F) {
	must := mustFrame(f)
	fuzzFrames(f, []*transport.Message{
		must(EncodeCombined(Combined{Relay: 7, Seq: 12, Instance: 1, Bitmap: big.NewInt(0b1011), Half: testHalf(2, 9)})),
		{Kind: transport.KindShares, Flags: []int64{0, wrapCount, 1, 0, 1}, Values: big3()},
	}, func(msg *transport.Message) (*transport.Message, error) {
		c, err := DecodeCombined(msg)
		if err != nil {
			return nil, err
		}
		return EncodeCombined(c)
	})
}

// packedShapeHolds is the invariant every accepted packed half satisfies.
func packedShapeHolds(t *testing.T, h protocol.SubmissionHalf) {
	t.Helper()
	if l := h.Lens(); l[1] != 0 || l[2] < 1 || l[0] < l[2] || l[0] > 2*l[2] {
		t.Fatalf("decoder accepted a packed half of shape %v", l)
	}
}

func FuzzDecodePackedHalf(f *testing.F) {
	must := mustFrame(f)
	fuzzFrames(f, []*transport.Message{
		must(EncodePackedHalf(5, 2, 10, 91, packedTestHalf(1, 1, 42))),
		must(EncodePackedHalf(0, 0, 10, 88, packedTestHalf(2, 1, 7))), // 1024-bit keys, or the old count at 2048
		{Kind: transport.KindPacked, Flags: []int64{0, 0, 10, 91, -1 << 63}, Values: big3()},
		{Kind: transport.KindPacked, Flags: []int64{0, 0, 10, 91, 1<<63 - 1}, Values: big3()},
	}, func(msg *transport.Message) (*transport.Message, error) {
		user, instance, classes, width, half, err := DecodePackedHalf(msg)
		if err != nil {
			return nil, err
		}
		return EncodePackedHalf(user, instance, classes, width, half)
	})
}

func FuzzDecodePackedCombined(f *testing.F) {
	must := mustFrame(f)
	fuzzFrames(f, []*transport.Message{
		must(EncodePackedCombined(Combined{Relay: 7, Seq: 12, Instance: 1, Bitmap: big.NewInt(0b1011),
			Half: packedTestHalf(1, 1, 9), Width: 91, Classes: 10})),
		{Kind: transport.KindPacked, Flags: []int64{0, 10, 1, 0, 1, 91, 1<<63 - 1}, Values: big3()},
		{Kind: transport.KindPacked, Flags: []int64{0, 10, 1, 0, 1, 91, 1}},
	}, func(msg *transport.Message) (*transport.Message, error) {
		c, err := DecodePackedCombined(msg)
		if err != nil {
			return nil, err
		}
		return EncodePackedCombined(c)
	})
}

// The packed grammars round-trip, carry Thresh inside the joint group, and
// refuse shapes no slot layout produces.
func TestPackedFrameRoundtrip(t *testing.T) {
	h := packedTestHalf(2, 1, 42)
	msg, err := EncodePackedHalf(5, 2, 10, 88, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Flags) != 5 || msg.Flags[4] != 1 || len(msg.Values) != 3 {
		t.Fatalf("user frame flags %v with %d values", msg.Flags, len(msg.Values))
	}
	user, instance, classes, width, got, err := DecodePackedHalf(msg)
	if err != nil || user != 5 || instance != 2 || classes != 10 || width != 88 || got.Lens() != [3]int{2, 0, 1} {
		t.Fatalf("user round trip: %d %d %d %d %v %v", user, instance, classes, width, got.Lens(), err)
	}
	packedShapeHolds(t, got)
	cmsg, err := EncodePackedCombined(Combined{Relay: 7, Seq: 3, Instance: 1, Bitmap: big.NewInt(0b101), Half: h, Width: 88, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodePackedCombined(cmsg)
	if err != nil || c.Relay != 7 || c.Seq != 3 || c.Users() != 2 || c.Width != 88 || c.Classes != 10 || c.Half.Lens() != [3]int{2, 0, 1} {
		t.Fatalf("combined round trip: %+v %v", c, err)
	}

	for name, bad := range map[string]protocol.SubmissionHalf{
		"per-sequence half":     testHalf(1, 5),
		"joint beyond 2P":       packedTestHalf(3, 1, 5),
		"joint below P":         packedTestHalf(1, 2, 5),
		"no noisy group":        packedTestHalf(1, 0, 5),
		"nil ciphertext":        {Votes: []*paillier.Ciphertext{nil}, Noisy: testHalf(1, 5).Noisy},
		"thresh beside a joint": {Votes: testHalf(1, 5).Votes, Thresh: testHalf(1, 5).Thresh, Noisy: testHalf(1, 5).Noisy},
	} {
		if _, err := EncodePackedHalf(0, 0, 10, 88, bad); err == nil {
			t.Errorf("%s: encoded as a packed user frame", name)
		}
		if _, err := EncodePackedCombined(Combined{Bitmap: big.NewInt(1), Half: bad, Width: 88, Classes: 10}); err == nil {
			t.Errorf("%s: encoded as a packed combined frame", name)
		}
	}
	for name, flags := range map[string][]int64{
		"perVec 0":           {5, 2, 10, 88, 0},
		"perVec negative":    {5, 2, 10, 88, -1},
		"perVec above len":   {5, 2, 10, 88, 3},
		"one class":          {5, 2, 1, 88, 1},
		"zero width":         {5, 2, 10, 0, 1},
		"four flags":         {5, 2, 10, 88},
		"combined as user":   cmsg.Flags,
		"perVec wraps joint": {5, 2, 10, 88, -1 << 63},
	} {
		if _, _, _, _, _, err := DecodePackedHalf(&transport.Message{Kind: transport.KindPacked, Flags: flags, Values: msg.Values}); err == nil {
			t.Errorf("%s: flags %v decoded", name, flags)
		}
	}
	four := append(big3(), big.NewInt(4))
	if _, _, _, _, _, err := DecodePackedHalf(&transport.Message{Kind: transport.KindPacked, Flags: []int64{5, 2, 10, 88, 1}, Values: four}); err == nil {
		t.Error("joint group of 3 beside 1 noisy ciphertext decoded")
	}
	short := *cmsg
	short.Values = cmsg.Values[:1]
	if _, err := DecodePackedCombined(&short); err == nil {
		t.Error("combined frame with a bitmap and nothing else decoded")
	}
	miscount := *cmsg
	miscount.Flags = append([]int64(nil), cmsg.Flags...)
	miscount.Flags[4] = 3
	if _, err := DecodePackedCombined(&miscount); err == nil {
		t.Error("count/popcount mismatch accepted")
	}
}
