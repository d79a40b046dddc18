package ingest

import (
	"fmt"
	"math/big"
	"testing"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

// testHalf builds a well-shaped submission half whose ciphertexts all carry
// the given value (shape and ring validation only — no real crypto).
func testHalf(classes int, val int64) protocol.SubmissionHalf {
	group := func() []*paillier.Ciphertext {
		out := make([]*paillier.Ciphertext, classes)
		for i := range out {
			out[i] = &paillier.Ciphertext{C: big.NewInt(val)}
		}
		return out
	}
	return protocol.SubmissionHalf{Votes: group(), Thresh: group(), Noisy: group()}
}

func TestHalfRoundtrip(t *testing.T) {
	h := testHalf(3, 42)
	msg, err := EncodeHalf(5, 2, h)
	if err != nil {
		t.Fatal(err)
	}
	user, instance, got, err := DecodeHalf(msg)
	if err != nil {
		t.Fatal(err)
	}
	if user != 5 || instance != 2 || len(got.Votes) != 3 || got.Votes[0].C.Int64() != 42 {
		t.Errorf("roundtrip = user %d instance %d votes %v", user, instance, got.Votes)
	}
}

func TestCombinedRoundtrip(t *testing.T) {
	bm := big.NewInt(0b1011) // users 0, 1, 3
	c := Combined{Relay: 7, Seq: 12, Instance: 1, Bitmap: bm, Half: testHalf(2, 9)}
	if c.Users() != 3 {
		t.Fatalf("Users() = %d, want 3", c.Users())
	}
	msg, err := EncodeCombined(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCombined(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relay != 7 || got.Seq != 12 || got.Instance != 1 ||
		got.Bitmap.Cmp(bm) != 0 || len(got.Half.Votes) != 2 {
		t.Errorf("roundtrip = %+v", got)
	}
}

func TestCombinedRejectsMalformedFrames(t *testing.T) {
	good, err := EncodeCombined(Combined{Relay: 1, Seq: 0, Instance: 0,
		Bitmap: big.NewInt(0b11), Half: testHalf(2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	// Declared member count diverging from the bitmap population.
	bad := *good
	bad.Flags = append([]int64(nil), good.Flags...)
	bad.Flags[4] = 5
	if _, err := DecodeCombined(&bad); err == nil {
		t.Error("count/popcount mismatch accepted")
	}
	// Wrong flag arity (a per-user submit frame is not a combined frame).
	user, _ := EncodeHalf(0, 0, testHalf(2, 5))
	if _, err := DecodeCombined(user); err == nil {
		t.Error("3-flag user frame decoded as combined")
	}
	// Empty bitmap refused at encode time.
	if _, err := EncodeCombined(Combined{Relay: 1, Bitmap: new(big.Int), Half: testHalf(2, 5)}); err == nil {
		t.Error("empty bitmap encoded")
	}
	// Truncated values.
	bad2 := *good
	bad2.Values = good.Values[:3]
	if _, err := DecodeCombined(&bad2); err == nil {
		t.Error("truncated combined frame accepted")
	}
}

func TestFrameDigestDetectsTampering(t *testing.T) {
	msg, err := EncodeHalf(0, 0, testHalf(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	d1 := FrameDigest(msg)
	if d2 := FrameDigest(msg); d1 != d2 {
		t.Fatal("digest is not deterministic")
	}
	msg2, _ := EncodeHalf(0, 0, testHalf(2, 6))
	if FrameDigest(msg2) == d1 {
		t.Error("distinct frames share a digest")
	}
}

func TestBitmapHelpers(t *testing.T) {
	const users = 6
	bit := func(positions ...int) *big.Int {
		bm := new(big.Int)
		for _, u := range positions {
			bm.SetBit(bm, u, 1)
		}
		return bm
	}
	cases := []struct {
		name    string
		bm      *big.Int
		count   int
		indices []int
	}{
		{"nil", nil, 0, nil},
		{"zero", new(big.Int), 0, nil},
		{"mixed", big.NewInt(0b101001), 3, []int{0, 3, 5}},
		{"bit at users-1", bit(users - 1), 1, []int{users - 1}},
		// Popcount counts every set bit; BitmapIndices stops below users.
		{"bit at users", bit(users), 1, nil},
		{"bit beyond one word", bit(2, 70), 2, []int{2}},
	}
	for _, c := range cases {
		if got := Popcount(c.bm); got != c.count {
			t.Errorf("%s: Popcount = %d, want %d", c.name, got, c.count)
		}
		if got := BitmapIndices(c.bm, users); fmt.Sprint(got) != fmt.Sprint(c.indices) {
			t.Errorf("%s: BitmapIndices = %v, want %v", c.name, got, c.indices)
		}
	}
}

// Users serves the tests only: the codec counts a batch's members with
// Popcount.
func (c Combined) Users() int { return Popcount(c.Bitmap) }
