package ingest

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// testPackedSide builds one slot-packed relay pipeline over a fresh small
// Paillier key.
func testPackedSide(t *testing.T, users, instances, classes, batch int, p *PackedParams) *side {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.New(rand.NewSource(79)), 256)
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{opts: Options{
		ListenS1: "x", ListenS2: "x", UpstreamS1: "x", UpstreamS2: "x",
		RelayID: 7, Users: users, Instances: instances, Classes: classes,
		BatchSize: batch, Packed: p,
	}.withDefaults()}
	return newSide(r, "s1", sk.Public(), "x")
}

// packedTestHalf builds a packed half — joint Votes‖Thresh ciphertexts in
// Votes, no Thresh, noisy ciphertexts in Noisy — all carrying val.
func packedTestHalf(joint, noisy int, val int64) protocol.SubmissionHalf {
	return protocol.SubmissionHalf{Votes: testHalf(joint, val).Votes, Noisy: testHalf(noisy, val).Noisy}
}

// packedFrame encodes a packed submission frame with an arbitrary declared
// layout (hostile frames get to lie about classes, width and the ciphertext
// counts; joint = 2*noisy is what a client still on the per-sequence layout
// would send).
func packedFrame(t *testing.T, user, instance, classes, width, joint, noisy int, val int64) *transport.Message {
	t.Helper()
	msg, err := EncodePackedHalf(user, instance, classes, width, packedTestHalf(joint, noisy, val))
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// neverSummed fails the test if any hostile frame reached a pre-sum.
func neverSummed(t *testing.T, s *side) {
	t.Helper()
	for i, inst := range s.insts {
		if inst.open != nil || inst.covered.Sign() != 0 {
			t.Errorf("instance %d: a rejected frame was pre-summed (covered %b)", i, inst.covered)
		}
	}
}

// rejectedCount reads the relay rejection counter for one reason (global
// and cumulative, so tests diff against a snapshot).
func rejectedCount(reason string) int64 {
	return obs.Default.CounterValue("privconsensus_relay_rejected_total",
		obs.L("side", "s1"), obs.L("reason", reason))
}

// TestRelayPackedValidationReasons drives hostile packed user frames
// through a packed relay: a frame with the per-sequence layout's ciphertext
// count (or any other count) is bad-length, one whose declared width cannot
// absorb even one contribution is slot-overflow, a layout that disagrees
// with the relay's is bad-width, and an unpacked frame on a packed relay is
// a mode mismatch (bad-frame). Each rejection must also tick
// privconsensus_relay_rejected_total under its reason, and none may reach a
// pre-sum.
func TestRelayPackedValidationReasons(t *testing.T) {
	// 12 slots of 20 bits fit the 256-bit test key: at K=4 the joint group
	// and the noisy group cost one ciphertext each.
	p := &PackedParams{Width: 20, PerVec: 1, Headroom: 10}
	s := testPackedSide(t, 4, 2, 4, 3, p)
	if s.rules.Want != [3]int{1, 0, 1} {
		t.Fatalf("relay derived half shape %v, want [1 0 1]", s.rules.Want)
	}
	cases := []struct {
		name   string
		msg    *transport.Message
		reason string
	}{
		{"mode-mismatch", userFrame(t, 0, 0, 4, 5), "bad-frame"},
		{"unknown-user", packedFrame(t, 9, 0, 4, 20, 1, 1, 5), "unknown-user"},
		{"unknown-query", packedFrame(t, 0, 5, 4, 20, 1, 1, 5), "unknown-query"},
		{"old-count", packedFrame(t, 0, 0, 4, 20, 2, 1, 5), "bad-length"},
		{"wrong-pervec", packedFrame(t, 0, 0, 4, 20, 2, 2, 5), "bad-length"},
		// Width 10 equals the headroom: Capacity(10) = 0, so the frame
		// could not hold even its own user's contribution.
		{"slot-overflow", packedFrame(t, 0, 0, 4, 10, 1, 1, 5), "slot-overflow"},
		{"wrong-width", packedFrame(t, 0, 0, 4, 21, 1, 1, 5), "bad-width"},
		{"wrong-classes", packedFrame(t, 0, 0, 5, 20, 1, 1, 5), "bad-width"},
	}
	for _, tc := range cases {
		before := rejectedCount(tc.reason)
		b, err := s.addUser(tc.msg)
		if b != nil {
			t.Errorf("%s: sealed a batch from a hostile frame", tc.name)
		}
		if got := rejectReason(t, err); got != tc.reason {
			t.Errorf("%s: reason = %q, want %q", tc.name, got, tc.reason)
		}
		if after := rejectedCount(tc.reason); after != before+1 {
			t.Errorf("%s: rejection counter %q moved %d -> %d, want +1", tc.name, tc.reason, before, after)
		}
	}
	neverSummed(t, s)
	// A layout-conforming frame is accepted — the hostile ones above did
	// not poison the pipeline.
	if _, err := s.addUser(packedFrame(t, 0, 0, 4, 20, 1, 1, 5)); err != nil {
		t.Errorf("conforming packed frame rejected: %v", err)
	}
}

// TestRelayPackedPresumIsPositionWise: a relay needs no knowledge of which
// sequences share a ciphertext — it multiplies position by position. At K=8
// the joint group spans two ciphertexts (16 slots over 12 per plaintext)
// and the noisy group one; two users seal into one combined frame of that
// same shape whose every position holds the product of the two inputs.
func TestRelayPackedPresumIsPositionWise(t *testing.T) {
	p := &PackedParams{Width: 20, PerVec: 1, Headroom: 10}
	s := testPackedSide(t, 4, 1, 8, 2, p)
	if s.rules.Want != [3]int{2, 0, 1} {
		t.Fatalf("relay derived half shape %v, want [2 0 1]", s.rules.Want)
	}
	if b, err := s.addUser(packedFrame(t, 0, 0, 8, 20, 2, 1, 5)); err != nil || b != nil {
		t.Fatalf("first frame: batch %v, err %v", b, err)
	}
	b, err := s.addUser(packedFrame(t, 3, 0, 8, 20, 2, 1, 7))
	if err != nil || b == nil {
		t.Fatalf("second frame: batch %v, err %v", b, err)
	}
	c, err := DecodePackedCombined(b.msg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Half.Lens() != s.rules.Want || c.Users() != 2 || c.Bitmap.Int64() != 0b1001 {
		t.Fatalf("combined frame: shape %v, %d users, bitmap %b", c.Half.Lens(), c.Users(), c.Bitmap)
	}
	for _, ct := range append(c.Half.Votes, c.Half.Noisy...) {
		if ct.C.Int64() != 35 {
			t.Fatalf("pre-summed ciphertext = %v, want 5*7", ct.C)
		}
	}
}

// TestRelayUnpackedRejectsPackedFrame is the mode mismatch in the other
// direction: an unpacked relay must refuse KindPacked frames as bad-frame
// rather than misparse them.
func TestRelayUnpackedRejectsPackedFrame(t *testing.T) {
	s, _ := testSide(t, 4, 1, 2, 3)
	if _, err := s.addUser(packedFrame(t, 0, 0, 2, 20, 1, 1, 5)); rejectReason(t, err) != "bad-frame" {
		t.Errorf("packed frame on unpacked relay: %v", err)
	}
}

// TestRelayPackedChildValidation drives hostile packed combined batches
// through a packed mid-tier relay: a child still summing the per-sequence
// layout's ciphertext count is bad-length, a batch claiming more members
// than any slot of its declared width could have absorbed is slot-overflow,
// a disagreeing layout is bad-width, and an unpacked combined frame is a
// mode mismatch. All are acked BatchRejected so the child stops resending,
// and none is merged.
func TestRelayPackedChildValidation(t *testing.T) {
	p := &PackedParams{Width: 20, PerVec: 1, Headroom: 10}
	s := testPackedSide(t, 8, 1, 4, 100, p)
	packedChild := func(seq int64, bitmap int64, classes, width, joint, noisy int) *transport.Message {
		t.Helper()
		msg, err := EncodePackedCombined(Combined{
			Relay: 3, Seq: seq, Instance: 0, Bitmap: big.NewInt(bitmap),
			Half: packedTestHalf(joint, noisy, 5), Width: width, Classes: classes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	cases := []struct {
		name   string
		msg    *transport.Message
		reason string
	}{
		{"old-count", packedChild(0, 0b11, 4, 20, 2, 1), "bad-length"},
		{"wrong-pervec", packedChild(5, 0b11, 4, 20, 2, 2), "bad-length"},
		// Width 11 absorbs Capacity(11) = 2 contributions; a bitmap
		// naming three members overflowed its own declared slots.
		{"slot-overflow", packedChild(1, 0b111, 4, 11, 1, 1), "slot-overflow"},
		{"wrong-width", packedChild(2, 0b11, 4, 21, 1, 1), "bad-width"},
		{"wrong-classes", packedChild(3, 0b11, 5, 20, 1, 1), "bad-width"},
	}
	// Mode mismatch: an unpacked combined frame (Width = 0) on a packed
	// relay.
	unpacked, err := EncodeCombined(Combined{Relay: 3, Seq: 4, Instance: 0,
		Bitmap: big.NewInt(0b11), Half: testHalf(4, 5)})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name   string
		msg    *transport.Message
		reason string
	}{"mode-mismatch", unpacked, "bad-frame"})

	for _, tc := range cases {
		before := rejectedCount(tc.reason)
		b, ack, err := s.addChild(tc.msg)
		if b != nil {
			t.Errorf("%s: sealed a batch from a hostile child frame", tc.name)
		}
		if ackStatus(ack) != BatchRejected {
			t.Errorf("%s: ack status = %d, want BatchRejected", tc.name, ackStatus(ack))
		}
		if got := rejectReason(t, err); got != tc.reason {
			t.Errorf("%s: reason = %q, want %q", tc.name, got, tc.reason)
		}
		if after := rejectedCount(tc.reason); after != before+1 {
			t.Errorf("%s: rejection counter %q moved %d -> %d, want +1", tc.name, tc.reason, before, after)
		}
	}
	neverSummed(t, s)
	// A conforming packed child batch still merges after the hostility.
	if _, ack, err := s.addChild(packedChild(9, 0b11, 4, 20, 1, 1)); err != nil || ackStatus(ack) != BatchAccepted {
		t.Errorf("conforming packed child batch refused: %v (status %d)", err, ackStatus(ack))
	}
	// And the other mode mismatch: a packed combined frame on an unpacked
	// relay.
	u, _ := testSide(t, 8, 1, 4, 100)
	if _, ack, err := u.addChild(packedChild(0, 0b11, 4, 20, 1, 1)); rejectReason(t, err) != "bad-frame" || ackStatus(ack) != BatchRejected {
		t.Errorf("packed child batch on unpacked relay: %v (status %d)", err, ackStatus(ack))
	}
}

// A relay whose configured per-sequence count contradicts what its keys and
// slot width imply would reject every honest frame; it refuses to start.
func TestRelayPackedOptionsMustMatchKeys(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.New(rand.NewSource(79)), 256)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		ListenS1: "x", ListenS2: "x", UpstreamS1: "x", UpstreamS2: "x",
		Users: 4, Instances: 1, Classes: 4, PK1: sk.Public(), PK2: sk.Public(),
		Packed: &PackedParams{Width: 20, PerVec: 1, Headroom: 10},
	}
	if err := opts.validate(); err != nil {
		t.Fatalf("consistent packed layout refused: %v", err)
	}
	opts.Packed.PerVec = 2
	if err := opts.validate(); err == nil {
		t.Fatal("PerVec = 2 accepted although 4 classes x 20 bits fit one 256-bit plaintext")
	}
}
