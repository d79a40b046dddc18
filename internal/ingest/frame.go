// Package ingest implements the tree-structured aggregator ingestion tier:
// stateless relay nodes that sit between users and the protocol servers,
// validate submission frames through the one intake the servers run too
// (intake.go: the hostile-input rules, their order and reasons, and
// exactly-once dedup), homomorphically pre-sum validated batches under the
// destination server's peer public key, and forward one combined submission
// plus a participant bitmap upstream. Because Paillier addition is ciphertext
// multiplication mod N² — commutative and associative — a relay's pre-sum
// aggregates to the byte-identical ciphertext vector the server would have
// computed from the individual frames, so the protocol outcome is exactly
// the direct-ingestion outcome (protocol.Group carries the pre-sum in).
//
// Wire protocol. Relays speak the deploy wire protocol on both ends:
//
//	hello    := Message{Kind: KindControl, Flags: [party (, caps)]}
//	submit   := Message{Kind: KindShares,
//	                    Flags: [user, instance, classes],
//	                    Values: votes || thresh || noisy}        (3K values)
//	combined := Message{Kind: KindShares,
//	                    Flags: [instance, classes, relay, seq, count],
//	                    Values: [bitmap] || votes || thresh || noisy}
//	batchAck := Message{Kind: KindControl,
//	                    Flags: [110, relay, seq, status]}
//
// A relay identifies itself upstream with PartyRelay and the CapPresum
// capability bit; the upstream (a parent relay or a server) acks every
// combined frame so the relay can retransmit over a reconnect. Replays are
// idempotent: a (relay, seq) pair with an identical frame digest is
// tolerated, a conflicting one is rejected first-write-wins (Intake.Check).
package ingest

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/bits"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Party identifiers in hello frames. PartyUser and PartyPeer mirror the
// deploy package's wire constants; PartyRelay is new with the ingestion
// tier.
const (
	PartyUser  int64 = 1
	PartyPeer  int64 = 2
	PartyRelay int64 = 3
)

// CapPresum is the hello capability bit a relay advertises upstream: the
// connection carries combined (pre-summed) frames and expects per-batch
// acks. An acceptor that does not recognize the bit drops the connection,
// so a relay can never feed a pre-capability server silently.
const CapPresum int64 = 16

// CapPacked is the hello capability bit marking a connection that
// carries slot-packed submission frames (KindPacked grammar below). The
// servers' peer hello also exchanges it so both servers agree on the
// packing mode before any submission is accepted; a mismatch drops the
// connection rather than silently mixing frame grammars.
const CapPacked int64 = 32

// Control codes on the user/relay ingestion path. CtrlUploadDone and
// CtrlUploadAck mirror the deploy session protocol (a relay answers them on
// behalf of the server so resilient user uploads confirm against the relay
// that holds their frames); CtrlBatchAck is new with the ingestion tier.
const (
	CtrlUploadDone int64 = 102
	CtrlUploadAck  int64 = 103
	// CtrlBatchAck confirms one combined frame upstream:
	// Flags [110, relay, seq, status] with status 0 = accepted (or
	// tolerated replay), 1 = rejected by upstream validation.
	CtrlBatchAck int64 = 110
)

// Batch ack statuses (Flags[3] of a CtrlBatchAck frame).
const (
	BatchAccepted int64 = 0
	BatchRejected int64 = 1
)

// EncodeHalf packs one user's submission half for one instance into a wire
// message. This is the canonical encoder for the deploy submit frame; the
// deploy package delegates here.
func EncodeHalf(user, instance int, h protocol.SubmissionHalf) (*transport.Message, error) {
	k := len(h.Votes)
	if k == 0 || len(h.Thresh) != k || len(h.Noisy) != k {
		return nil, fmt.Errorf("ingest: malformed submission half (%d/%d/%d ciphertexts)",
			len(h.Votes), len(h.Thresh), len(h.Noisy))
	}
	values := make([]*big.Int, 0, 3*k)
	for _, group := range [][]*paillier.Ciphertext{h.Votes, h.Thresh, h.Noisy} {
		for _, c := range group {
			if c == nil || c.C == nil {
				return nil, fmt.Errorf("ingest: nil ciphertext in submission")
			}
			values = append(values, c.C)
		}
	}
	return &transport.Message{
		Kind:   transport.KindShares,
		Flags:  []int64{int64(user), int64(instance), int64(k)},
		Values: values,
	}, nil
}

// DecodeHalf unpacks a wire submission frame.
func DecodeHalf(msg *transport.Message) (user, instance int, half protocol.SubmissionHalf, err error) {
	if msg.Kind != transport.KindShares || len(msg.Flags) != 3 {
		return 0, 0, half, fmt.Errorf("ingest: malformed submission frame")
	}
	k := int(msg.Flags[2])
	if k <= 0 || k > len(msg.Values) || len(msg.Values) != 3*k { // k > len: 3*k must not wrap
		return 0, 0, half, fmt.Errorf("ingest: submission frame has %d values for %d classes", len(msg.Values), k)
	}
	half.Votes = toCiphertexts(msg.Values[:k])
	half.Thresh = toCiphertexts(msg.Values[k : 2*k])
	half.Noisy = toCiphertexts(msg.Values[2*k:])
	return int(msg.Flags[0]), int(msg.Flags[1]), half, nil
}

// packedCountsOK reports whether a packed half's ciphertext counts can come
// from one slot layout: the Noisy group costs P = ⌈K/S⌉ ciphertexts and the
// joint Votes‖Thresh group ⌈2K/S⌉, which lies in [P, 2P]. The exact joint
// count depends on the key size and is the collector's (or relay's) check.
func packedCountsOK(joint, noisy int) bool { return noisy >= 1 && joint >= noisy && joint <= 2*noisy }

// packedValues flattens a packed half behind head: the joint Votes‖Thresh
// group (carried in Votes; Thresh stays empty), then the Noisy group.
func packedValues(head []*big.Int, h protocol.SubmissionHalf) ([]*big.Int, error) {
	if len(h.Thresh) != 0 || !packedCountsOK(len(h.Votes), len(h.Noisy)) {
		return nil, fmt.Errorf("ingest: malformed packed half (%d/%d/%d ciphertexts)",
			len(h.Votes), len(h.Thresh), len(h.Noisy))
	}
	for _, group := range [][]*paillier.Ciphertext{h.Votes, h.Noisy} {
		for _, c := range group {
			if c == nil || c.C == nil {
				return nil, fmt.Errorf("ingest: nil ciphertext in packed submission")
			}
			head = append(head, c.C)
		}
	}
	return head, nil
}

// packedHalf cuts a packed frame's ciphertexts back into the joint group
// and the perVec-long Noisy group.
func packedHalf(values []*big.Int, perVec int) (half protocol.SubmissionHalf, ok bool) {
	joint := len(values) - perVec
	if !packedCountsOK(joint, perVec) {
		return half, false
	}
	half.Votes = toCiphertexts(values[:joint])
	half.Noisy = toCiphertexts(values[joint:])
	return half, true
}

// EncodePackedHalf packs one user's slot-packed submission half into its
// wire frame: Flags [user, instance, classes, width, perVec] and the joint
// Votes‖Thresh group followed by the perVec ciphertexts of the Noisy group.
// classes and width describe the slot layout so relays can validate shape
// and overflow capacity without key material.
func EncodePackedHalf(user, instance, classes, width int, h protocol.SubmissionHalf) (*transport.Message, error) {
	if classes < 2 || width < 1 {
		return nil, fmt.Errorf("ingest: packed half needs classes >= 2 and width >= 1 (got %d/%d)", classes, width)
	}
	values, err := packedValues(nil, h)
	if err != nil {
		return nil, err
	}
	return &transport.Message{
		Kind:   transport.KindPacked,
		Flags:  []int64{int64(user), int64(instance), int64(classes), int64(width), int64(len(h.Noisy))},
		Values: values,
	}, nil
}

// DecodePackedHalf unpacks a packed wire submission frame.
func DecodePackedHalf(msg *transport.Message) (user, instance, classes, width int, half protocol.SubmissionHalf, err error) {
	if msg.Kind != transport.KindPacked || len(msg.Flags) != 5 {
		return 0, 0, 0, 0, half, fmt.Errorf("ingest: malformed packed submission frame")
	}
	classes = int(msg.Flags[2])
	width = int(msg.Flags[3])
	half, ok := packedHalf(msg.Values, int(msg.Flags[4]))
	if classes < 2 || width < 1 || !ok {
		return 0, 0, 0, 0, half, fmt.Errorf("ingest: packed frame has %d values for %d noisy ciphertexts", len(msg.Values), msg.Flags[4])
	}
	return int(msg.Flags[0]), int(msg.Flags[1]), classes, width, half, nil
}

// toCiphertexts wraps raw wire values as ciphertexts (unvalidated; ring
// membership is the collector's job).
func toCiphertexts(vs []*big.Int) []*paillier.Ciphertext {
	out := make([]*paillier.Ciphertext, len(vs))
	for i, v := range vs {
		out[i] = &paillier.Ciphertext{C: v}
	}
	return out
}

// Combined is one relay batch: the homomorphic sum of the bitmap members'
// submission halves for one instance, attested by relay Relay with
// per-relay sequence number Seq.
type Combined struct {
	Relay    int64
	Seq      int64
	Instance int
	// Bitmap has bit u set iff user u's validated frame is summed into
	// Half.
	Bitmap *big.Int
	Half   protocol.SubmissionHalf
	// Width > 0 marks Half as slot-packed with that slot width; Classes
	// then carries the logical class count K. Unpacked frames leave Width
	// zero.
	Width   int
	Classes int
}

// EncodeCombined packs a relay batch into its wire frame. The frame is
// distinguished from a per-user submit frame by its flag count (5 vs 3).
func EncodeCombined(c Combined) (*transport.Message, error) {
	k := len(c.Half.Votes)
	if k == 0 || len(c.Half.Thresh) != k || len(c.Half.Noisy) != k {
		return nil, fmt.Errorf("ingest: malformed combined half (%d/%d/%d ciphertexts)",
			len(c.Half.Votes), len(c.Half.Thresh), len(c.Half.Noisy))
	}
	if c.Bitmap == nil || c.Bitmap.Sign() <= 0 {
		return nil, fmt.Errorf("ingest: combined frame needs a non-empty participant bitmap")
	}
	values := make([]*big.Int, 0, 1+3*k)
	values = append(values, c.Bitmap)
	for _, group := range [][]*paillier.Ciphertext{c.Half.Votes, c.Half.Thresh, c.Half.Noisy} {
		for _, ct := range group {
			if ct == nil || ct.C == nil {
				return nil, fmt.Errorf("ingest: nil ciphertext in combined frame")
			}
			values = append(values, ct.C)
		}
	}
	return &transport.Message{
		Kind:   transport.KindShares,
		Flags:  []int64{int64(c.Instance), int64(k), c.Relay, c.Seq, int64(Popcount(c.Bitmap))},
		Values: values,
	}, nil
}

// DecodeCombined unpacks and shape-checks a combined frame. The declared
// member count must match the bitmap population — a mismatch means the
// frame was corrupted or forged.
func DecodeCombined(msg *transport.Message) (Combined, error) {
	var c Combined
	if msg.Kind != transport.KindShares || len(msg.Flags) != 5 {
		return c, fmt.Errorf("ingest: malformed combined frame")
	}
	k := int(msg.Flags[1])
	if k <= 0 || k > len(msg.Values) || len(msg.Values) != 1+3*k { // k > len: 3*k must not wrap
		return c, fmt.Errorf("ingest: combined frame has %d values for %d classes", len(msg.Values), k)
	}
	bm := msg.Values[0]
	if bm == nil || bm.Sign() <= 0 {
		return c, fmt.Errorf("ingest: combined frame bitmap is empty or negative")
	}
	if want := int(msg.Flags[4]); Popcount(bm) != want {
		return c, fmt.Errorf("ingest: combined frame declares %d members but bitmap has %d", want, Popcount(bm))
	}
	c.Instance = int(msg.Flags[0])
	c.Relay = msg.Flags[2]
	c.Seq = msg.Flags[3]
	c.Bitmap = bm
	c.Classes = k
	cts := msg.Values[1:]
	c.Half.Votes = toCiphertexts(cts[:k])
	c.Half.Thresh = toCiphertexts(cts[k : 2*k])
	c.Half.Noisy = toCiphertexts(cts[2*k:])
	return c, nil
}

// EncodePackedCombined packs a slot-packed relay batch into its wire
// frame: Flags [instance, classes, relay, seq, count, width, perVec] and
// bitmap + the ciphertexts of a packed user frame, summed position-wise.
// The 7-flag arity distinguishes it from a 5-flag packed per-user submit
// frame.
func EncodePackedCombined(c Combined) (*transport.Message, error) {
	if c.Width < 1 || c.Classes < 2 {
		return nil, fmt.Errorf("ingest: packed combined frame needs width >= 1 and classes >= 2 (got %d/%d)", c.Width, c.Classes)
	}
	if c.Bitmap == nil || c.Bitmap.Sign() <= 0 {
		return nil, fmt.Errorf("ingest: packed combined frame needs a non-empty participant bitmap")
	}
	values, err := packedValues([]*big.Int{c.Bitmap}, c.Half)
	if err != nil {
		return nil, err
	}
	return &transport.Message{
		Kind: transport.KindPacked,
		Flags: []int64{int64(c.Instance), int64(c.Classes), c.Relay, c.Seq,
			int64(Popcount(c.Bitmap)), int64(c.Width), int64(len(c.Half.Noisy))},
		Values: values,
	}, nil
}

// DecodePackedCombined unpacks and shape-checks a packed combined frame.
func DecodePackedCombined(msg *transport.Message) (Combined, error) {
	var c Combined
	if msg.Kind != transport.KindPacked || len(msg.Flags) != 7 {
		return c, fmt.Errorf("ingest: malformed packed combined frame")
	}
	k := int(msg.Flags[1])
	width := int(msg.Flags[5])
	if k < 2 || width < 1 || len(msg.Values) < 1 {
		return c, fmt.Errorf("ingest: packed combined frame declares %d classes x %d bits in %d values", k, width, len(msg.Values))
	}
	half, ok := packedHalf(msg.Values[1:], int(msg.Flags[6]))
	if !ok {
		return c, fmt.Errorf("ingest: packed combined frame has %d values for %d noisy ciphertexts", len(msg.Values), msg.Flags[6])
	}
	bm := msg.Values[0]
	if bm == nil || bm.Sign() <= 0 {
		return c, fmt.Errorf("ingest: packed combined frame bitmap is empty or negative")
	}
	if want := int(msg.Flags[4]); Popcount(bm) != want {
		return c, fmt.Errorf("ingest: packed combined frame declares %d members but bitmap has %d", want, Popcount(bm))
	}
	c.Instance = int(msg.Flags[0])
	c.Relay = msg.Flags[2]
	c.Seq = msg.Flags[3]
	c.Bitmap = bm
	c.Classes = k
	c.Width = width
	c.Half = half
	return c, nil
}

// FrameDigest is the canonical content digest of one wire frame: SHA-256
// over the frame's codec encoding. Relays and servers key their replay
// dedup on it, so a byte-identical retransmission (after a reconnect) is
// tolerated while a conflicting reuse of the same identity is rejected.
func FrameDigest(msg *transport.Message) (out [32]byte) {
	h := sha256.New()
	// The codec encoding is deterministic; an encode error (nil value)
	// cannot happen for frames that passed Encode*/Decode*.
	_ = transport.WriteMessage(h, msg)
	h.Sum(out[:0])
	return out
}

// SendHello identifies this connection's party (and capabilities) to the
// acceptor, in the deploy hello wire format.
func SendHello(ctx context.Context, conn transport.Conn, party, caps int64) error {
	flags := []int64{party}
	if caps != 0 {
		flags = append(flags, caps)
	}
	return conn.Send(ctx, &transport.Message{Kind: transport.KindControl, Flags: flags})
}

// RecvHello reads and validates a hello frame on a relay's ingestion
// listener: users and child relays are welcome, anything else is not.
func RecvHello(ctx context.Context, conn transport.Conn) (party, caps int64, err error) {
	msg, err := transport.ExpectKind(ctx, conn, transport.KindControl)
	if err != nil {
		return 0, 0, fmt.Errorf("ingest: hello: %w", err)
	}
	if len(msg.Flags) < 1 || len(msg.Flags) > 2 ||
		(msg.Flags[0] != PartyUser && msg.Flags[0] != PartyRelay) {
		return 0, 0, fmt.Errorf("ingest: invalid hello frame")
	}
	if len(msg.Flags) == 2 {
		caps = msg.Flags[1]
	}
	return msg.Flags[0], caps, nil
}

// Popcount returns the number of set bits in a participant bitmap (nil: 0).
func Popcount(bm *big.Int) int {
	if bm == nil {
		return 0
	}
	n := 0
	for _, w := range bm.Bits() {
		n += bits.OnesCount(uint(w))
	}
	return n
}

// BitmapIndices returns the set bit positions below users, ascending.
func BitmapIndices(bm *big.Int, users int) []int {
	if bm == nil {
		return nil
	}
	out := make([]int, 0, Popcount(bm))
	for i, w := range bm.Bits() {
		for w := uint(w); w != 0; w &= w - 1 {
			u := i*bits.UintSize + bits.TrailingZeros(w)
			if u >= users {
				return out
			}
			out = append(out, u)
		}
	}
	return out
}
