package ingest

import (
	"fmt"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// The one hostile-input gate of relays and servers. Every node refuses a
// submission frame for the first rule it breaks, in this order
// (docs/PROTOCOL.md § Hostile-input validation):
//
//  1. bad-frame      the frame does not decode, or its packing mode is wrong
//  2. unknown-user   a user frame names a user outside [0, Users);
//     bad-bitmap     a combined frame's bitmap does
//  3. unknown-query  the instance slot names no query (the caller's lookup)
//  4. bad-length     the half's ciphertext counts are not the configured ones
//  5. slot-overflow  the frame's own declared width cannot absorb its members
//  6. bad-width      the declared packed layout is not the configured one
//  7. out-of-ring    a ciphertext lies outside [0, N²)
//  8. duplicate      a conflicting frame for a recorded user or (relay, seq);
//     overlap        a combined frame repeating covered users
//
// Steps 1–2 are Rules.UserFrame and Rules.BatchFrame, step 3 is the node's
// own, steps 4–8 are Intake.Check. A byte-identical replay of a recorded
// frame is no refusal: Check reports it and it changes nothing. A server
// refuses a new frame after its query released as late, on top.

// Rejection is a frame refused by the rules above. Reason is the step's
// name; a relay counts it in privconsensus_relay_rejected_total and a
// server in privconsensus_submissions_rejected_total.
type Rejection struct {
	Reason string
	Err    error
}

func (e *Rejection) Error() string { return fmt.Sprintf("ingest: rejected (%s): %v", e.Reason, e.Err) }
func (e *Rejection) Unwrap() error { return e.Err }

// reject builds the refusal of one rule.
func reject(reason, format string, args ...any) error {
	return &Rejection{Reason: reason, Err: fmt.Errorf(format, args...)}
}

// UnknownQuery is the refusal of a frame whose instance slot names no query
// the node serves (step 3).
func UnknownQuery(instance int) error {
	return reject("unknown-query", "instance %d names no query", instance)
}

// Rules is what a node checks every frame against: the grid, the grammar and
// the shape of a well-formed half. A server derives them from its config
// (ConfigRules), a relay from its Options and the key it pre-sums under.
type Rules struct {
	Users   int
	Classes int
	// Packed, when non-nil, admits only slot-packed frames of this layout;
	// nil admits only unpacked ones.
	Packed *PackedParams
	// Want is the ciphertext count of a well-formed half's Votes, Thresh
	// and Noisy (protocol.Config.HalfLens).
	Want [3]int
}

// ConfigRules returns the rules of cfg's submissions.
func ConfigRules(cfg protocol.Config) Rules {
	r := Rules{Users: cfg.Users, Classes: cfg.Classes, Want: cfg.HalfLens()}
	if cfg.Packing {
		r.Packed = &PackedParams{Width: cfg.PackedWidth(), PerVec: cfg.PackedCiphertexts(), Headroom: cfg.PackedHeadroomBits()}
	}
	return r
}

// Frame is one decoded submission frame: a user's half, or a relay's
// combined batch of halves.
type Frame struct {
	// Combined marks a relay batch, named by (Relay, Seq); a user frame
	// names User instead.
	Combined   bool
	Relay, Seq int64
	User       int
	Instance   int
	// Members has bit u set iff user u's half is inside Half.
	Members *big.Int
	Half    protocol.SubmissionHalf
	// Classes and Width are the declared packed layout (Width 0 unpacked).
	Classes, Width int
	// Digest is the wire frame's FrameDigest: what a replay must match.
	Digest [32]byte
}

// UserFrame decodes a user's submission frame in the configured grammar and
// checks who sent it (steps 1–2).
func (r Rules) UserFrame(msg *transport.Message) (Frame, error) {
	var f Frame
	var err error
	if r.Packed != nil {
		f.User, f.Instance, f.Classes, f.Width, f.Half, err = DecodePackedHalf(msg)
	} else {
		f.User, f.Instance, f.Half, err = DecodeHalf(msg)
	}
	if err != nil {
		return f, &Rejection{Reason: "bad-frame", Err: err}
	}
	if f.User < 0 || f.User >= r.Users {
		return f, reject("unknown-user", "user index %d outside [0, %d)", f.User, r.Users)
	}
	f.Members = new(big.Int).SetBit(new(big.Int), f.User, 1)
	f.Digest = FrameDigest(msg)
	return f, nil
}

// BatchFrame decodes a relay's combined frame and checks its packing mode
// and members (steps 1–2). Once the frame decoded, the returned frame is
// Combined and names its (Relay, Seq) even when it is refused, so the caller
// can ack the refusal; an undecodable frame has no identity to ack.
func (r Rules) BatchFrame(msg *transport.Message) (Frame, error) {
	var c Combined
	var err error
	if msg.Kind == transport.KindPacked {
		c, err = DecodePackedCombined(msg)
	} else {
		c, err = DecodeCombined(msg)
	}
	if err != nil {
		return Frame{}, &Rejection{Reason: "bad-frame", Err: err}
	}
	f := Frame{Combined: true, Relay: c.Relay, Seq: c.Seq, Instance: c.Instance,
		Members: c.Bitmap, Half: c.Half, Classes: c.Classes, Width: c.Width}
	switch {
	case (r.Packed != nil) != (c.Width > 0):
		return f, reject("bad-frame", "combined frame packing mode mismatch (frame packed=%v, node packed=%v)", c.Width > 0, r.Packed != nil)
	case c.Bitmap.BitLen() > r.Users:
		return f, reject("bad-bitmap", "batch relay=%d seq=%d bitmap names users outside [0, %d)", c.Relay, c.Seq, r.Users)
	}
	f.Digest = FrameDigest(msg)
	return f, nil
}

// batchID names one relay batch.
type batchID struct{ relay, seq int64 }

// Intake is one query's exactly-once record on one node: the covered-user
// bitmap and the digest of every recorded user frame and relay batch. It is
// not safe for concurrent use; the node serialises Check and Record.
type Intake struct {
	rules   Rules
	ring    *big.Int // N² every ciphertext must live in (nil disables the check)
	covered *big.Int
	users   map[int][32]byte
	batches map[batchID][32]byte
}

// NewIntake returns an empty intake for one query. ring is the N² modulus
// of the key the query's halves are encrypted under.
func NewIntake(rules Rules, ring *big.Int) *Intake {
	return newIntake(rules, ring, make(map[batchID][32]byte))
}

// newIntake is NewIntake over a batch-identity table the caller may share
// between intakes.
func newIntake(rules Rules, ring *big.Int, batches map[batchID][32]byte) *Intake {
	return &Intake{rules: rules, ring: ring, covered: new(big.Int), users: make(map[int][32]byte), batches: batches}
}

// Check validates a decoded frame against the query (steps 4–8) without
// recording it. replay reports a byte-identical resend of a recorded frame:
// neither new data nor a refusal.
func (in *Intake) Check(f Frame) (replay bool, err error) {
	r := in.rules
	if f.Half.Lens() != r.Want {
		return false, reject("bad-length", "half has %v ciphertexts, want %v", f.Half.Lens(), r.Want)
	}
	if p := r.Packed; p != nil {
		// The frame's own declared width is judged before the layout
		// comparison, so a lying width cannot dodge the overflow check.
		if n := Popcount(f.Members); n > p.Capacity(f.Width) {
			return false, reject("slot-overflow", "%d members but declared width %d absorbs at most %d", n, f.Width, p.Capacity(f.Width))
		}
		if f.Classes != r.Classes || f.Width != p.Width {
			return false, reject("bad-width", "packed layout %d classes x %d bits, want %d x %d", f.Classes, f.Width, r.Classes, p.Width)
		}
	}
	if in.ring != nil {
		for _, group := range [3][]*paillier.Ciphertext{f.Half.Votes, f.Half.Thresh, f.Half.Noisy} {
			for _, ct := range group {
				if ct == nil || ct.C == nil || ct.C.Sign() < 0 || ct.C.Cmp(in.ring) >= 0 {
					return false, reject("out-of-ring", "instance %d ciphertext outside [0, N²)", f.Instance)
				}
			}
		}
	}
	if !f.Combined {
		if in.covered.Bit(f.User) == 0 {
			return false, nil
		}
		// A user covered by a relay batch has no digest of its own: a
		// direct frame for it is a conflicting identity.
		if prev, ok := in.users[f.User]; ok && prev == f.Digest {
			return true, nil
		}
		return false, reject("duplicate", "conflicting resubmission from user %d (first write wins)", f.User)
	}
	if prev, ok := in.batches[batchID{f.Relay, f.Seq}]; ok {
		if prev == f.Digest {
			return true, nil
		}
		return false, reject("duplicate", "conflicting reuse of batch identity relay=%d seq=%d (first write wins)", f.Relay, f.Seq)
	}
	if new(big.Int).And(in.covered, f.Members).Sign() != 0 {
		// A pre-sum cannot be partially deduplicated.
		return false, reject("overlap", "batch relay=%d seq=%d repeats already-covered users", f.Relay, f.Seq)
	}
	return false, nil
}

// Record marks a checked frame accepted: its members covered, its digest
// the one later replays must match.
func (in *Intake) Record(f Frame) {
	in.covered.Or(in.covered, f.Members)
	if f.Combined {
		in.batches[batchID{f.Relay, f.Seq}] = f.Digest
	} else {
		in.users[f.User] = f.Digest
	}
}

// Covered returns the covered-user bitmap: bit u is set iff user u is inside
// a recorded frame. The intake keeps updating it; copy it to keep it.
func (in *Intake) Covered() *big.Int { return in.covered }
