package ingest

import (
	"bytes"
	"math/big"
	"slices"
	"testing"

	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// intakeReasons is the documented refusal list (docs/PROTOCOL.md
// § Hostile-input validation) without the servers' late.
var intakeReasons = []string{"bad-frame", "unknown-user", "bad-bitmap", "unknown-query",
	"bad-length", "slot-overflow", "bad-width", "out-of-ring", "duplicate", "overlap"}

// FuzzIntake feeds an arbitrary sequence of user and combined frames, packed
// or not by the mode flag, through one query's intake the way a relay side
// does: decode in the rules, refuse a frame for another instance as
// unknown-query, check, record. No sequence may panic it; the covered bitmap
// is always the OR of the accepted frames' members; no user is ever covered
// twice; sending any frame a second time changes nothing (an accepted frame
// comes back a replay, a refused one with the same reason); and every
// refusal names a documented reason.
func FuzzIntake(f *testing.F) {
	rules := func(packed bool) Rules {
		if packed {
			return Rules{Users: 4, Classes: 4, Packed: &PackedParams{Width: 20, PerVec: 1, Headroom: 10}, Want: [3]int{1, 0, 1}}
		}
		return Rules{Users: 4, Classes: 2, Want: [3]int{2, 2, 2}}
	}
	ring := big.NewInt(1 << 20)
	for _, packed := range []bool{false, true} {
		r := rules(packed)
		half := func(v int64) protocol.SubmissionHalf {
			if packed {
				return packedTestHalf(1, 1, v)
			}
			return testHalf(r.Classes, v)
		}
		user := func(u, instance int, v int64) *transport.Message {
			encode := func() (*transport.Message, error) { return EncodeHalf(u, instance, half(v)) }
			if packed {
				encode = func() (*transport.Message, error) {
					return EncodePackedHalf(u, instance, r.Classes, r.Packed.Width, half(v))
				}
			}
			m, err := encode()
			if err != nil {
				f.Fatal(err)
			}
			return m
		}
		batch := func(relay, seq, bitmap, v int64) *transport.Message {
			c := Combined{Relay: relay, Seq: seq, Bitmap: big.NewInt(bitmap), Half: half(v)}
			encode := EncodeCombined
			if packed {
				c.Width, c.Classes = r.Packed.Width, r.Classes
				encode = EncodePackedCombined
			}
			m, err := encode(c)
			if err != nil {
				f.Fatal(err)
			}
			return m
		}
		for _, seq := range [][]*transport.Message{
			{user(0, 0, 5), user(0, 0, 5), user(0, 0, 6), batch(3, 0, 0b0110, 5), batch(3, 0, 0b0110, 5), batch(3, 0, 0b1000, 6)},
			{batch(3, 0, 0b0011, 5), user(1, 0, 5), batch(3, 1, 0b0101, 5), user(2, 1, 5), batch(4, 0, 1<<4, 5), user(7, 0, 5)},
			{user(0, 0, 1<<20), batch(5, 0, 0b1000, 1<<21), user(3, 0, 5), {Kind: transport.KindBatch, Flags: []int64{1}}},
		} {
			var buf bytes.Buffer
			for _, m := range seq {
				if err := transport.WriteMessage(&buf, m); err != nil {
					f.Fatal(err)
				}
			}
			f.Add(buf.Bytes(), packed)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, packed bool) {
		r := rules(packed)
		in := NewIntake(r, ring)
		accepted := new(big.Int) // OR of the accepted frames' members
		// admit runs one frame through the intake; record adds it if new.
		admit := func(msg *transport.Message, record bool) (replay bool, reason string) {
			decode := r.UserFrame
			if (msg.Kind == transport.KindShares && len(msg.Flags) == 5) || (msg.Kind == transport.KindPacked && len(msg.Flags) == 7) {
				decode = r.BatchFrame
			}
			fr, err := decode(msg)
			if err == nil && fr.Instance != 0 {
				err = UnknownQuery(fr.Instance)
			}
			if err == nil {
				replay, err = in.Check(fr)
			}
			if err != nil {
				rej, ok := err.(*Rejection)
				if !ok || !slices.Contains(intakeReasons, rej.Reason) {
					t.Fatalf("frame %v refused with an undocumented error: %v", msg.Flags, err)
				}
				return false, rej.Reason
			}
			if !replay && record {
				if new(big.Int).And(accepted, fr.Members).Sign() != 0 {
					t.Fatalf("frame %v accepted although its members %b are already covered (%b)", msg.Flags, fr.Members, accepted)
				}
				in.Record(fr)
				accepted.Or(accepted, fr.Members)
			}
			return replay, ""
		}
		for rest, n := data, 0; n < 32; n++ {
			msg, used, err := transport.DecodeMessage(rest)
			if err != nil {
				break
			}
			rest = rest[used:]
			replay, reason := admit(msg, true)
			if in.Covered().Cmp(accepted) != 0 {
				t.Fatalf("covered %b, accepted frames name %b", in.Covered(), accepted)
			}
			before := new(big.Int).Set(in.Covered())
			again, reasonAgain := admit(msg, false)
			switch {
			case in.Covered().Cmp(before) != 0:
				t.Fatalf("resending frame %v changed the covered set", msg.Flags)
			case reason == "" && !again:
				t.Fatalf("resent frame %v (first a replay: %v) is not a replay: %q", msg.Flags, replay, reasonAgain)
			case reason != reasonAgain:
				t.Fatalf("resent frame %v refused as %q, first as %q", msg.Flags, reasonAgain, reason)
			}
		}
	})
}
