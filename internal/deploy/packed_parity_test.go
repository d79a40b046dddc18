package deploy

import (
	"math/big"
	"testing"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// TestPackedCapabilityParity pins the wire-parity contract for capPacked:
// the bit is advertised iff the resolved config packs, and a packing
// mismatch between the servers is rejected at the hello in both
// directions — before any submission frame could desynchronize the wire.
func TestPackedCapabilityParity(t *testing.T) {
	_, _, _, cfg := testSetup(t, 2)
	plain := cfg
	plain.Packing = false
	packed := cfg
	packed.Packing = true
	opts := ServerOptions{Instances: 1}

	if caps := opts.helloCaps(plain); caps&capPacked != 0 {
		t.Fatalf("unpacked hello caps = %d advertise capPacked; the bit must stay off the wire", caps)
	}
	if caps := opts.helloCaps(packed); caps&capPacked == 0 {
		t.Fatalf("packed hello caps = %d, want capPacked (%d) set", caps, capPacked)
	}
	// Agreement in both modes is accepted ...
	if err := checkPeerCaps(opts.helloCaps(plain), opts, plain); err != nil {
		t.Errorf("unpacked pair rejected: %v", err)
	}
	if err := checkPeerCaps(opts.helloCaps(packed), opts, packed); err != nil {
		t.Errorf("packed pair rejected: %v", err)
	}
	// ... and a mismatch is caught whichever side enables -packed.
	if err := checkPeerCaps(opts.helloCaps(plain), opts, packed); err == nil {
		t.Error("unpacked S2 hello accepted by a packed S1")
	}
	if err := checkPeerCaps(opts.helloCaps(packed), opts, plain); err == nil {
		t.Error("packed S2 hello accepted by an unpacked S1")
	}
}

// TestPackingOffWireParity pins the opt-out contract: with packing off, the
// user client's submission frame is byte-for-byte the legacy KindShares
// grammar (identical digest to ingest.EncodeHalf), so a fleet that never
// sets -packed on sees no wire change at all. With packing on, the same
// vote becomes a KindPacked frame: the joint Votes‖Thresh group, then Noisy.
func TestPackingOffWireParity(t *testing.T) {
	_, _, pub, cfg := testSetup(t, 3)
	cfg.Packing = false

	units := make([]*big.Int, cfg.Classes)
	for i := range units {
		units[i] = big.NewInt(0)
	}
	units[1] = big.NewInt(protocol.VoteScale)
	build := func(c protocol.Config) *protocol.Submission {
		t.Helper()
		sub, _, err := protocol.BuildSubmission(testRNG(31), testRNG(37), c, 1, units, pub.PK1, pub.PK2)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}

	sub := build(cfg)
	got, err := encodeSubmission(cfg, 1, 0, sub.ToS1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ingest.EncodeHalf(1, 0, sub.ToS1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != transport.KindShares {
		t.Fatalf("unpacked submission frame kind = %d, want KindShares (%d)", got.Kind, transport.KindShares)
	}
	if ingest.FrameDigest(got) != ingest.FrameDigest(want) {
		t.Error("packing off changed the submission wire bytes; the legacy grammar must survive unchanged")
	}

	pcfg := cfg
	pcfg.Packing = true
	psub := build(pcfg)
	pmsg, err := encodeSubmission(pcfg, 1, 0, psub.ToS1)
	if err != nil {
		t.Fatal(err)
	}
	if pmsg.Kind != transport.KindPacked {
		t.Fatalf("packed submission frame kind = %d, want KindPacked (%d)", pmsg.Kind, transport.KindPacked)
	}
	// At the 64-bit test key one slot fits per plaintext, so the joint
	// group costs 2K and the noisy group K here; the size reduction itself
	// is pinned at production key sizes by the experiments package's sizing
	// tests and the bench guard.
	if got, want := psub.ToS1.Lens(), pcfg.HalfLens(); got != want || want != [3]int{2 * cfg.Classes, 0, cfg.Classes} {
		t.Errorf("packed half carries %v ciphertexts, want %v", got, want)
	}
}
