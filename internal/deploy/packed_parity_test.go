package deploy

import (
	"errors"
	"math/big"
	"testing"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// TestPackedCapabilityParity pins the one fork the peer hello still
// negotiates: capPacked is advertised iff the key file's config packs, and a
// packing mismatch between the servers is refused at the hello in both
// directions — typed, before any frame could desynchronize the wire.
func TestPackedCapabilityParity(t *testing.T) {
	_, _, _, cfg := testSetup(t, 2)
	plain := cfg
	plain.Packing = false
	packed := cfg
	packed.Packing = true
	helloOf := func(c protocol.Config) hello {
		return hello{party: partyPeer, caps: peerCaps(c), version: wireVersion}
	}

	if caps := peerCaps(plain); caps != 0 {
		t.Fatalf("unpacked hello caps = %d, want 0", caps)
	}
	if caps := peerCaps(packed); caps != capPacked {
		t.Fatalf("packed hello caps = %d, want capPacked (%d)", caps, capPacked)
	}
	// Agreement in both modes is accepted ...
	if err := checkPeerHello(helloOf(plain), plain); err != nil {
		t.Errorf("unpacked pair rejected: %v", err)
	}
	if err := checkPeerHello(helloOf(packed), packed); err != nil {
		t.Errorf("packed pair rejected: %v", err)
	}
	// ... and a mismatch is caught whichever side's key file packs.
	for _, c := range []struct{ s2, s1 protocol.Config }{{plain, packed}, {packed, plain}} {
		err := checkPeerHello(helloOf(c.s2), c.s1)
		if !errors.Is(err, protocol.ErrPeerMismatch) || transport.IsRetryable(err) {
			t.Errorf("S2 packed=%v against S1 packed=%v: err = %v, want a fatal ErrPeerMismatch", c.s2.Packing, c.s1.Packing, err)
		}
	}
}

// TestPackingOffWireParity pins the unpacked contract: a key file whose
// config does not pack (keygen writes that for 64-bit paper keys, where at
// most one slot fits a plaintext) makes the user client's submission frame
// byte-for-byte the KindShares grammar (identical digest to
// ingest.EncodeHalf). With a packing config the same vote becomes a
// KindPacked frame: the joint Votes‖Thresh group, then Noisy.
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
	// is pinned at production key sizes by TestPackedSubmissionSizeReduction.
	if got, want := psub.ToS1.Lens(), pcfg.HalfLens(); got != want || want != [3]int{2 * cfg.Classes, 0, cfg.Classes} {
		t.Errorf("packed half carries %v ciphertexts, want %v", got, want)
	}
}
