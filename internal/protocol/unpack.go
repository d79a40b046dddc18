package protocol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Blinded interactive unpack of the S2-held half. In packed mode each
// server finishes a secure-sum phase holding one packed group — the nSeq
// sequences that share the next Blind-and-Permute, laid out in one slot
// stream of ⌈nSeq·K/S⌉ ciphertexts — instead of K per-class ciphertexts per
// sequence. S1's group (under pk2) needs no unpack: Blind-and-Permute's
// first act is to show it, masked, to the key owner S2, so S1 masks it
// packed and S2 splits what it decrypts (blindPermuteS1 step 1). S2's group
// (under pk1) does: Alg. 2 step 4 has S2 permute per-class ciphertexts it
// cannot read. S2 therefore adds a per-slot statistical blind (packed, so
// one AddPlain per ciphertext), ships the blinded group to the key owner S1
// in one frame, and gets back nSeq·K fresh per-class encryptions of the
// blinded slot values; stripping the blind (plus the public
// participant-count bias) homomorphically yields exactly the per-class
// aggregate ciphertexts the unpacked path aggregates directly. S1 only ever
// sees slot sums shifted by a uniform blind kappa bits wider than the sum
// bound — the same statistical-blinding argument as Blind-and-Permute's
// masked decryptions.
//
// Wire order on the (sequential) peer link:
//
//	1. S2 -> S1: S2's blinded packed group          (⌈nSeq*K/S⌉ values)
//	2. S1 -> S2: per-class re-encryptions under pk1 (nSeq*K values)

// unpackBlinds draws one fresh blind per slot of the group, each uniform in
// [0, 2^(Width-1)) — kappa bits wider than any slot sum.
func unpackBlinds(rng io.Reader, layout paillier.Packing) ([]*big.Int, error) {
	out, err := randBits(rng, layout.Count, layout.Width-1)
	if err != nil {
		return nil, fmt.Errorf("protocol: sample unpack blind: %w", err)
	}
	return out, nil
}

// addPacked adds the slot-aligned masks to a packed group: one AddPlain per
// packed ciphertext.
func addPacked(pk *paillier.PublicKey, layout paillier.Packing,
	group []*paillier.Ciphertext, masks []*big.Int) ([]*big.Int, error) {
	if len(group) != layout.Plaintexts() {
		return nil, fmt.Errorf("protocol: packed group has %d ciphertexts, want %d", len(group), layout.Plaintexts())
	}
	packed, err := layout.PackRaw(masks)
	if err != nil {
		return nil, fmt.Errorf("protocol: pack slot masks: %w", err)
	}
	out := make([]*big.Int, len(group))
	for i, c := range group {
		mc, err := pk.AddPlain(c, packed[i])
		if err != nil {
			return nil, fmt.Errorf("protocol: mask packed group: %w", err)
		}
		out[i] = mc.C
	}
	return out, nil
}

// decryptSlots plays the key owner's read of a packed group: decrypt its
// ciphertexts and split them into the nSeq·K raw slot values (slot j
// carries sum_j + n*Bias plus whatever mask the holder added). All slot
// values are non-negative by construction, so the unsigned decrypt avoids
// the signed-residue boundary that full-width packed plaintexts would
// otherwise straddle.
func decryptSlots(cfg Config, sk *paillier.PrivateKey, layout paillier.Packing,
	values []*big.Int) ([]*big.Int, error) {
	packed := make([]*big.Int, len(values))
	if err := mathutil.ParallelFor(Workers(), len(values), func(_, i int) error {
		m, err := sk.Decrypt(&paillier.Ciphertext{C: values[i]})
		if err != nil {
			return fmt.Errorf("protocol: packed decrypt: %w", err)
		}
		packed[i] = m
		return nil
	}); err != nil {
		return nil, err
	}
	slots, err := layout.Split(packed)
	if err != nil {
		return nil, fmt.Errorf("protocol: packed split: %w", err)
	}
	return slots, nil
}

// reencryptSlots plays the unpack's key owner: read the blinded slot values
// and return fresh per-class encryptions of them (still blinded) under the
// owner's own key.
func reencryptSlots(rng io.Reader, cfg Config, sk *paillier.PrivateKey,
	layout paillier.Packing, values []*big.Int) ([]*big.Int, error) {
	slots, err := decryptSlots(cfg, sk, layout, values)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(slots))
	if err := mathutil.ParallelFor(Workers(), len(slots), func(_, idx int) error {
		c, err := sk.Encrypt(rng, slots[idx])
		if err != nil {
			return fmt.Errorf("protocol: unpack re-encrypt: %w", err)
		}
		out[idx] = c.C
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// stripBlinds removes the blinds and the aggregate bias from the returned
// per-class ciphertexts — slot j carried sum_j + n*Bias + r_j, so
// subtracting r_j + n*Bias leaves E[sum_j] — and cuts the slot stream back
// into its K-long sequences.
func stripBlinds(pk *paillier.PublicKey, layout paillier.Packing, k int,
	values, blinds []*big.Int, nUsers int) ([][]*paillier.Ciphertext, error) {
	nBias := new(big.Int).Mul(big.NewInt(int64(nUsers)), layout.Bias)
	out := make([][]*paillier.Ciphertext, len(values)/k)
	for j, v := range values {
		strip := new(big.Int).Add(blinds[j], nBias)
		c, err := pk.AddPlain(&paillier.Ciphertext{C: v}, strip.Neg(strip))
		if err != nil {
			return nil, fmt.Errorf("protocol: strip unpack blind: %w", err)
		}
		out[j/k] = append(out[j/k], c)
	}
	return out, nil
}

// Crossings. Whenever a K-long sequence of small values crosses the peer link
// as ciphertexts for its key owner to read — Blind-and-Permute steps 4
// (S2→S1) and 5 (S1→S2), Restoration steps 2 (S1→S2) and 5 (S2→S1) — the
// sender holds per-class ciphertexts it cannot read and has just permuted,
// plus a plaintext addend per class (its masks, or what it decrypted). It
// folds each sequence into crossLayout's packed ciphertexts
// (paillier.Packing.Fold) and the owner opens each with one decryption. Some
// of these ciphertexts are the owner's own: the fold's fresh blinding factor
// is what keeps the owner from dividing out the plaintext and matching the
// remainder against the nonces on its own random tape, which would hand it
// the sender's permutation share. One slot per plaintext degenerates to
// mask + re-randomise per class, the paper's frames.

// foldCrossing folds nSeq sequences (cts and addends hold them back to
// back, under pk) into crossLen(nSeq) ciphertexts, across the workers.
func foldCrossing(rng io.Reader, cfg Config, pk *paillier.PublicKey, cts, addends []*big.Int) ([]*big.Int, error) {
	layout := cfg.crossLayout()
	k, p := cfg.Classes, layout.Plaintexts()
	wrapped := make([]*paillier.Ciphertext, len(cts))
	for i, c := range cts {
		wrapped[i] = &paillier.Ciphertext{C: c}
	}
	out := make([]*big.Int, len(cts)/k*p)
	err := mathutil.ParallelFor(Workers(), len(out), func(_, idx int) error {
		s := idx / p
		c, err := layout.Fold(rng, pk, idx%p, wrapped[s*k:(s+1)*k], addends[s*k:(s+1)*k])
		if err != nil {
			return fmt.Errorf("protocol: fold sequence %d: %w", s, err)
		}
		out[idx] = c.C
		return nil
	})
	return out, err
}

// openCrossing is the key owner's read of nSeq folded sequences: the signed
// values, sequence-major. A plaintext no honest fold produces is the peer's
// fault, not a local one.
func openCrossing(cfg Config, sk *paillier.PrivateKey, values []*big.Int, nSeq int) ([]*big.Int, error) {
	layout := cfg.crossLayout()
	k, p := cfg.Classes, layout.Plaintexts()
	if len(values) != nSeq*p {
		return nil, fmt.Errorf("%w: expected %d folded ciphertexts, got %d", ErrPeerMismatch, nSeq*p, len(values))
	}
	out := make([]*big.Int, nSeq*k)
	err := mathutil.ParallelFor(Workers(), len(values), func(_, idx int) error {
		vals, err := layout.Unfold(sk, idx%p, &paillier.Ciphertext{C: values[idx]})
		if errors.Is(err, paillier.ErrSlotRange) {
			return fmt.Errorf("%w: %v", ErrPeerMismatch, err)
		}
		if err != nil {
			return fmt.Errorf("protocol: open folded sequence %d: %w", idx/p, err)
		}
		copy(out[idx/p*k+idx%p*layout.Slots:], vals)
		return nil
	})
	return out, err
}

// unpackS1 runs S1's side of the blinded unpack: key owner for S2's packed
// group of nSeq sequences. S1's own aggregates stay packed.
func unpackS1(ctx context.Context, rng io.Reader, cfg Config, keys KeysS1,
	conn transport.Conn, nSeq int) error {
	layout := cfg.packedLayout(nSeq)

	// Step 1: receive S2's blinded packed group (under pk1).
	msg, err := transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return fmt.Errorf("protocol: unpack step 1 recv: %w", err)
	}
	if len(msg.Flags) != 1 || msg.Flags[0] != int64(nSeq) || len(msg.Values) != layout.Plaintexts() {
		return fmt.Errorf("%w: unpack step 1 malformed batch", ErrPeerMismatch)
	}

	// Step 2: decrypt, split, re-encrypt per class under pk1, return.
	re, err := reencryptSlots(rng, cfg, keys.Own, layout, msg.Values)
	if err != nil {
		return err
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: re}); err != nil {
		return fmt.Errorf("protocol: unpack step 2 send: %w", err)
	}
	return nil
}

// unpackS2 runs S2's side: holder of the packed group of nSeq aggregate
// sequences (under pk1). nUsers is the (public) participant count whose
// per-user bias the strip removes. Returns the nSeq per-class aggregate
// sequences under pk1.
func unpackS2(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	conn transport.Conn, group []*paillier.Ciphertext, nSeq, nUsers int) ([][]*paillier.Ciphertext, error) {
	layout := cfg.packedLayout(nSeq)

	// Step 1: blind own packed group and ship to the key owner S1.
	blinds, err := unpackBlinds(rng, layout)
	if err != nil {
		return nil, err
	}
	blinded, err := addPacked(keys.PeerPub, layout, group, blinds)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: blinded, Flags: []int64{int64(nSeq)}}); err != nil {
		return nil, fmt.Errorf("protocol: unpack step 1 send: %w", err)
	}

	// Step 2: receive our per-class re-encryptions and strip the blinds.
	msg, err := transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return nil, fmt.Errorf("protocol: unpack step 2 recv: %w", err)
	}
	if len(msg.Flags) != 0 || len(msg.Values) != layout.Count {
		return nil, fmt.Errorf("%w: unpack step 2 expected %d unflagged values, got %d", ErrPeerMismatch, layout.Count, len(msg.Values))
	}
	return stripBlinds(keys.PeerPub, layout, cfg.Classes, msg.Values, blinds, nUsers)
}
