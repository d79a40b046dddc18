package protocol

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Blinded interactive unpack of the S2-held half. In packed mode each
// server finishes a secure-sum phase holding P packed ciphertexts per
// sequence instead of K per-class ones. S1's aggregates (under pk2) need no
// unpack: Blind-and-Permute's first act is to show them, masked, to the key
// owner S2, so S1 masks them packed and S2 splits what it decrypts
// (blindPermuteS1 step 1). S2's aggregates (under pk1) do: Alg. 2 step 4 has
// S2 permute per-class ciphertexts it cannot read. S2 therefore adds a
// per-slot statistical blind (packed, so one AddPlain per ciphertext),
// ships the blinded aggregate to the key owner S1 in one frame, and gets
// back K fresh per-class encryptions of the blinded slot values; stripping
// the blind (plus the public participant-count bias) homomorphically yields
// exactly the per-class aggregate ciphertexts the unpacked path aggregates
// directly. S1 only ever sees slot sums shifted by a uniform blind kappa
// bits wider than the sum bound — the same statistical-blinding argument as
// Blind-and-Permute's masked decryptions — and one round trip covers all
// sequences of a phase.
//
// Wire order on the (sequential) peer link:
//
//	1. S2 -> S1: S2's blinded packed aggregates  (nSeq*P values)
//	2. S1 -> S2: per-class re-encryptions under pk1 (nSeq*K values)

// unpackBlinds draws one fresh blind per class for each sequence, each
// uniform in [0, 2^(Width-1)) — kappa bits wider than any slot sum.
func unpackBlinds(rng io.Reader, layout paillier.Packing, nSeq int) ([][]*big.Int, error) {
	out := make([][]*big.Int, nSeq)
	for s := range out {
		out[s] = make([]*big.Int, layout.Count)
		for j := range out[s] {
			r, err := mathutil.RandBits(rng, layout.Width-1)
			if err != nil {
				return nil, fmt.Errorf("protocol: sample unpack blind: %w", err)
			}
			out[s][j] = r
		}
	}
	return out, nil
}

// blindPacked masks each packed sequence with its slot-aligned blinds:
// one AddPlain per packed ciphertext.
func blindPacked(pk *paillier.PublicKey, layout paillier.Packing,
	seqs [][]*paillier.Ciphertext, blinds [][]*big.Int) ([]*big.Int, error) {
	p := layout.Plaintexts()
	out := make([]*big.Int, 0, len(seqs)*p)
	for s, seq := range seqs {
		if len(seq) != p {
			return nil, fmt.Errorf("protocol: packed sequence %d has %d ciphertexts, want %d", s, len(seq), p)
		}
		mask, err := layout.PackRaw(blinds[s])
		if err != nil {
			return nil, fmt.Errorf("protocol: pack unpack blinds: %w", err)
		}
		for i, c := range seq {
			mc, err := pk.AddPlain(c, mask[i])
			if err != nil {
				return nil, fmt.Errorf("protocol: blind packed sequence %d: %w", s, err)
			}
			out = append(out, mc.C)
		}
	}
	return out, nil
}

// decryptSlots plays the key owner's read of packed aggregates: decrypt the
// P ciphertexts of each of the nSeq sequences in values and split them into
// K raw slot values (slot j carries sum_j + n*Bias plus whatever mask the
// holder added). All slot values are non-negative by construction, so the
// unsigned decrypt avoids the signed-residue boundary that full-width
// packed plaintexts would otherwise straddle.
func decryptSlots(cfg Config, sk *paillier.PrivateKey, layout paillier.Packing,
	values []*big.Int, nSeq int) ([][]*big.Int, error) {
	p := layout.Plaintexts()
	slots := make([][]*big.Int, nSeq)
	err := parallelFor(cfg.parallelism(), nSeq, func(s int) error {
		packed := make([]*big.Int, p)
		for i := 0; i < p; i++ {
			m, err := sk.Decrypt(&paillier.Ciphertext{C: values[s*p+i]})
			if err != nil {
				return fmt.Errorf("protocol: packed decrypt: %w", err)
			}
			packed[i] = m
		}
		split, err := layout.Split(packed)
		if err != nil {
			return fmt.Errorf("protocol: packed split: %w", err)
		}
		slots[s] = split
		return nil
	})
	return slots, err
}

// reencryptSlots plays the unpack's key owner: read the blinded slot values
// and return fresh per-class encryptions of them (still blinded) under the
// owner's own key.
func reencryptSlots(rng io.Reader, cfg Config, sk *paillier.PrivateKey,
	layout paillier.Packing, values []*big.Int, nSeq int) ([]*big.Int, error) {
	k := layout.Count
	slots, err := decryptSlots(cfg, sk, layout, values, nSeq)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, nSeq*k)
	if err := parallelFor(cfg.parallelism(), nSeq*k, func(idx int) error {
		c, err := sk.Encrypt(rng, slots[idx/k][idx%k])
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

// stripBlinds removes the blinds and the aggregate bias from the
// returned per-class ciphertexts: slot j carried sum_j + n*Bias + r_j,
// so subtracting r_j + n*Bias leaves E[sum_j].
func stripBlinds(pk *paillier.PublicKey, layout paillier.Packing,
	values []*big.Int, blinds [][]*big.Int, nUsers int) ([][]*paillier.Ciphertext, error) {
	k := layout.Count
	nBias := new(big.Int).Mul(big.NewInt(int64(nUsers)), layout.Bias)
	out := make([][]*paillier.Ciphertext, len(blinds))
	for s := range blinds {
		out[s] = make([]*paillier.Ciphertext, k)
		for j := 0; j < k; j++ {
			strip := new(big.Int).Add(blinds[s][j], nBias)
			c, err := pk.AddPlain(&paillier.Ciphertext{C: values[s*k+j]}, strip.Neg(strip))
			if err != nil {
				return nil, fmt.Errorf("protocol: strip unpack blind: %w", err)
			}
			out[s][j] = c
		}
	}
	return out, nil
}

// unpackS1 runs S1's side of the blinded unpack: key owner for S2's nSeq
// packed aggregate sequences. S1's own aggregates stay packed.
func unpackS1(ctx context.Context, rng io.Reader, cfg Config, keys KeysS1,
	conn transport.Conn, nSeq int) error {
	layout := cfg.packedLayout()

	// Step 1: receive S2's blinded packed aggregates (under pk1).
	msg, err := transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return fmt.Errorf("protocol: unpack step 1 recv: %w", err)
	}
	if len(msg.Flags) != 1 || msg.Flags[0] != int64(nSeq) || len(msg.Values) != nSeq*layout.Plaintexts() {
		return fmt.Errorf("%w: unpack step 1 malformed batch", ErrPeerMismatch)
	}

	// Step 2: decrypt, split, re-encrypt per class under pk1, return.
	re, err := reencryptSlots(rng, cfg, keys.Own, layout, msg.Values, nSeq)
	if err != nil {
		return err
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: re}); err != nil {
		return fmt.Errorf("protocol: unpack step 2 send: %w", err)
	}
	return nil
}

// unpackS2 runs S2's side: holder of the packed aggregate sequences seqs
// (under pk1). nUsers is the (public) participant count whose per-user bias
// the strip removes. Returns per-class aggregate sequences under pk1.
func unpackS2(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	conn transport.Conn, seqs [][]*paillier.Ciphertext, nUsers int) ([][]*paillier.Ciphertext, error) {
	layout := cfg.packedLayout()
	nSeq := len(seqs)
	k := layout.Count

	// Step 1: blind own packed aggregates and ship to the key owner S1.
	blinds, err := unpackBlinds(rng, layout, nSeq)
	if err != nil {
		return nil, err
	}
	blinded, err := blindPacked(keys.PeerPub, layout, seqs, blinds)
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
	if len(msg.Flags) != 0 || len(msg.Values) != nSeq*k {
		return nil, fmt.Errorf("%w: unpack step 2 expected %d unflagged values, got %d", ErrPeerMismatch, nSeq*k, len(msg.Values))
	}
	return stripBlinds(keys.PeerPub, layout, msg.Values, blinds, nUsers)
}
