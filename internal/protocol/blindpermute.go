package protocol

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/perm"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Blind-and-Permute (Alg. 2). S1 enters holding sequences encrypted under
// pk2, S2 enters holding the matching sequences encrypted under pk1. Both
// leave holding plaintext sequences permuted by the shared-but-unknown
// permutation pi = pi1 ∘ pi2 and biased by a common scalar r = r1 + r2 per
// sequence pair:
//
//	S1: pi(a + r)    S2: pi(b + r)
//
// The masks r1, r2 are scalars (one per sequence pair) because pairwise
// comparisons must cancel them (the paper's "common bias"); the re-encryption
// blind r3 is a full vector since it cancels exactly (DESIGN.md note 1).
//
// Multiple sequence pairs run under the same (pi1, pi2) in one invocation,
// as Alg. 5 step 3 requires for the vote and threshold sequences.
//
// In packed mode S1 enters with the invocation's sequences still slot-packed
// as one group (⌈nSeq·K/S⌉ ciphertexts): step 1 adds r1_s to every slot of
// sequence s and S2 splits what it decrypts, so S2 reads the same a_j + r1
// as in the unpacked protocol — and nothing else — without an unpack round
// for S1's half. S2's sequences are per-class in both modes (see unpack.go).

// bpResult is one party's output of one Blind-and-Permute invocation.
type bpResult struct {
	// Plain[s] = pi(seq_s + r_s) as signed integers.
	Plain [][]*big.Int
	// Pi is the party's private permutation share (pi1 at S1, pi2 at S2),
	// needed for Restoration.
	Pi perm.Permutation
}

// bpS1GroupLen is the number of ciphertexts S1 brings to a Blind-and-Permute
// over nSeq sequences: one per class and sequence, or the packed group.
func bpS1GroupLen(cfg Config, nSeq int) int {
	if cfg.Packing {
		return cfg.packedGroup(nSeq)
	}
	return nSeq * cfg.Classes
}

// maskGroup adds masks[j] to value j of S1's group: one AddPlain per class,
// or, packed, per ciphertext with the masks slot-aligned. The slot width
// leaves kappa bits of headroom above the worst-case sum, so sum + n*Bias +
// r (r < 2^kappa) cannot carry into the neighbouring slot.
func maskGroup(cfg Config, pk *paillier.PublicKey, group []*paillier.Ciphertext,
	masks []*big.Int, nSeq int) ([]*big.Int, error) {
	if cfg.Packing {
		return addPacked(pk, cfg.packedLayout(nSeq), group, masks)
	}
	out := make([]*big.Int, len(group))
	for i, c := range group {
		mc, err := pk.AddPlain(c, masks[i])
		if err != nil {
			return nil, fmt.Errorf("protocol: mask class %d: %w", i, err)
		}
		out[i] = mc.C
	}
	return out, nil
}

// applyPerSeq maps every k-long sequence of vals through a permutation
// (perm.Permutation's Apply or ApplyInverse).
func applyPerSeq(apply func([]*big.Int) ([]*big.Int, error), vals []*big.Int, k int) ([]*big.Int, error) {
	out := make([]*big.Int, 0, len(vals))
	for lo := 0; lo < len(vals); lo += k {
		permuted, err := apply(vals[lo : lo+k])
		if err != nil {
			return nil, err
		}
		out = append(out, permuted...)
	}
	return out, nil
}

// blindPermuteS1 runs S1's side of Alg. 2 over conn for a group of nSeq
// encrypted sequences (all under pk2): their nSeq·K per-class ciphertexts
// back to back, or the slot-packed group in packed mode.
func blindPermuteS1(ctx context.Context, rng io.Reader, cfg Config, keys KeysS1,
	conn transport.Conn, group []*paillier.Ciphertext, nSeq int) (*bpResult, error) {
	k := cfg.Classes
	if want := bpS1GroupLen(cfg, nSeq); len(group) != want {
		return nil, fmt.Errorf("protocol: %d-sequence group has %d ciphertexts, want %d", nSeq, len(group), want)
	}
	pk2 := keys.PeerPub

	// Step 1: add scalar mask r1_s to every class of sequence s and ship
	// to S2.
	r1, err := randBits(rng, nSeq, cfg.Kappa)
	if err != nil {
		return nil, fmt.Errorf("protocol: sample r1: %w", err)
	}
	masks := make([]*big.Int, nSeq*k)
	for s, r := range r1 {
		for j := 0; j < k; j++ {
			masks[s*k+j] = r
		}
	}
	masked, err := maskGroup(cfg, pk2, group, masks, nSeq)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: masked, Flags: []int64{int64(nSeq)}}); err != nil {
		return nil, fmt.Errorf("protocol: B&P step 1 send: %w", err)
	}

	// Step 2 happens at S2; receive pi2-permuted plaintext sequences.
	msg, err := transport.ExpectKind(ctx, conn, transport.KindPlainSeq)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 2 recv: %w", err)
	}
	if len(msg.Values) != nSeq*k {
		return nil, fmt.Errorf("%w: B&P step 2 expected %d values, got %d", ErrPeerMismatch, nSeq*k, len(msg.Values))
	}

	// Step 3: apply pi1 to each sequence; these are S1's outputs.
	pi1, err := perm.New(rng, k)
	if err != nil {
		return nil, fmt.Errorf("protocol: sample pi1: %w", err)
	}
	out := make([][]*big.Int, nSeq)
	for s := 0; s < nSeq; s++ {
		seq := msg.Values[s*k : (s+1)*k]
		permuted, err := pi1.Apply(seq)
		if err != nil {
			return nil, err
		}
		out[s] = permuted
	}

	// Step 3 (cont.): send E_pk1[r1_s] so S2 can build its own sequences.
	encR1 := make([]*big.Int, nSeq)
	for s, r := range r1 {
		c, err := keys.Own.Encrypt(rng, r)
		if err != nil {
			return nil, fmt.Errorf("protocol: encrypt r1: %w", err)
		}
		encR1[s] = c.C
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: encR1}); err != nil {
		return nil, fmt.Errorf("protocol: B&P step 3 send: %w", err)
	}

	// Step 4 happens at S2; receive E_pk1[pi2(b + r1 + r2) + r3], folded,
	// and the per-class E_pk2[-r3].
	msg, err = transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 4 recv: %w", err)
	}
	nFold := cfg.crossLen(nSeq)
	if len(msg.Values) != nFold+nSeq*k {
		return nil, fmt.Errorf("%w: B&P step 4 expected %d values, got %d", ErrPeerMismatch, nFold+nSeq*k, len(msg.Values))
	}

	// Step 5: open with sk1, permute the plaintexts and S2's E_pk2[-r3] by
	// pi1 alike, and fold the one onto the other: r3 cancels under pk2.
	plain, err := openCrossing(cfg, keys.Own, msg.Values[:nFold], nSeq)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 5: %w", err)
	}
	if plain, err = applyPerSeq(pi1.Apply, plain, k); err != nil {
		return nil, err
	}
	negR3, err := applyPerSeq(pi1.Apply, msg.Values[nFold:], k)
	if err != nil {
		return nil, err
	}
	folded, err := foldCrossing(rng, cfg, pk2, negR3, plain)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 5: %w", err)
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: folded}); err != nil {
		return nil, fmt.Errorf("protocol: B&P step 5 send: %w", err)
	}

	return &bpResult{Plain: out, Pi: pi1}, nil
}

// blindPermuteS2 runs S2's side of Alg. 2 for the matching sequences (all
// under pk1, per-class in both modes). nUsers is the (public) participant
// count whose per-user slot bias packed mode strips in step 2.
func blindPermuteS2(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	conn transport.Conn, seqs [][]*paillier.Ciphertext, nUsers int) (*bpResult, error) {
	k := cfg.Classes
	nSeq := len(seqs)
	for s, seq := range seqs {
		if len(seq) != k {
			return nil, fmt.Errorf("protocol: sequence %d has length %d, want %d", s, len(seq), k)
		}
	}
	pk1 := keys.PeerPub

	// Step 2: receive E_pk2[a + r1], decrypt, add r2, permute by pi2.
	msg, err := transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 2 recv: %w", err)
	}
	if len(msg.Flags) != 1 || msg.Flags[0] != int64(nSeq) || len(msg.Values) != bpS1GroupLen(cfg, nSeq) {
		return nil, fmt.Errorf("%w: B&P step 2 malformed batch", ErrPeerMismatch)
	}
	pi2, err := perm.New(rng, k)
	if err != nil {
		return nil, fmt.Errorf("protocol: sample pi2: %w", err)
	}
	// The masks draw from rng up front (fixed order), then the Paillier
	// decryptions — randomness-free — fan out across workers.
	r2, err := randBits(rng, nSeq, cfg.Kappa)
	if err != nil {
		return nil, fmt.Errorf("protocol: sample r2: %w", err)
	}
	// decrypted holds the signed a_j + r1, sequence-major.
	var decrypted []*big.Int
	if cfg.Packing {
		// Each slot reads sum_j + n*Bias + r1; stripping the public bias
		// leaves the value the unpacked path decrypts.
		layout := cfg.packedLayout(nSeq)
		if decrypted, err = decryptSlots(cfg, keys.Own, layout, msg.Values); err != nil {
			return nil, fmt.Errorf("protocol: B&P step 2: %w", err)
		}
		shift := new(big.Int).Mul(big.NewInt(int64(nUsers)), layout.Bias)
		for _, v := range decrypted {
			v.Sub(v, shift)
		}
	} else if decrypted, err = decryptSignedAll(cfg, keys.Own, msg.Values); err != nil {
		return nil, fmt.Errorf("protocol: B&P step 2: %w", err)
	}
	for idx, v := range decrypted {
		v.Add(v, r2[idx/k])
	}
	plainOut, err := applyPerSeq(pi2.Apply, decrypted, k)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindPlainSeq, Values: plainOut}); err != nil {
		return nil, fmt.Errorf("protocol: B&P step 2 send: %w", err)
	}

	// Step 3 (cont.): receive E_pk1[r1_s].
	msg, err = transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 3 recv: %w", err)
	}
	if len(msg.Values) != nSeq {
		return nil, fmt.Errorf("%w: B&P step 3 expected %d masks, got %d", ErrPeerMismatch, nSeq, len(msg.Values))
	}
	encR1 := msg.Values

	// Step 4: E_pk1[pi2(b + r1) + r2 + r3], folded with r2 + r3 as the
	// plaintext addend, plus per-class E_pk2[-r3] for S1 to permute.
	withR1 := make([]*big.Int, nSeq*k)
	r3, err := randBits(rng, nSeq*k, cfg.Kappa) // one mask per permuted position
	if err != nil {
		return nil, fmt.Errorf("protocol: sample r3: %w", err)
	}
	addends := make([]*big.Int, nSeq*k)
	for idx := range r3 {
		s := idx / k
		c, err := pk1.Add(seqs[s][idx%k], &paillier.Ciphertext{C: encR1[s]})
		if err != nil {
			return nil, fmt.Errorf("protocol: B&P step 4 add r1: %w", err)
		}
		withR1[idx] = c.C
		addends[idx] = new(big.Int).Add(r2[s], r3[idx])
	}
	permuted, err := applyPerSeq(pi2.Apply, withR1, k)
	if err != nil {
		return nil, err
	}
	// Fresh encryptions of -r3 dominate step 4's CPU cost; fan out.
	encNegR3 := make([]*big.Int, nSeq*k)
	if err := mathutil.ParallelFor(Workers(), nSeq*k, func(_, idx int) error {
		c, err := keys.Own.EncryptSigned(rng, new(big.Int).Neg(r3[idx]))
		if err != nil {
			return fmt.Errorf("protocol: B&P step 4 encrypt -r3: %w", err)
		}
		encNegR3[idx] = c.C
		return nil
	}); err != nil {
		return nil, err
	}
	folded, err := foldCrossing(rng, cfg, pk1, permuted, addends)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 4: %w", err)
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: append(folded, encNegR3...)}); err != nil {
		return nil, fmt.Errorf("protocol: B&P step 4 send: %w", err)
	}

	// Step 6: receive the folded E_pk2[pi(b + r1 + r2)] and open it.
	msg, err = transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 6 recv: %w", err)
	}
	final, err := openCrossing(cfg, keys.Own, msg.Values, nSeq)
	if err != nil {
		return nil, fmt.Errorf("protocol: B&P step 6: %w", err)
	}
	out := make([][]*big.Int, nSeq)
	for s := 0; s < nSeq; s++ {
		out[s] = final[s*k : (s+1)*k]
	}
	return &bpResult{Plain: out, Pi: pi2}, nil
}
