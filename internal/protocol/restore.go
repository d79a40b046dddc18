package protocol

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/perm"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Restoration (Alg. 3). Both servers know the permuted index pi(i~*) of the
// label with the highest noisy vote; the sub-protocol maps it back through
// pi = pi1 ∘ pi2 without revealing either permutation share, ending with
// both servers learning i~* and nothing else.
//
// The one-hot vector travels: S2 encrypts pi(e) under pk2 -> S1 strips pi1
// and masks with r1 -> S2 decrypts blindly -> S1 unmasks and re-encrypts
// under pk1 -> S2 strips pi2 and masks with r2 -> S1 decrypts blindly and
// returns -> S2 unmasks and reads off the index.

// restoreS1 runs S1's side of Alg. 3, returning the restored label index
// that S2 announces at the end.
func restoreS1(ctx context.Context, rng io.Reader, cfg Config, keys KeysS1,
	conn transport.Conn, pi1 perm.Permutation) (int, error) {
	k := cfg.Classes
	pk2 := keys.PeerPub

	// Step 1 happens at S2; receive E_pk2[pi(e)].
	msg, err := transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 1 recv: %w", err)
	}
	if len(msg.Values) != k {
		return -1, fmt.Errorf("%w: restore step 1 expected %d values, got %d", ErrPeerMismatch, k, len(msg.Values))
	}

	// Step 2: revert pi1 and add an encrypted vector mask r1.
	unpermuted, err := pi1.ApplyInverse(msg.Values)
	if err != nil {
		return -1, err
	}
	r1 := make([]*big.Int, k)
	for i := range r1 {
		if r1[i], err = mathutil.RandBits(rng, cfg.Kappa); err != nil {
			return -1, fmt.Errorf("protocol: sample restoration r1: %w", err)
		}
	}
	masked, err := foldCrossing(rng, cfg, pk2, unpermuted, r1)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 2: %w", err)
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: masked}); err != nil {
		return -1, fmt.Errorf("protocol: restore step 2 send: %w", err)
	}

	// Step 3 happens at S2; receive plaintext pi2(e) + r1.
	msg, err = transport.ExpectKind(ctx, conn, transport.KindPlainSeq)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 3 recv: %w", err)
	}
	if len(msg.Values) != k {
		return -1, fmt.Errorf("%w: restore step 3 expected %d values, got %d", ErrPeerMismatch, k, len(msg.Values))
	}

	// Step 4: strip r1 and re-encrypt under pk1.
	reenc := make([]*big.Int, k)
	if err := mathutil.ParallelFor(Workers(), k, func(i int) error {
		c, err := keys.Own.EncryptSigned(rng, new(big.Int).Sub(msg.Values[i], r1[i]))
		if err != nil {
			return fmt.Errorf("protocol: restore step 4 encrypt: %w", err)
		}
		reenc[i] = c.C
		return nil
	}); err != nil {
		return -1, err
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: reenc}); err != nil {
		return -1, fmt.Errorf("protocol: restore step 4 send: %w", err)
	}

	// Step 5 happens at S2; receive E_pk1[e + r2].
	msg, err = transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 5 recv: %w", err)
	}

	// Step 6: open blindly (r2 hides the position) and return.
	plain, err := openCrossing(cfg, keys.Own, msg.Values, 1)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 6: %w", err)
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindPlainSeq, Values: plain}); err != nil {
		return -1, fmt.Errorf("protocol: restore step 6 send: %w", err)
	}

	// S2 announces the restored label.
	res, err := transport.ExpectKind(ctx, conn, transport.KindResult)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore result recv: %w", err)
	}
	if len(res.Flags) != 1 || res.Flags[0] < 0 || res.Flags[0] >= int64(k) {
		return -1, fmt.Errorf("%w: restored label out of range", ErrPeerMismatch)
	}
	return int(res.Flags[0]), nil
}

// restoreS2 runs S2's side of Alg. 3 for the permuted winning position
// permutedIdx, returning the restored original label index.
func restoreS2(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	conn transport.Conn, pi2 perm.Permutation, permutedIdx int) (int, error) {
	k := cfg.Classes
	if permutedIdx < 0 || permutedIdx >= k {
		return -1, fmt.Errorf("protocol: permuted index %d outside [0, %d)", permutedIdx, k)
	}

	// Step 1: encrypt the permuted one-hot vector under pk2 (own key).
	oneHot, err := perm.OneHot(k, permutedIdx)
	if err != nil {
		return -1, err
	}
	enc := make([]*big.Int, k)
	if err := mathutil.ParallelFor(Workers(), k, func(i int) error {
		c, err := keys.Own.Encrypt(rng, oneHot[i])
		if err != nil {
			return fmt.Errorf("protocol: restore step 1 encrypt: %w", err)
		}
		enc[i] = c.C
		return nil
	}); err != nil {
		return -1, err
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: enc}); err != nil {
		return -1, fmt.Errorf("protocol: restore step 1 send: %w", err)
	}

	// Step 3: receive E_pk2[pi2(e) + r1], decrypt, return plaintext.
	msg, err := transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 3 recv: %w", err)
	}
	plain, err := openCrossing(cfg, keys.Own, msg.Values, 1)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 3: %w", err)
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindPlainSeq, Values: plain}); err != nil {
		return -1, fmt.Errorf("protocol: restore step 3 send: %w", err)
	}

	// Step 5: receive E_pk1[pi2(e)], revert pi2, add vector mask r2.
	msg, err = transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 5 recv: %w", err)
	}
	if len(msg.Values) != k {
		return -1, fmt.Errorf("%w: restore step 5 expected %d values, got %d", ErrPeerMismatch, k, len(msg.Values))
	}
	unpermuted, err := pi2.ApplyInverse(msg.Values)
	if err != nil {
		return -1, err
	}
	r2 := make([]*big.Int, k)
	for i := range r2 {
		if r2[i], err = mathutil.RandBits(rng, cfg.Kappa); err != nil {
			return -1, fmt.Errorf("protocol: sample restoration r2: %w", err)
		}
	}
	masked, err := foldCrossing(rng, cfg, keys.PeerPub, unpermuted, r2)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 5: %w", err)
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: masked}); err != nil {
		return -1, fmt.Errorf("protocol: restore step 5 send: %w", err)
	}

	// Step 7: receive plaintext e + r2, strip r2, read off the index.
	msg, err = transport.ExpectKind(ctx, conn, transport.KindPlainSeq)
	if err != nil {
		return -1, fmt.Errorf("protocol: restore step 7 recv: %w", err)
	}
	if len(msg.Values) != k {
		return -1, fmt.Errorf("%w: restore step 7 expected %d values, got %d", ErrPeerMismatch, k, len(msg.Values))
	}
	oneHotOut := make([]*big.Int, k)
	for i := 0; i < k; i++ {
		oneHotOut[i] = new(big.Int).Sub(msg.Values[i], r2[i])
	}
	label, err := perm.ArgOne(oneHotOut)
	if err != nil {
		return -1, fmt.Errorf("protocol: restoration produced a non-one-hot vector: %w", err)
	}

	// Announce the restored label to S1.
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindResult, Flags: []int64{int64(label)}}); err != nil {
		return -1, fmt.Errorf("protocol: restore result send: %w", err)
	}
	return label, nil
}
