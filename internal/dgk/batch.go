package dgk

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/transport"
)

// Batched DGK comparisons: n independent comparisons share the three-round
// structure of compare.go, but each round crosses the wire as ONE
// transport.KindBatch frame instead of n separate messages. The per-item
// cryptography — bit encryptions, blinding, permutation, zero tests — is
// identical to the single-comparison protocol; only the framing changes, so
// a batch of size 1 releases the exact same information as
// CompareSignedA/B.
//
//	1. B -> A: batch of n KindBits items (L encrypted bits each).
//	2. A -> B: batch of n KindCipherSeq items (L blinded permuted values).
//	3. B -> A: batch of n KindResult items (one ">= " flag each).
//
// par bounds the CPU workers of the three kernels of compare.go between the
// wire exchanges. The frame layout never depends on par, so servers with
// different core counts stay in lock step; with par > 1 the rng must be
// safe for concurrent draws (the protocol layer wraps it).

// CompareSignedBatchA runs party A's side of a batch of signed comparisons:
// it holds vals[i] in (-2^(L-1), 2^(L-1)) for each and learns the per-item
// bit (vals[i] >= b_i). Results are returned in input order.
func (pk *PublicKey) CompareSignedBatchA(ctx context.Context, rng io.Reader, conn transport.Conn, vals []*big.Int, par int) ([]bool, error) {
	shifted, err := shiftSignedAll(vals, pk.L)
	if err != nil {
		return nil, err
	}
	return pk.exchangeA(ctx, rng, conn, shifted, par, true)
}

// CompareSignedBatchB runs party B's side (the key owner) of the batch.
func (k *PrivateKey) CompareSignedBatchB(ctx context.Context, rng io.Reader, conn transport.Conn, vals []*big.Int, par int) ([]bool, error) {
	shifted, err := shiftSignedAll(vals, k.L)
	if err != nil {
		return nil, err
	}
	return k.exchangeB(ctx, rng, conn, shifted, par, true)
}

// shiftSignedAll maps every value through shiftSigned.
func shiftSignedAll(vals []*big.Int, l int) ([]*big.Int, error) {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		s, err := shiftSigned(v, l)
		if err != nil {
			return nil, fmt.Errorf("dgk: batch item %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}
