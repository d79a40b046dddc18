package dgk

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Batched DGK comparisons: n independent comparisons share the three-round
// structure of compare.go, but each round crosses the wire as ONE
// transport.KindBatch frame instead of n separate messages. The per-item
// cryptography — bit encryptions, blinding, permutation, zero tests — is
// identical to the single-comparison protocol; only the framing changes, so
// a batch of size 1 releases the exact same information as CompareA/B.
//
//	1. B -> A: batch of n KindBits items (L encrypted bits each).
//	2. A -> B: batch of n KindCipherSeq items (L blinded permuted values).
//	3. B -> A: batch of n KindResult items (one ">= " flag each).
//
// par bounds the CPU workers used for the per-item compute between the wire
// exchanges. The frame layout never depends on par, so servers with
// different core counts stay in lock step; with par > 1 the rng must be
// safe for concurrent draws (the protocol layer wraps it).

// forEachItem runs fn(0)..fn(n-1), inline and in order when par <= 1, else
// on up to par workers, returning the first error.
func forEachItem(par, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						stop.Store(true)
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// CompareBatchA runs party A's side of a batch of comparisons: it holds
// vals[i] for each and learns the per-item bit (vals[i] >= b_i). Results are
// returned in input order.
func (pk *PublicKey) CompareBatchA(ctx context.Context, rng io.Reader, conn transport.Conn, vals []*big.Int, par int) ([]bool, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("dgk: empty comparison batch")
	}
	for i, v := range vals {
		if err := checkRange(v, pk.L); err != nil {
			return nil, fmt.Errorf("dgk: CompareBatchA item %d: %w", i, err)
		}
	}

	// Round 1: one frame with every comparison's encrypted bit vector.
	bitItems, err := transport.ExpectBatch(ctx, conn, transport.KindBits, n)
	if err != nil {
		return nil, fmt.Errorf("dgk: receive encrypted bit batch: %w", err)
	}

	// Per-item blinding is independent; fan it out over par workers.
	blinded := make([]*transport.Message, n)
	err = forEachItem(par, n, func(i int) error {
		permuted, err := pk.blindCompareValues(rng, vals[i], bitItems[i].Values)
		if err != nil {
			return fmt.Errorf("dgk: CompareBatchA item %d: %w", i, err)
		}
		blinded[i] = &transport.Message{Kind: transport.KindCipherSeq, Values: permuted}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Round 2: one frame with every blinded permuted sequence.
	frame, err := transport.WrapBatch(blinded)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(ctx, frame); err != nil {
		return nil, fmt.Errorf("dgk: send blinded batch: %w", err)
	}

	// Round 3: one frame with every outcome bit.
	resItems, err := transport.ExpectBatch(ctx, conn, transport.KindResult, n)
	if err != nil {
		return nil, fmt.Errorf("dgk: receive result batch: %w", err)
	}
	out := make([]bool, n)
	for i, it := range resItems {
		if len(it.Flags) != 1 {
			return nil, fmt.Errorf("dgk: malformed result batch item %d", i)
		}
		out[i] = it.Flags[0] == 1
	}
	comparisons.Add(int64(n))
	return out, nil
}

// CompareSignedBatchA is CompareBatchA for signed values in
// (-2^(L-1), 2^(L-1)).
func (pk *PublicKey) CompareSignedBatchA(ctx context.Context, rng io.Reader, conn transport.Conn, vals []*big.Int, par int) ([]bool, error) {
	shifted, err := shiftSignedAll(vals, pk.L)
	if err != nil {
		return nil, err
	}
	return pk.CompareBatchA(ctx, rng, conn, shifted, par)
}

// CompareBatchB runs party B's side (the key owner): encrypt every
// comparison's bits with randomness from rng, exchange the three batch
// frames, zero-test, and share the outcome bits.
func (k *PrivateKey) CompareBatchB(ctx context.Context, rng io.Reader, conn transport.Conn, vals []*big.Int, par int) ([]bool, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("dgk: empty comparison batch")
	}
	bits := make([][]uint8, n)
	for i, v := range vals {
		if err := checkRange(v, k.L); err != nil {
			return nil, fmt.Errorf("dgk: CompareBatchB item %d: %w", i, err)
		}
		b, err := mathutil.Bits(v, k.L)
		if err != nil {
			return nil, err
		}
		bits[i] = b
	}

	// Round 1: encrypt all n*L bits (fanned out over par workers) and send
	// them as one frame.
	items := make([]*transport.Message, n)
	err := forEachItem(par, n, func(i int) error {
		enc := make([]*big.Int, k.L)
		for pos, bit := range bits[i] {
			c, err := k.EncryptBit(rng, bit)
			if err != nil {
				return fmt.Errorf("dgk: batch bit encryption item %d: %w", i, err)
			}
			enc[pos] = c.C
		}
		items[i] = &transport.Message{Kind: transport.KindBits, Values: enc}
		return nil
	})
	if err != nil {
		return nil, err
	}
	frame, err := transport.WrapBatch(items)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(ctx, frame); err != nil {
		return nil, fmt.Errorf("dgk: send encrypted bit batch: %w", err)
	}

	// Round 2: receive every blinded sequence and zero-test each item.
	blinded, err := transport.ExpectBatch(ctx, conn, transport.KindCipherSeq, n)
	if err != nil {
		return nil, fmt.Errorf("dgk: receive blinded batch: %w", err)
	}
	out := make([]bool, n)
	err = forEachItem(par, n, func(i int) error {
		geq, err := k.zeroTestValues(blinded[i].Values)
		if err != nil {
			return fmt.Errorf("dgk: batch item %d: %w", i, err)
		}
		out[i] = geq
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Round 3: share all outcome bits in one frame.
	results := make([]*transport.Message, n)
	for i, geq := range out {
		flag := int64(0)
		if geq {
			flag = 1
		}
		results[i] = &transport.Message{Kind: transport.KindResult, Flags: []int64{flag}}
	}
	frame, err = transport.WrapBatch(results)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(ctx, frame); err != nil {
		return nil, fmt.Errorf("dgk: send result batch: %w", err)
	}
	comparisonsB.Add(int64(n))
	return out, nil
}

// CompareSignedBatchB is CompareBatchB for signed values.
func (k *PrivateKey) CompareSignedBatchB(ctx context.Context, rng io.Reader, conn transport.Conn, vals []*big.Int, par int) ([]bool, error) {
	shifted, err := shiftSignedAll(vals, k.L)
	if err != nil {
		return nil, err
	}
	return k.CompareBatchB(ctx, rng, conn, shifted, par)
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
