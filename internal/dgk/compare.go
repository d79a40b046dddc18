package dgk

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/perm"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// This file implements the interactive DGK comparison protocol between two
// parties over a transport.Conn. Party B owns the DGK private key and a
// private value b; party A holds a private value a. Both values are L-bit
// non-negative integers. At the end, both parties learn the single bit
// (a >= b) and nothing else about the other's value.
//
// Round structure:
//
//  1. B -> A: bitwise encryptions E(b_{L-1}), ..., E(b_0).
//  2. A -> B: blinded, permuted E(r_i * c_i) where
//     c_i = a_i - b_i + 1 + 3 * sum_{j>i} (a_j XOR b_j).
//     There exists i with c_i = 0 iff a < b (DGK '07 with the '09
//     correction applied: the XOR prefix sum is multiplied by 3 so
//     non-first-difference positions cannot cancel to zero).
//  3. B -> A: the bit "a >= b" (true iff no blinded value decrypts to 0).
//
// The blinding factors r_i are uniform in [1, u) so B learns only whether
// some c_i is zero; the permutation hides which position. In the paper's
// semi-honest two-server setting the outcome bit itself is the protocol's
// declared output for both servers, so B forwarding it to A leaks nothing
// extra.

// CompareA runs party A's side: it holds value a and learns (a >= b).
func (pk *PublicKey) CompareA(ctx context.Context, rng io.Reader, conn transport.Conn, a *big.Int) (bool, error) {
	// Fail fast on a bad input before touching the wire: blocking on round
	// 1 with a value that can never be compared would hang the session.
	if err := checkRange(a, pk.L); err != nil {
		return false, fmt.Errorf("dgk: CompareA: %w", err)
	}
	// Round 1: receive B's encrypted bits (little-endian).
	msg, err := transport.ExpectKind(ctx, conn, transport.KindBits)
	if err != nil {
		return false, fmt.Errorf("dgk: receive encrypted bits: %w", err)
	}
	permuted, err := pk.blindCompareValues(rng, a, msg.Values)
	if err != nil {
		return false, err
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: permuted}); err != nil {
		return false, fmt.Errorf("dgk: send blinded values: %w", err)
	}

	// Round 3: receive the outcome bit.
	res, err := transport.ExpectKind(ctx, conn, transport.KindResult)
	if err != nil {
		return false, fmt.Errorf("dgk: receive result: %w", err)
	}
	if len(res.Flags) != 1 {
		return false, fmt.Errorf("dgk: malformed result message")
	}
	comparisons.Inc()
	return res.Flags[0] == 1, nil
}

// blindCompareValues computes party A's round-2 payload for one comparison:
// the blinded, permuted E(r_i * c_i) sequence derived from A's value a and
// B's encrypted bit vector (raw ciphertext values, little-endian). It is the
// pure per-comparison compute kernel shared by the single and batched
// protocol variants.
func (pk *PublicKey) blindCompareValues(rng io.Reader, a *big.Int, encBits []*big.Int) ([]*big.Int, error) {
	if err := checkRange(a, pk.L); err != nil {
		return nil, fmt.Errorf("dgk: CompareA: %w", err)
	}
	aBits, err := mathutil.Bits(a, pk.L)
	if err != nil {
		return nil, err
	}
	if len(encBits) != pk.L {
		return nil, fmt.Errorf("dgk: expected %d encrypted bits, got %d", pk.L, len(encBits))
	}
	encB := make([]*Ciphertext, pk.L)
	for i, v := range encBits {
		encB[i] = &Ciphertext{C: v}
		if err := pk.validateCiphertext(encB[i]); err != nil {
			return nil, fmt.Errorf("dgk: bit %d: %w", i, err)
		}
	}

	// Compute E(c_i) for each i, scanning from MSB so the XOR prefix sum
	// over j > i accumulates incrementally.
	//
	// E(a_j XOR b_j) = E(b_j) when a_j = 0, and E(1 - b_j) otherwise.
	encXorSum, err := pk.Encrypt(rng, mathutil.Zero) // sum over processed (higher) positions
	if err != nil {
		return nil, err
	}
	blinded := make([]*Ciphertext, pk.L)
	for i := pk.L - 1; i >= 0; i-- {
		// c_i = a_i - b_i + 1 + 3 * xorSum
		ci, err := pk.ScalarMul(encB[i], big.NewInt(-1)) // -b_i
		if err != nil {
			return nil, err
		}
		ci, err = pk.AddPlain(ci, big.NewInt(int64(aBits[i])+1)) // + a_i + 1
		if err != nil {
			return nil, err
		}
		tripleSum, err := pk.ScalarMul(encXorSum, big.NewInt(3))
		if err != nil {
			return nil, err
		}
		ci, err = pk.Add(ci, tripleSum)
		if err != nil {
			return nil, err
		}
		// Blind with a random nonzero exponent: zero stays zero, nonzero
		// becomes uniform nonzero.
		r, err := randNonzero(rng, pk.U)
		if err != nil {
			return nil, err
		}
		blinded[i], err = pk.ScalarMul(ci, r)
		if err != nil {
			return nil, err
		}

		// Fold position i into the XOR prefix sum for lower positions.
		var xi *Ciphertext
		if aBits[i] == 0 {
			xi = encB[i]
		} else {
			neg, err := pk.ScalarMul(encB[i], big.NewInt(-1))
			if err != nil {
				return nil, err
			}
			xi, err = pk.AddPlain(neg, mathutil.One) // 1 - b_i
			if err != nil {
				return nil, err
			}
		}
		encXorSum, err = pk.Add(encXorSum, xi)
		if err != nil {
			return nil, err
		}
	}

	// Permute so B cannot tell which bit position (if any) was zero.
	pi, err := perm.New(rng, pk.L)
	if err != nil {
		return nil, err
	}
	vals := make([]*big.Int, pk.L)
	for i, c := range blinded {
		vals[i] = c.C
	}
	return pi.Apply(vals)
}

// CompareB runs party B's side (the key owner): it holds value b and learns
// (a >= b).
func (k *PrivateKey) CompareB(ctx context.Context, rng io.Reader, conn transport.Conn, b *big.Int) (bool, error) {
	if err := checkRange(b, k.L); err != nil {
		return false, fmt.Errorf("dgk: CompareB: %w", err)
	}
	bBits, err := mathutil.Bits(b, k.L)
	if err != nil {
		return false, err
	}

	// Round 1: send bitwise encryptions.
	vals := make([]*big.Int, k.L)
	for i, bit := range bBits {
		c, err := k.EncryptBit(rng, bit)
		if err != nil {
			return false, err
		}
		vals[i] = c.C
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindBits, Values: vals}); err != nil {
		return false, fmt.Errorf("dgk: send encrypted bits: %w", err)
	}

	// Round 2: receive blinded values and zero-test each.
	msg, err := transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
	if err != nil {
		return false, fmt.Errorf("dgk: receive blinded values: %w", err)
	}
	aGEb, err := k.zeroTestValues(msg.Values)
	if err != nil {
		return false, err
	}

	// Round 3: share the outcome.
	flag := int64(0)
	if aGEb {
		flag = 1
	}
	if err := conn.Send(ctx, &transport.Message{Kind: transport.KindResult, Flags: []int64{flag}}); err != nil {
		return false, fmt.Errorf("dgk: send result: %w", err)
	}
	comparisonsB.Inc()
	return aGEb, nil
}

// zeroTestValues decides one comparison from its blinded round-2 sequence:
// a >= b iff no value decrypts to zero. Every position is tested so the work
// is constant regardless of outcome.
func (k *PrivateKey) zeroTestValues(vals []*big.Int) (bool, error) {
	if len(vals) != k.L {
		return false, fmt.Errorf("dgk: expected %d blinded values, got %d", k.L, len(vals))
	}
	foundZero := false
	for i, v := range vals {
		z, err := k.IsZero(&Ciphertext{C: v})
		if err != nil {
			return false, fmt.Errorf("dgk: zero-test %d: %w", i, err)
		}
		if z {
			foundZero = true
		}
	}
	return !foundZero, nil // a zero exists iff a < b
}

// CompareSignedA is CompareA for signed values in (-2^(L-1), 2^(L-1)): both
// parties shift their inputs by +2^(L-1) before the bitwise protocol.
func (pk *PublicKey) CompareSignedA(ctx context.Context, rng io.Reader, conn transport.Conn, a *big.Int) (bool, error) {
	shifted, err := shiftSigned(a, pk.L)
	if err != nil {
		return false, err
	}
	return pk.CompareA(ctx, rng, conn, shifted)
}

// CompareSignedB is CompareB for signed values in (-2^(L-1), 2^(L-1)).
func (k *PrivateKey) CompareSignedB(ctx context.Context, rng io.Reader, conn transport.Conn, b *big.Int) (bool, error) {
	shifted, err := shiftSigned(b, k.L)
	if err != nil {
		return false, err
	}
	return k.CompareB(ctx, rng, conn, shifted)
}

// shiftSigned maps v in (-2^(L-1), 2^(L-1)) to v + 2^(L-1) in (0, 2^L).
func shiftSigned(v *big.Int, l int) (*big.Int, error) {
	half := new(big.Int).Lsh(mathutil.One, uint(l-1))
	out := new(big.Int).Add(v, half)
	if out.Sign() < 0 || out.BitLen() > l {
		return nil, fmt.Errorf("dgk: signed value %v outside (-2^%d, 2^%d)", v, l-1, l-1)
	}
	return out, nil
}

// checkRange verifies v is a non-negative L-bit value.
func checkRange(v *big.Int, l int) error {
	if v == nil || v.Sign() < 0 || v.BitLen() > l {
		return fmt.Errorf("value %v is not a non-negative %d-bit integer", v, l)
	}
	return nil
}

// randNonzero samples uniformly from [1, u).
func randNonzero(rng io.Reader, u *big.Int) (*big.Int, error) {
	bound := new(big.Int).Sub(u, mathutil.One)
	r, err := mathutil.RandInt(rng, bound)
	if err != nil {
		return nil, err
	}
	return r.Add(r, mathutil.One), nil
}
