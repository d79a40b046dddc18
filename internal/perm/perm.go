// Package perm implements the random permutations used by the
// Blind-and-Permute and Restoration protocols (Algs. 2 and 3): generation,
// inversion, and application to sequences of big integers.
package perm

import (
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
)

// Permutation represents a permutation of {0, ..., K-1}. p[i] = j means the
// element at source index i moves to destination index j, i.e.
// Apply(seq)[p[i]] = seq[i].
type Permutation []int

// New returns a uniformly random permutation of size k using the
// Fisher-Yates shuffle with cryptographic randomness from rng (crypto/rand
// if nil).
func New(rng io.Reader, k int) (Permutation, error) {
	if k <= 0 {
		return nil, fmt.Errorf("perm: size must be positive, got %d", k)
	}
	p := make(Permutation, k)
	for i := range p {
		p[i] = i
	}
	// Each index is crypto/rand.Int's draw below i+1, in one reused
	// big.Int and byte buffer.
	var j, bound big.Int
	buf := make([]byte, 8)
	for i := k - 1; i > 0; i-- {
		if _, err := mathutil.RandInt(&j, rng, bound.SetInt64(int64(i+1)), buf); err != nil {
			return nil, fmt.Errorf("perm: sample shuffle index: %w", err)
		}
		p[i], p[j.Int64()] = p[j.Int64()], p[i]
	}
	return p, nil
}

// Inverse returns the permutation q with q[p[i]] = i.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// Apply permutes seq: out[p[i]] = seq[i]. The input is not modified; the
// returned slice aliases the same *big.Int values (callers treat plaintext
// sequences as immutable).
func (p Permutation) Apply(seq []*big.Int) ([]*big.Int, error) {
	if len(seq) != len(p) {
		return nil, fmt.Errorf("perm: sequence length %d does not match permutation size %d", len(seq), len(p))
	}
	out := make([]*big.Int, len(seq))
	for i, v := range seq {
		out[p[i]] = v
	}
	return out, nil
}

// ApplyInverse undoes Apply: ApplyInverse(Apply(seq)) == seq.
func (p Permutation) ApplyInverse(seq []*big.Int) ([]*big.Int, error) {
	return p.Inverse().Apply(seq)
}

// OneHot returns a length-k vector with a 1 at index i and 0 elsewhere,
// the e_i vector used by the Restoration protocol (Alg. 3).
func OneHot(k, i int) ([]*big.Int, error) {
	if i < 0 || i >= k {
		return nil, fmt.Errorf("perm: one-hot index %d out of range [0, %d)", i, k)
	}
	out := make([]*big.Int, k)
	for j := range out {
		out[j] = big.NewInt(0)
	}
	out[i] = big.NewInt(1)
	return out, nil
}

// ArgOne returns the index of the single 1 in a one-hot vector, or an error
// if the vector is not one-hot.
func ArgOne(v []*big.Int) (int, error) {
	idx := -1
	for i, x := range v {
		switch {
		case x.Sign() == 0:
		case x.Cmp(big.NewInt(1)) == 0:
			if idx >= 0 {
				return 0, fmt.Errorf("perm: vector has multiple ones (indices %d and %d)", idx, i)
			}
			idx = i
		default:
			return 0, fmt.Errorf("perm: element %d = %v is not 0/1", i, x)
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("perm: vector has no one")
	}
	return idx, nil
}
