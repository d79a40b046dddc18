// Package secshare implements the bounded additive secret sharing used in
// the setup step of the Private Consensus Protocol (Alg. 5): each user
// splits its prediction vector as c = a + b, sending a to S1 and b to S2.
//
// Shares are bounded rather than uniform over Z_n: the random part is drawn
// from [0, 2^κ) for a statistical masking parameter κ, so that server-side
// differences stay within the DGK comparison bit length (DESIGN.md, protocol
// note 2). With κ = 40 the statistical leakage is 2^-40-close to uniform
// relative to vote magnitudes of ~2^23.
package secshare

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
)

// Split shares each element of values as values[i] = a[i] + b[i], where
// b[i] is uniform in [0, 2^kappa) and a[i] = values[i] - b[i] (possibly
// negative). rng defaults to crypto/rand.Reader.
func Split(rng io.Reader, values []*big.Int, kappa int) (a, b []*big.Int, err error) {
	if kappa <= 0 {
		return nil, nil, fmt.Errorf("secshare: kappa must be positive, got %d", kappa)
	}
	if rng == nil {
		rng = rand.Reader
	}
	a = make([]*big.Int, len(values))
	b = make([]*big.Int, len(values))
	shares, buf := make([]big.Int, len(values)), make([]byte, (kappa+7)/8)
	for i, v := range values {
		if v == nil {
			return nil, nil, fmt.Errorf("secshare: nil value at index %d", i)
		}
		r, err := mathutil.RandBits(&shares[i], rng, kappa, buf)
		if err != nil {
			return nil, nil, fmt.Errorf("secshare: sample share %d: %w", i, err)
		}
		b[i] = r
		a[i] = new(big.Int).Sub(v, r)
	}
	return a, b, nil
}

// ThresholdShares builds the threshold-offset share vectors of Alg. 5's
// first Secure Sum step for one user:
//
//	toS1[i] = a[i] - T/(2|U|) + z1[i]
//	toS2[i] = T/(2|U|) - b[i] - z1[i]
//
// where T and the noise shares z1 are integers in the same fixed-point
// units as the vote shares a, b. perUserOffset must be T/(2|U|), computed
// once by the caller so rounding is consistent across users.
func ThresholdShares(a, b, z1 []*big.Int, perUserOffset *big.Int) (toS1, toS2 []*big.Int, err error) {
	if len(a) != len(b) || len(a) != len(z1) {
		return nil, nil, fmt.Errorf("secshare: length mismatch a=%d b=%d z1=%d", len(a), len(b), len(z1))
	}
	if perUserOffset == nil {
		return nil, nil, fmt.Errorf("secshare: nil per-user offset")
	}
	toS1 = make([]*big.Int, len(a))
	toS2 = make([]*big.Int, len(a))
	for i := range a {
		if a[i] == nil || b[i] == nil || z1[i] == nil {
			return nil, nil, fmt.Errorf("secshare: nil element at index %d", i)
		}
		toS1[i] = new(big.Int).Sub(a[i], perUserOffset)
		toS1[i].Add(toS1[i], z1[i])
		toS2[i] = new(big.Int).Sub(perUserOffset, b[i])
		toS2[i].Sub(toS2[i], z1[i])
	}
	return toS1, toS2, nil
}

// NoisyShares builds the second Secure Sum step's share vectors:
//
//	toS1[i] = a[i] + z2[i],  toS2[i] = b[i] + z2[i]
//
// Note both sides receive +z2 so the recombined noisy votes carry 2*z2; the
// dp package calibrates the per-user variance accordingly.
func NoisyShares(a, b, z2 []*big.Int) (toS1, toS2 []*big.Int, err error) {
	if len(a) != len(b) || len(a) != len(z2) {
		return nil, nil, fmt.Errorf("secshare: length mismatch a=%d b=%d z2=%d", len(a), len(b), len(z2))
	}
	toS1 = make([]*big.Int, len(a))
	toS2 = make([]*big.Int, len(a))
	for i := range a {
		if a[i] == nil || b[i] == nil || z2[i] == nil {
			return nil, nil, fmt.Errorf("secshare: nil element at index %d", i)
		}
		toS1[i] = new(big.Int).Add(a[i], z2[i])
		toS2[i] = new(big.Int).Add(b[i], z2[i])
	}
	return toS1, toS2, nil
}
