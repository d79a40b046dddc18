// Package mathutil provides big-integer helpers shared by the cryptographic
// packages: random sampling, prime generation, and modular arithmetic with
// signed-value encodings.
//
// All randomness is drawn from an injected io.Reader so that tests can run
// deterministically; production callers pass crypto/rand.Reader.
package mathutil

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common small constants, shared to avoid re-allocation. Callers must not
// mutate them.
var (
	Zero = big.NewInt(0)
	One  = big.NewInt(1)
	Two  = big.NewInt(2)
)

// ErrNoInverse is returned when a modular inverse does not exist.
var ErrNoInverse = errors.New("mathutil: modular inverse does not exist")

// RandInt returns a uniformly random integer in [0, max). max must be > 0.
func RandInt(rng io.Reader, max *big.Int) (*big.Int, error) {
	if max.Sign() <= 0 {
		return nil, fmt.Errorf("mathutil: RandInt bound must be positive, got %v", max)
	}
	if rng == nil {
		rng = rand.Reader
	}
	n, err := rand.Int(rng, max)
	if err != nil {
		return nil, fmt.Errorf("mathutil: sample random int: %w", err)
	}
	return n, nil
}

// RandBits returns a uniformly random integer with at most bits bits,
// i.e. in [0, 2^bits).
func RandBits(rng io.Reader, bits int) (*big.Int, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("mathutil: RandBits needs positive bit count, got %d", bits)
	}
	bound := new(big.Int).Lsh(One, uint(bits))
	return RandInt(rng, bound)
}

// RandPrime returns a random prime of exactly bits bits.
func RandPrime(rng io.Reader, bits int) (*big.Int, error) {
	if bits < 2 {
		return nil, fmt.Errorf("mathutil: prime bit length must be >= 2, got %d", bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	p, err := rand.Prime(rng, bits)
	if err != nil {
		return nil, fmt.Errorf("mathutil: generate %d-bit prime: %w", bits, err)
	}
	return p, nil
}

// ModInverse returns a^{-1} mod n, or ErrNoInverse if gcd(a, n) != 1.
func ModInverse(a, n *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(a, n)
	if inv == nil {
		return nil, ErrNoInverse
	}
	return inv, nil
}

// ToSigned interprets v in [0, n) as a signed residue in [-n/2, n/2):
// values above n/2 are mapped to v - n. This is the standard encoding for
// signed plaintexts in additively homomorphic schemes.
func ToSigned(v, n *big.Int) *big.Int {
	half := new(big.Int).Rsh(n, 1)
	out := new(big.Int).Mod(v, n)
	if out.Cmp(half) >= 0 {
		out.Sub(out, n)
	}
	return out
}

// FromSigned maps a signed value into [0, n) by reducing mod n.
func FromSigned(v, n *big.Int) *big.Int {
	return new(big.Int).Mod(v, n)
}

// ZeroInt overwrites v's limb array with zeros, for retiring secrets.
// v.SetInt64(0) alone may release the backing array with the secret limbs
// still readable. A nil v is a no-op.
func ZeroInt(v *big.Int) {
	if v == nil {
		return
	}
	bits := v.Bits()
	for i := range bits {
		bits[i] = 0
	}
	v.SetInt64(0)
}

// CRTParams holds precomputed values for recombining residues mod p and q
// into a residue mod p*q via the Chinese Remainder Theorem.
type CRTParams struct {
	P, Q *big.Int
	// QInvP = q^{-1} mod p.
	QInvP *big.Int
	N     *big.Int // p * q
}

// NewCRTParams precomputes CRT recombination constants for coprime p, q.
func NewCRTParams(p, q *big.Int) (*CRTParams, error) {
	qInvP, err := ModInverse(q, p)
	if err != nil {
		return nil, fmt.Errorf("mathutil: p and q are not coprime: %w", err)
	}
	return &CRTParams{
		P:     new(big.Int).Set(p),
		Q:     new(big.Int).Set(q),
		QInvP: qInvP,
		N:     new(big.Int).Mul(p, q),
	}, nil
}

// Combine returns the unique x in [0, p*q) with x = xp mod p and x = xq mod q.
func (c *CRTParams) Combine(xp, xq *big.Int) *big.Int {
	// x = xq + q * ((xp - xq) * qInvP mod p)
	diff := new(big.Int).Sub(xp, xq)
	diff.Mod(diff, c.P)
	diff.Mul(diff, c.QInvP)
	diff.Mod(diff, c.P)
	diff.Mul(diff, c.Q)
	diff.Add(diff, xq)
	return diff.Mod(diff, c.N)
}

// Zeroize wipes the secret constants of c (its product N is public), for
// parameters over secret factors. A nil c is a no-op.
func (c *CRTParams) Zeroize() {
	if c == nil {
		return
	}
	ZeroInt(c.P)
	ZeroInt(c.Q)
	ZeroInt(c.QInvP)
}
