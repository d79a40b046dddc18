// Package mathutil provides big-integer helpers shared by the cryptographic
// packages: random sampling, prime generation, and modular arithmetic with
// signed-value encodings.
//
// All randomness is drawn from an injected io.Reader so that tests can run
// deterministically; production callers pass crypto/rand.Reader.
//
// The hot kernels — the Montgomery context, the fixed-base tables, CRT
// recombination and the random draws — allocate nothing per call: each
// writes into a destination and works in a scratch that the caller owns.
// The scratch lives for one call: the caller sizes it (one per worker of a
// ParallelFor, whose fn learns its worker index), may reuse it for the
// next call of the same operation, and drops it when the operation ends.
// Nothing in this package keeps a scratch between calls, and there is no
// shared pool: scratch words hold residues modulo secret factors, which
// must not outlive the key or the epoch they were computed under.
//
// A Montgomery product runs one of two kernels, chosen by the modulus's
// width: up to four words a straight-line kernel per width, with no call
// and no scratch, and above that the CIOS loop on math/big's assembly
// addMulVVW. At two or three words the loop's two calls per word cost more
// than the multiplies; from eight words a Go loop is slower than the
// assembly (BenchmarkMontMul). Products of values left outside the domain
// each owe a factor R⁻¹; MulRPow pays a run's back at once (paillier.Sum).
package mathutil

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"
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

// RandInt sets z to a uniformly random integer in [0, max) and returns it;
// max must be > 0 and z must not alias it. It reads from rng exactly the
// bytes crypto/rand.Int reads for max — the same ⌈bitlen(max−1)/8⌉-byte
// draws with the top byte masked, rejected and redrawn until below max — so
// a seeded stream yields the same values at the same offsets. buf is the
// caller's byte scratch: with at least that many bytes the draw allocates
// nothing. A nil rng is crypto/rand.Reader.
func RandInt(z *big.Int, rng io.Reader, max *big.Int, buf []byte) (*big.Int, error) {
	if max.Sign() <= 0 {
		return nil, fmt.Errorf("mathutil: RandInt bound must be positive, got %v", max)
	}
	bitLen := z.Sub(max, One).BitLen()
	if bitLen == 0 {
		return z.SetInt64(0), nil // the only value below 1
	}
	for {
		if err := drawBits(z, rng, bitLen, buf); err != nil {
			return nil, err
		}
		if z.Cmp(max) < 0 {
			return z, nil
		}
	}
}

// RandBits sets z to a uniformly random integer with at most bits bits,
// i.e. in [0, 2^bits), and returns it: RandInt with max = 2^bits, which
// never rejects, so it is one read of ⌈bits/8⌉ bytes. buf is as in RandInt.
func RandBits(z *big.Int, rng io.Reader, bits int, buf []byte) (*big.Int, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("mathutil: RandBits needs positive bit count, got %d", bits)
	}
	if err := drawBits(z, rng, bits, buf); err != nil {
		return nil, err
	}
	return z, nil
}

// drawBits is one candidate of crypto/rand.Int for a bound whose
// predecessor has bitLen bits: ⌈bitLen/8⌉ bytes, the bits above bitLen in
// the first byte cleared.
func drawBits(z *big.Int, rng io.Reader, bitLen int, buf []byte) error {
	if rng == nil {
		rng = rand.Reader
	}
	k := (bitLen + 7) / 8
	if len(buf) < k {
		buf = make([]byte, k)
	}
	buf = buf[:k]
	if _, err := io.ReadFull(rng, buf); err != nil {
		return fmt.Errorf("mathutil: sample random int: %w", err)
	}
	if b := bitLen % 8; b != 0 {
		buf[0] &= 1<<b - 1
	}
	z.SetBytes(buf)
	return nil
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
	// Combine lifts through the Montgomery domain of the modulus with more
	// words (p unless q is wider): lift is its context, by the other
	// modulus's words, inv the other's inverse modulo it, times R.
	lift  *Mont
	by    []big.Word
	inv   []big.Word
	swap  bool // lift is q's
	words int  // N's words
}

// NewCRTParams precomputes CRT recombination constants for coprime p, q.
// The wider of the two (in words; p on a tie) must be odd and > 2, as a
// Montgomery modulus.
func NewCRTParams(p, q *big.Int) (*CRTParams, error) {
	qInvP, err := ModInverse(q, p)
	if err != nil {
		return nil, fmt.Errorf("mathutil: p and q are not coprime: %w", err)
	}
	c := &CRTParams{
		P:     new(big.Int).Set(p),
		Q:     new(big.Int).Set(q),
		QInvP: qInvP,
		N:     new(big.Int).Mul(p, q),
	}
	lift, by, inv := p, q, qInvP
	if len(q.Bits()) > len(p.Bits()) {
		if inv, err = ModInverse(p, q); err != nil {
			return nil, fmt.Errorf("mathutil: p and q are not coprime: %w", err)
		}
		lift, by, c.swap = q, p, true
	}
	if c.lift, err = NewMont(lift); err != nil {
		return nil, fmt.Errorf("mathutil: CRT modulus: %w", err)
	}
	n := c.lift.Words()
	c.by, c.inv, c.words = slices.Clone(by.Bits()), make([]big.Word, n), len(c.N.Bits())
	c.lift.Enter(c.inv, inv, make([]big.Word, 3*n))
	return c, nil
}

// Combine sets z to the unique x in [0, p*q) with x = xp mod p and
// x = xq mod q, for xp < p and xq < q given as little-endian words: a
// residue of p's or q's width, or a big.Int's Bits(). z has N's words
// and does not alias the inputs; scratch holds at least four words per
// word of the wider modulus. It divides nothing:
//
//	x = x_b + b·((x_l − x_b)·b⁻¹ mod l)
//
// with l the wider modulus and b the other, the product by b⁻¹ a montMul
// by b⁻¹·R, and x below b·l without a final reduction.
func (c *CRTParams) Combine(z, xp, xq, scratch []big.Word) {
	xl, xb := xp, xq
	if c.swap {
		xl, xb = xq, xp
	}
	n := c.lift.Words()
	a, b, t := scratch[:n], scratch[n:2*n], scratch[2*n:4*n]
	clear(a)
	copy(a, xl)
	clear(b)
	copy(b, xb)
	c.lift.Mul(a, a, c.inv, t) // both products are below l
	c.lift.Mul(b, b, c.inv, t)
	if subVV(a, a, b) != 0 {
		addMulVVW(a, c.lift.m, 1) // a − b + l, the carry out dropped
	}
	clear(z)
	copy(z, xb)
	for i, h := range a {
		carry := uint(addMulVVW(z[i:i+len(c.by)], c.by, h))
		for j := i + len(c.by); carry != 0 && j < len(z); j++ {
			var zj uint
			zj, carry = bits.Add(uint(z[j]), carry, 0)
			z[j] = big.Word(zj)
		}
	}
}

// Words returns N's word count, the length of Combine's destination.
func (c *CRTParams) Words() int { return c.words }

// Zeroize wipes the secret constants of c (its product N is public), for
// parameters over secret factors. A nil c is a no-op.
func (c *CRTParams) Zeroize() {
	if c == nil {
		return
	}
	ZeroInt(c.P)
	ZeroInt(c.Q)
	ZeroInt(c.QInvP)
	c.lift.Zeroize()
	clear(c.by)
	clear(c.inv)
}
