// Package paillier implements the Paillier additively homomorphic
// cryptosystem used to aggregate secret-shared votes (§III-B of the paper).
//
// Supported operations mirror Eqs. (1)-(2):
//
//	E[m1 + m2] = E[m1] * E[m2] mod n^2
//	E[a * m1]  = E[m1]^a mod n^2
//
// Decryption uses the CRT acceleration, the key owner's own encryptions
// compute their blinding factor by CRT as well (see ownPrecomp), and every
// blinding factor comes from a fixed-base table (see precomp) — the paper's
// "encrypt numbers efficiently" optimization, §VI-A. A Sum folds many
// ciphertexts by Eq. (1) at one Montgomery product each, with no division.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"github.com/privconsensus/privconsensus/internal/mathutil"
)

// Errors returned by the package.
var (
	ErrKeyTooSmall    = errors.New("paillier: key size must be at least 16 bits")
	ErrMessageRange   = errors.New("paillier: message outside plaintext space")
	ErrCiphertextNil  = errors.New("paillier: nil ciphertext")
	ErrWrongKey       = errors.New("paillier: ciphertext does not match key modulus")
	ErrNoPrivateKey   = errors.New("paillier: operation requires the private key")
	ErrInvalidKeyPair = errors.New("paillier: invalid key material")
)

// PublicKey is the Paillier public key pk = (n, g) with g = n + 1.
type PublicKey struct {
	N  *big.Int // modulus n = p*q
	N2 *big.Int // n^2, cached
	G  *big.Int // generator g = n + 1
	// pre holds the lazily-built fixed-base blinding table. Attached at key
	// construction/load and shared (by pointer) with every copy of the key,
	// so the table is built once and read lock-free by every goroutine.
	pre *precomp
}

// blindBits is the width of the blinding exponent a under a modulus of the
// given bit length: ⌈|n|/2⌉. It is the one place the width is decided — the
// public table, the public draw and the key owner's draw all size from it.
func blindBits(n *big.Int) int { return (n.BitLen() + 1) / 2 }

// precomp caches the fixed-base table that makes blinding factors cheap.
// With g = n+1 the message factor g^m = 1 + mn is free, so an encryption
// costs its blinding factor r^n mod n^2. Fixing the base instead of the
// randomness — r = 2^a for a random exponent a — makes it (2^n)^a over the
// constant base 2^n mod n^2: ciphertexts range over the n-th powers
// generated by 2^n, the usual fixed-base trade-off in the paper's
// semi-honest regime; wire format and homomorphic semantics are unchanged.
//
// a is blindBits(n) = ⌈|n|/2⌉ bits wide (Damgård–Jurik–Nielsen's fast
// encryption, IJIS 2010). |n|+64 bits would make r statistically uniform
// over ⟨2⟩; the half-width draw is indistinguishable from that if factoring
// n is hard (Håstad–Schrift–Shamir 1993; Goldreich–Rosen 2003), which DCR
// presumes. Those theorems take a random high-order base; base 2 is this
// construction's heuristic at either width. The best generic attack on a
// costs 2^(|n|/4): 2^512 at 2048 bits; with the paper's 64-bit keys a has 32
// bits, as toy as the modulus. DESIGN.md note 11 has the full argument.
// precomp also holds n²'s Montgomery context, for sums and folds, built
// with the key at one division; the table waits for the first encryption,
// so a relay, which never encrypts, builds none.
type precomp struct {
	mont  *mathutil.Mont // n²'s
	once  sync.Once
	blind *mathutil.FixedBaseExp // base 2^n mod n^2
}

// mont returns n²'s Montgomery context from the key's precomp. GenerateKey
// and UnmarshalJSON attach a precomp to every key they return; a key
// assembled field by field has none and is refused here.
func (pk *PublicKey) mont() (*mathutil.Mont, error) {
	if pk.pre == nil {
		return nil, fmt.Errorf("%w: key not built by GenerateKey or UnmarshalJSON", ErrInvalidKeyPair)
	}
	return pk.pre.mont, nil
}

// blindTable returns the fixed-base table for blinding factors, building it
// on first use.
func (pk *PublicKey) blindTable() (*mathutil.FixedBaseExp, error) {
	if _, err := pk.mont(); err != nil {
		return nil, err
	}
	pk.pre.once.Do(func() {
		base := new(big.Int).Exp(mathutil.Two, pk.N, pk.N2)
		pk.pre.blind, _ = mathutil.NewFixedBaseExp(base, pk.N2, blindBits(pk.N)) // n² is odd: it cannot fail
	})
	return pk.pre.blind, nil
}

// Precompute eagerly builds the blinding table so the first encryption
// after key load does not pay the table-construction cost. Safe to call
// concurrently and more than once.
func (pk *PublicKey) Precompute() { _, _ = pk.blindTable() }

// scratch is the working memory of one encryption, or of a run of them
// on one goroutine: the blinding exponent's draw and its byte buffer, the
// big.Int temporaries of seal, and the words the fixed-base and CRT
// kernels write and work in. It lives for one call (a vector's, or one
// worker's) and nothing keeps it: on the key owner's path its words hold
// residues modulo p² and q².
type scratch struct {
	a, e, t, q, rn big.Int
	buf            []byte
	// w is the blinding factor's n² words, the residues modulo p² and q²,
	// then four words per word of n² for the kernels.
	w []big.Word
}

// newScratch sizes a scratch for pk's modulus.
func (pk *PublicKey) newScratch() *scratch {
	return &scratch{buf: make([]byte, (blindBits(pk.N)+7)/8), w: make([]big.Word, 7*len(pk.N2.Bits()))}
}

// words splits s.w into the blinding factor, the two residues and the
// kernels' scratch.
func (s *scratch) words(n int) (rn, xp, xq, kernel []big.Word) {
	return s.w[:n], s.w[n : 2*n], s.w[2*n : 3*n], s.w[3*n:]
}

// freshNonce returns the blinding factor (2^n)^a mod n^2 for one
// RandBits(blindBits(n)) draw a from rng, from the fixed-base table, in s.
func (pk *PublicKey) freshNonce(rng io.Reader, s *scratch) (*big.Int, error) {
	t, err := pk.blindTable()
	if err != nil {
		return nil, err
	}
	a, err := mathutil.RandBits(&s.a, rng, blindBits(pk.N), s.buf)
	if err != nil {
		return nil, fmt.Errorf("paillier: sample blinding exponent: %w", err)
	}
	rn, _, _, kernel := s.words(len(pk.N2.Bits()))
	t.Exp(rn, a, kernel)
	return s.rn.SetBits(rn), nil
}

// PrivateKey holds the factorization-based secret key with CRT constants.
type PrivateKey struct {
	PublicKey
	p, q *big.Int
	// CRT decryption constants.
	pSquared, qSquared *big.Int
	pMinus1, qMinus1   *big.Int
	hp, hq             *big.Int // L_p(g^{p-1} mod p^2)^{-1} mod p, likewise for q
	crt                *mathutil.CRTParams
	// Non-CRT decryption constants: lambda = (p-1)(q-1) and
	// mu = L(g^lambda mod n^2)^{-1} mod n, precomputed at key load so
	// DecryptSlow pays one exponentiation instead of two.
	lambda, mu *big.Int
	// own holds the lazily-built CRT blinding tables. They are derived from
	// the factorization, so they hang off the private key only: Public()
	// copies share pre but can never reach own. Nil once zeroized.
	own *ownPrecomp
}

// ownPrecomp lets the key owner compute the same blinding factor
// (2^n)^a mod n^2 as the public path at about two thirds of the cost. The
// order of 2^n modulo p^2 divides p-1 (it is an n-th power in a group of
// order p(p-1)), so (2^n)^a mod p^2 = (2^n)^(a mod (p-1)) mod p^2: two
// fixed-base walks over half-width moduli, (p-1).BitLen() wide whatever
// blindBits draws, recombined by CRT into Z_{n^2}, replace one over n^2.
type ownPrecomp struct {
	once sync.Once
	p, q *mathutil.FixedBaseExp // base 2^n mod p^2 and mod q^2
	crt  *mathutil.CRTParams    // recombines residues mod p^2, q^2
}

// ownTables returns the CRT blinding tables, building them on first use.
// It is nil once the key is zeroized.
func (sk *PrivateKey) ownTables() *ownPrecomp {
	own := sk.own
	if own == nil {
		return nil
	}
	own.once.Do(func() {
		crt, err := mathutil.NewCRTParams(sk.pSquared, sk.qSquared)
		if err != nil {
			return
		}
		table := func(sq, m1 *big.Int) *mathutil.FixedBaseExp {
			base := new(big.Int).Exp(mathutil.Two, sk.N, sq)
			t, _ := mathutil.NewFixedBaseExp(base, sq, m1.BitLen())
			return t
		}
		// The two tables are independent; build them side by side.
		var tq *mathutil.FixedBaseExp
		done := make(chan struct{})
		go func() {
			defer close(done)
			tq = table(sk.qSquared, sk.qMinus1)
		}()
		tp := table(sk.pSquared, sk.pMinus1)
		<-done
		if tp != nil && tq != nil {
			own.p, own.q, own.crt = tp, tq, crt
		}
	})
	return own
}

// Precompute eagerly builds the public blinding table and the own-key CRT
// tables, concurrently; both builds have finished when it returns. Safe to
// call concurrently and more than once.
func (sk *PrivateKey) Precompute() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sk.ownTables()
	}()
	sk.PublicKey.Precompute()
	wg.Wait()
}

// ownNonce returns the blinding factor the public path would compute from
// the same rng stream — one RandBits(blindBits(n)) draw a, then
// (2^n)^a mod n^2 — through the CRT tables, in s.
func (sk *PrivateKey) ownNonce(rng io.Reader, s *scratch) (*big.Int, error) {
	own := sk.ownTables()
	if own == nil || own.crt == nil {
		return nil, ErrNoPrivateKey
	}
	a, err := mathutil.RandBits(&s.a, rng, blindBits(sk.N), s.buf)
	if err != nil {
		return nil, fmt.Errorf("paillier: sample blinding exponent: %w", err)
	}
	rn, xp, xq, kernel := s.words(len(sk.N2.Bits()))
	xp, xq = xp[:own.p.Mont().Words()], xq[:own.q.Mont().Words()]
	s.q.QuoRem(a, sk.pMinus1, &s.e)
	own.p.Exp(xp, &s.e, kernel)
	s.q.QuoRem(a, sk.qMinus1, &s.e)
	own.q.Exp(xq, &s.e, kernel)
	own.crt.Combine(rn, xp, xq, kernel)
	ownEncOps.Inc()
	return s.rn.SetBits(rn), nil
}

// Zeroize destroys the private half of the key in place: every secret
// big.Int (the factors and all CRT / decryption constants derived from
// them) has its limbs overwritten with zeros before being released, so
// retired key material does not linger on the heap after an epoch
// rotation. The embedded PublicKey is left intact — it is shared by
// pointer with ciphertexts and peers and holds no secrets. The key is
// unusable for decryption afterwards.
func (sk *PrivateKey) Zeroize() {
	if sk == nil {
		return
	}
	for _, v := range []*big.Int{
		sk.p, sk.q, sk.pSquared, sk.qSquared, sk.pMinus1, sk.qMinus1,
		sk.hp, sk.hq, sk.lambda, sk.mu,
	} {
		mathutil.ZeroInt(v)
	}
	sk.crt.Zeroize()
	sk.crt = nil
	if own := sk.own; own != nil {
		own.p.Zeroize()
		own.q.Zeroize()
		own.crt.Zeroize()
		own.p, own.q, own.crt = nil, nil, nil
		sk.own = nil
	}
	sk.p, sk.q = nil, nil
	sk.pSquared, sk.qSquared = nil, nil
	sk.pMinus1, sk.qMinus1 = nil, nil
	sk.hp, sk.hq = nil, nil
	sk.lambda, sk.mu = nil, nil
}

// Ciphertext is a Paillier ciphertext: a value in Z_{n^2}^*.
type Ciphertext struct {
	C *big.Int
}

// GenerateKey creates a Paillier key pair whose modulus n has the given bit
// length. The paper's prototype uses 64-bit keys; production deployments
// should use >= 2048. rng defaults to crypto/rand.Reader.
func GenerateKey(rng io.Reader, bits int) (*PrivateKey, error) {
	if bits < 16 {
		return nil, ErrKeyTooSmall
	}
	if rng == nil {
		rng = rand.Reader
	}
	half := bits / 2
	for attempts := 0; attempts < 200; attempts++ {
		p, err := mathutil.RandPrime(rng, half)
		if err != nil {
			return nil, err
		}
		q, err := mathutil.RandPrime(rng, bits-half)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		key, err := newPrivateKey(p, q)
		if err != nil {
			continue // rare degenerate pair; resample
		}
		return key, nil
	}
	return nil, errors.New("paillier: failed to generate key pair after 200 attempts")
}

// newPrivateKey assembles a key pair from primes p, q.
func newPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	n2 := new(big.Int).Mul(n, n)
	g := new(big.Int).Add(n, mathutil.One)

	pSq := new(big.Int).Mul(p, p)
	qSq := new(big.Int).Mul(q, q)
	pm1 := new(big.Int).Sub(p, mathutil.One)
	qm1 := new(big.Int).Sub(q, mathutil.One)

	// hp = L_p(g^{p-1} mod p^2)^{-1} mod p where L_p(x) = (x-1)/p.
	hp, err := hConstant(g, pm1, p, pSq)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKeyPair, err)
	}
	hq, err := hConstant(g, qm1, q, qSq)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKeyPair, err)
	}
	crt, err := mathutil.NewCRTParams(p, q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKeyPair, err)
	}
	// g = n+1 makes g^lambda = 1 + (lambda mod n)*n mod n^2, so the
	// DecryptSlow constant mu needs no exponentiation at all.
	lambda := new(big.Int).Mul(pm1, qm1)
	gl := new(big.Int).Mod(lambda, n)
	gl.Mul(gl, n)
	gl.Add(gl, mathutil.One)
	gl.Mod(gl, n2)
	mu, err := mathutil.ModInverse(lFunction(gl, n), n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKeyPair, err)
	}
	mont, _ := mathutil.NewMont(n2) // n² is odd and > 2: it cannot fail
	return &PrivateKey{
		PublicKey: PublicKey{N: n, N2: n2, G: g, pre: &precomp{mont: mont}},
		p:         p, q: q,
		pSquared: pSq, qSquared: qSq,
		pMinus1: pm1, qMinus1: qm1,
		hp: hp, hq: hq,
		crt:    crt,
		lambda: lambda, mu: mu,
		own: &ownPrecomp{},
	}, nil
}

// hConstant computes L_s(g^{s-1} mod s^2)^{-1} mod s with L_s(x) = (x-1)/s.
func hConstant(g, sm1, s, sSq *big.Int) (*big.Int, error) {
	x := new(big.Int).Exp(g, sm1, sSq)
	l := lFunction(x, s)
	return mathutil.ModInverse(l, s)
}

// lFunction computes L(x) = (x - 1) / s.
func lFunction(x, s *big.Int) *big.Int {
	out := new(big.Int).Sub(x, mathutil.One)
	return out.Div(out, s)
}

// Public returns the public part of the key.
func (k *PrivateKey) Public() *PublicKey {
	pub := k.PublicKey
	return &pub
}

// validateMessage checks m is in [0, n).
func (pk *PublicKey) validateMessage(m *big.Int) error {
	if m == nil || m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return fmt.Errorf("%w: m=%v n=%v", ErrMessageRange, m, pk.N)
	}
	return nil
}

// Encrypt encrypts m in [0, n) with fresh randomness from rng.
func (pk *PublicKey) Encrypt(rng io.Reader, m *big.Int) (*Ciphertext, error) {
	return pk.encrypt(rng, m, pk.freshNonce, pk.newScratch())
}

// Encrypt is the key owner's Encrypt: byte-identical ciphertexts from the
// same rng stream as the public path, with the blinding factor computed
// through the CRT tables. It returns ErrNoPrivateKey on a zeroized key.
func (sk *PrivateKey) Encrypt(rng io.Reader, m *big.Int) (*Ciphertext, error) {
	return sk.encrypt(rng, m, sk.ownNonce, sk.newScratch())
}

// nonceFunc draws one blinding factor into a scratch.
type nonceFunc func(io.Reader, *scratch) (*big.Int, error)

// encrypt seals m with a blinding factor drawn from nonce, working in s.
func (pk *PublicKey) encrypt(rng io.Reader, m *big.Int, nonce nonceFunc, s *scratch) (*Ciphertext, error) {
	if err := pk.validateMessage(m); err != nil {
		return nil, err
	}
	rn, err := nonce(rng, s)
	if err != nil {
		return nil, err
	}
	return pk.seal(m, rn, s), nil
}

// seal computes g^m * rn mod n^2 for m in [0, n) and a ready blinding
// factor rn = r^n, in s's temporaries. With g = n+1, g^m = 1 + m*n, below
// n^2, which avoids one full exponentiation.
func (pk *PublicKey) seal(m, rn *big.Int, s *scratch) *Ciphertext {
	s.t.Mul(m, pk.N)
	s.t.Add(&s.t, mathutil.One)
	s.e.Mul(&s.t, rn)
	s.q.QuoRem(&s.e, pk.N2, &s.t)
	encOps.Inc()
	// Copied out: the remainder's array in s was sized for the product.
	return &Ciphertext{C: new(big.Int).Set(&s.t)}
}

// EncryptSigned is the key owner's EncryptSigned; see PrivateKey.Encrypt.
func (sk *PrivateKey) EncryptSigned(rng io.Reader, m *big.Int) (*Ciphertext, error) {
	return sk.Encrypt(rng, mathutil.FromSigned(m, sk.N))
}

// EncryptVector encrypts each element of ms, all in one scratch.
func (pk *PublicKey) EncryptVector(rng io.Reader, ms []*big.Int) ([]*Ciphertext, error) {
	return pk.encryptVector(rng, ms, false)
}

// EncryptSignedVector encrypts each (possibly negative) element of ms.
func (pk *PublicKey) EncryptSignedVector(rng io.Reader, ms []*big.Int) ([]*Ciphertext, error) {
	return pk.encryptVector(rng, ms, true)
}

// encryptVector encrypts ms in order in one scratch, reducing each element
// into [0, n) first when signed.
func (pk *PublicKey) encryptVector(rng io.Reader, ms []*big.Int, signed bool) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(ms))
	s := pk.newScratch()
	var reduced big.Int
	for i, m := range ms {
		if signed && m != nil {
			if s.q.QuoRem(m, pk.N, &reduced); reduced.Sign() < 0 {
				reduced.Add(&reduced, pk.N)
			}
			m = &reduced
		}
		c, err := pk.encrypt(rng, m, pk.freshNonce, s)
		if err != nil {
			return nil, fmt.Errorf("paillier: encrypt element %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// validateCiphertext checks c is usable under this key.
func (pk *PublicKey) validateCiphertext(c *Ciphertext) error {
	if c == nil || c.C == nil {
		return ErrCiphertextNil
	}
	if c.C.Sign() < 0 || c.C.Cmp(pk.N2) >= 0 {
		return ErrWrongKey
	}
	return nil
}

// Add returns the ciphertext of m1 + m2 given ciphertexts of m1 and m2
// (Eq. 1: homomorphic addition is ciphertext multiplication).
func (pk *PublicKey) Add(c1, c2 *Ciphertext) (*Ciphertext, error) {
	if err := pk.validateCiphertext(c1); err != nil {
		return nil, err
	}
	if err := pk.validateCiphertext(c2); err != nil {
		return nil, err
	}
	out := new(big.Int).Mul(c1.C, c2.C)
	out.Mod(out, pk.N2)
	addOps.Inc()
	return &Ciphertext{C: out}, nil
}

// Sum is a running product of ciphertexts mod n², the sum of their
// plaintexts (Eq. 1), for folding many, by one goroutine at a time. From 1,
// each Add is one Montgomery product in n²'s context with the operands
// outside the domain: no division, and a factor R⁻¹ each. After k Adds it
// holds Π c·R^−k, and Ciphertext pays R^k back once.
type Sum struct {
	pk  *PublicKey
	acc []big.Word
	k   int
}

// NewSums returns k empty sums under pk, their accumulators in one
// allocation.
func (pk *PublicKey) NewSums(k int) []Sum {
	n := len(pk.N2.Bits())
	sums, acc := make([]Sum, k), make([]big.Word, k*n)
	for i := range sums {
		sums[i], acc[i*n] = Sum{pk: pk, acc: acc[i*n : (i+1)*n]}, 1
	}
	return sums
}

// SumScratch returns the working memory of one goroutine's sums under pk.
func (pk *PublicKey) SumScratch() []big.Word { return make([]big.Word, 18*len(pk.N2.Bits())) }

// Add folds c into the sum, working in scratch. A ciphertext outside
// [0, n²) is refused and leaves the sum as it was.
func (s *Sum) Add(c *Ciphertext, scratch []big.Word) error {
	ctx, err := s.pk.mont()
	if err != nil {
		return err
	}
	if err := s.pk.validateCiphertext(c); err != nil {
		return err
	}
	x := scratch[:len(s.acc)]
	clear(x[copy(x, c.C.Bits()):])
	ctx.Mul(s.acc, s.acc, x, scratch[len(x):])
	s.k++
	addOps.Inc()
	return nil
}

// Merge folds o, a sum under the same modulus, into s with one Montgomery
// product of the two accumulators, working in scratch; o is left as it
// was. The product owes one more R than its factors did, so s now owes
// k₁ + k₂ + 1.
func (s *Sum) Merge(o *Sum, scratch []big.Word) error {
	ctx, err := s.pk.mont()
	if err != nil {
		return err
	}
	if s.pk.N2.Cmp(o.pk.N2) != 0 {
		return ErrWrongKey
	}
	ctx.Mul(s.acc, s.acc, o.acc, scratch)
	s.k += o.k + 1
	addOps.Inc()
	return nil
}

// Ciphertext returns the sum, the Mul+Mod chain's product mod n² (1 when
// empty), working in scratch; the sum stays open to further Adds.
func (s *Sum) Ciphertext(scratch []big.Word) *Ciphertext {
	ctx, err := s.pk.mont()
	if err != nil {
		return &Ciphertext{C: big.NewInt(1)} // an empty sum: every Add and Merge needs the context
	}
	z := make([]big.Word, len(s.acc))
	ctx.MulRPow(z, s.acc, s.k, scratch)
	return &Ciphertext{C: new(big.Int).SetBits(z)}
}

// AddPlain returns the ciphertext of m + k for plaintext k (possibly
// negative; it is reduced into Z_n).
func (pk *PublicKey) AddPlain(c *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.validateCiphertext(c); err != nil {
		return nil, err
	}
	kMod := mathutil.FromSigned(k, pk.N)
	// E[k] with unit randomness r=1: g^k = 1 + k*n mod n^2.
	gk := new(big.Int).Mul(kMod, pk.N)
	gk.Add(gk, mathutil.One)
	gk.Mod(gk, pk.N2)
	out := gk.Mul(gk, c.C)
	out.Mod(out, pk.N2)
	addOps.Inc()
	return &Ciphertext{C: out}, nil
}

// Rerandomize multiplies c by a fresh encryption of zero, producing an
// unlinkable ciphertext of the same plaintext.
func (pk *PublicKey) Rerandomize(rng io.Reader, c *Ciphertext) (*Ciphertext, error) {
	return pk.rerandomize(rng, c, pk.freshNonce, pk.newScratch())
}

// rerandomize multiplies c by an encryption of zero blinded from nonce —
// g^0 = 1, so that encryption is the blinding factor rn itself — in s.
func (pk *PublicKey) rerandomize(rng io.Reader, c *Ciphertext, nonce nonceFunc, s *scratch) (*Ciphertext, error) {
	if err := pk.validateCiphertext(c); err != nil {
		return nil, err
	}
	rn, err := nonce(rng, s)
	if err != nil {
		return nil, err
	}
	encOps.Inc()
	s.e.Mul(c.C, rn)
	s.q.QuoRem(&s.e, pk.N2, &s.t)
	addOps.Inc()
	return &Ciphertext{C: new(big.Int).Set(&s.t)}, nil
}

// Decrypt recovers the plaintext in [0, n) using CRT acceleration, with
// c^(p−1) mod p² and c^(q−1) mod q² raised in the Montgomery contexts of
// the own-key tables.
func (k *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	own := k.ownTables()
	if own == nil || own.crt == nil {
		return nil, ErrNoPrivateKey // zeroized
	}
	if err := k.validateCiphertext(c); err != nil {
		return nil, err
	}
	w := make([]big.Word, 18*max(own.p.Mont().Words(), own.q.Mont().Words()))
	mp := crtHalf(own.p.Mont(), c.C, k.pMinus1, k.p, k.hp, w)
	mq := crtHalf(own.q.Mont(), c.C, k.qMinus1, k.q, k.hq, w)
	decOps.Inc()
	m := make([]big.Word, k.crt.Words())
	k.crt.Combine(m, mp.Bits(), mq.Bits(), make([]big.Word, 4*len(k.N.Bits())))
	return new(big.Int).SetBits(m), nil
}

// crtHalf returns L_s(c^(s−1) mod s²)·h mod s for a prime factor s, the
// power raised in ctx, s²'s context, with w as scratch (18 words per word
// of s²: the power, then Mont.Exp's 17).
func crtHalf(ctx *mathutil.Mont, c, sm1, s, h *big.Int, w []big.Word) *big.Int {
	n := ctx.Words()
	x := w[:n]
	ctx.Enter(x, c, w[n:])
	ctx.Exp(x, x, sm1, w[n:])
	ctx.Leave(x, x, w[n:])
	m := lFunction(new(big.Int).SetBits(x), s)
	m.Mul(m, h)
	return m.Mod(m, s)
}

// DecryptSlow recovers the plaintext without CRT, used to cross-check the
// fast path and as the baseline in the CRT ablation benchmark.
func (k *PrivateKey) DecryptSlow(c *Ciphertext) (*big.Int, error) {
	if k.lambda == nil {
		return nil, ErrNoPrivateKey // zeroized
	}
	if err := k.validateCiphertext(c); err != nil {
		return nil, err
	}
	// lambda = (p-1)(q-1) (lcm works too) and mu are precomputed at key
	// load, leaving a single big exponentiation here.
	x := new(big.Int).Exp(c.C, k.lambda, k.N2)
	l := lFunction(x, k.N)
	l.Mul(l, k.mu)
	decOps.Inc()
	return l.Mod(l, k.N), nil
}

// DecryptSigned recovers a signed plaintext in [-n/2, n/2).
func (k *PrivateKey) DecryptSigned(c *Ciphertext) (*big.Int, error) {
	m, err := k.Decrypt(c)
	if err != nil {
		return nil, err
	}
	return mathutil.ToSigned(m, k.N), nil
}

// Bytes returns a canonical encoding of the ciphertext value.
func (c *Ciphertext) Bytes() []byte {
	if c == nil || c.C == nil {
		return nil
	}
	return c.C.Bytes()
}
