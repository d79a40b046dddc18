// Package dgk implements the Damgård–Geisler–Krøigaard (DGK) cryptosystem
// and the interactive DGK secure-comparison protocol (refs. [12], [13] of
// the paper), which the private consensus protocol uses for its Secure
// Comparison and Threshold Checking steps.
//
// DGK ciphertexts live in Z_n^* with E(m) = g^m · h^r mod n. The plaintext
// space Z_u is deliberately tiny (u is a small prime), which makes the
// zero-test decryption used by the comparison protocol a single modular
// exponentiation — the property that makes DGK faster than Paillier for
// bitwise comparison.
package dgk

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
	ErrMessageRange  = errors.New("dgk: message outside plaintext space [0, u)")
	ErrCiphertextNil = errors.New("dgk: nil ciphertext")
	ErrBadParams     = errors.New("dgk: invalid key parameters")
	ErrNoPrivateKey  = errors.New("dgk: operation requires the private key")
)

// Params configures DGK key generation.
type Params struct {
	// NBits is the modulus size. The paper's prototype regime is small
	// (64-bit Paillier); production should use >= 1024.
	NBits int
	// TBits is the bit length of the secret primes v_p, v_q (security of
	// the blinding; >= 160 in production).
	TBits int
	// U is the plaintext-space prime. It must exceed 3*L+2 so comparison
	// intermediate values cannot wrap to zero.
	U uint64
	// L is the bit length of the values compared by the comparison
	// protocol.
	L int
}

// Validate checks internal consistency of the parameters.
func (p Params) Validate() error {
	if p.L <= 0 || p.L > 62 {
		return fmt.Errorf("%w: L=%d must be in [1, 62]", ErrBadParams, p.L)
	}
	if p.U <= uint64(3*p.L+2) {
		return fmt.Errorf("%w: U=%d must exceed 3*L+2=%d", ErrBadParams, p.U, 3*p.L+2)
	}
	if !new(big.Int).SetUint64(p.U).ProbablyPrime(32) {
		return fmt.Errorf("%w: U=%d must be prime", ErrBadParams, p.U)
	}
	uBits := new(big.Int).SetUint64(p.U).BitLen()
	minHalf := uBits + p.TBits + 8
	if p.NBits/2 < minHalf {
		return fmt.Errorf("%w: NBits=%d too small for TBits=%d and U=%d (need >= %d)",
			ErrBadParams, p.NBits, p.TBits, p.U, 2*minHalf)
	}
	return nil
}

// PublicKey is the DGK public key.
type PublicKey struct {
	N *big.Int // modulus
	G *big.Int // order u*v_p*v_q element
	H *big.Int // order v_p*v_q element
	U *big.Int // plaintext-space prime
	// RBits is the bit length of encryption randomness (2.5 * TBits).
	RBits int
	// L is the comparison bit length carried for protocol agreement.
	L int
	// pre holds n's Montgomery context and the fixed-base tables for g and
	// h. It is attached at key construction/load and shared (by pointer)
	// with every copy of the key, so each is built once per key and then
	// read lock-free by all comparison goroutines.
	pre *precomp
}

// precomp caches what a key's products need: n's Montgomery context, built
// with the key, and the fixed-base exponentiation tables, built on first
// use. Both generators are fixed for the key's lifetime: g raises only
// plaintexts (< u) and h only RBits-wide blinding exponents, so two small
// window tables replace every square-and-multiply on the encrypt path.
type precomp struct {
	mont         *mathutil.Mont // n's
	gOnce, hOnce sync.Once
	g, h         *mathutil.FixedBaseExp
}

// mont returns n's Montgomery context from the key's precomp. GenerateKey
// and UnmarshalJSON attach a precomp to every key they return; a key
// assembled field by field has none and is refused here.
func (pk *PublicKey) mont() (*mathutil.Mont, error) {
	if pk.pre == nil {
		return nil, fmt.Errorf("%w: key not built by GenerateKey or UnmarshalJSON", ErrBadParams)
	}
	return pk.pre.mont, nil
}

// gTable returns the fixed-base table for g (exponents < u), building it on
// first use.
func (pk *PublicKey) gTable() *mathutil.FixedBaseExp {
	pk.pre.gOnce.Do(func() { pk.pre.g, _ = mathutil.NewFixedBaseExp(pk.G, pk.N, pk.U.BitLen()) })
	return pk.pre.g
}

// hTable returns the fixed-base table for h (RBits-wide exponents).
func (pk *PublicKey) hTable() *mathutil.FixedBaseExp {
	pk.pre.hOnce.Do(func() { pk.pre.h, _ = mathutil.NewFixedBaseExp(pk.H, pk.N, pk.RBits) })
	return pk.pre.h
}

// Precompute eagerly builds the fixed-base tables so the first encryption
// after key load does not pay the table-construction cost. Safe to call
// concurrently and more than once. A key without its holder builds
// nothing: its first use is refused.
func (pk *PublicKey) Precompute() {
	if _, err := pk.mont(); err != nil {
		return
	}
	pk.gTable()
	pk.hTable()
}

// PrivateKey holds the DGK secret key with its zero-test context.
type PrivateKey struct {
	PublicKey
	p, vp *big.Int
	// q = n/p and its subgroup order v_q serve only the owner's encryptions.
	// vq is nil for a key file written before the format carried "vq".
	q, vq *big.Int
	// zt is p's Montgomery context, for IsZero; nil once zeroized.
	zt *mathutil.Mont
	// own holds the lazily-built CRT encryption tables. They are derived
	// from the factorization, so they hang off the private key only:
	// Public() copies share pre but can never reach own. Nil once zeroized.
	own *ownPrecomp
}

// ownPrecomp lets the key owner compute the same ciphertext g^m·h^r mod n
// as the public path at about a third of the cost. h has order v_p modulo p
// and v_q modulo q, so h^r = h^(r mod v_p) (mod p): two fixed-base walks
// over half-width moduli with TBits-wide exponents, recombined by CRT,
// replace one RBits-wide walk over n. Without v_q (an older key file) the
// q-side walk keeps the full RBits-wide exponent.
type ownPrecomp struct {
	once sync.Once
	p, q *mathutil.FixedBaseExp // base h mod p and mod q
	crt  *mathutil.CRTParams
}

// ownTables returns the CRT encryption tables, building them on first use.
// It is nil once the key is zeroized.
func (sk *PrivateKey) ownTables() *ownPrecomp {
	own := sk.own
	if own == nil {
		return nil
	}
	own.once.Do(func() {
		qBits := sk.RBits
		if sk.vq != nil {
			qBits = sk.vq.BitLen()
		}
		tp, errP := mathutil.NewFixedBaseExp(sk.H, sk.p, sk.vp.BitLen())
		tq, errQ := mathutil.NewFixedBaseExp(sk.H, sk.q, qBits)
		crt, err := mathutil.NewCRTParams(sk.p, sk.q)
		if errP == nil && errQ == nil && err == nil {
			own.p, own.q, own.crt = tp, tq, crt
		}
	})
	return own
}

// Precompute eagerly builds the public tables and the owner's CRT tables.
// Safe to call concurrently and more than once.
func (sk *PrivateKey) Precompute() {
	sk.PublicKey.Precompute()
	sk.ownTables()
}

// Zeroize destroys the private half of the key in place: the secret
// factors and subgroup orders have their limbs overwritten with zeros, as
// have the zero test's context and the owner's encryption tables (residues
// modulo the secret factors). The embedded PublicKey holds no secrets and
// is left intact. The key is unusable for zero tests and owner encryption
// afterwards.
func (sk *PrivateKey) Zeroize() {
	if sk == nil {
		return
	}
	for _, v := range []*big.Int{sk.p, sk.vp, sk.q, sk.vq} {
		mathutil.ZeroInt(v)
	}
	sk.p, sk.vp, sk.q, sk.vq = nil, nil, nil, nil
	sk.zt.Zeroize()
	sk.zt = nil
	if own := sk.own; own != nil {
		own.p.Zeroize()
		own.q.Zeroize()
		own.crt.Zeroize()
		own.p, own.q, own.crt = nil, nil, nil
		sk.own = nil
	}
}

// Ciphertext is a DGK ciphertext in Z_n^*.
type Ciphertext struct {
	C *big.Int
}

// GenerateKey creates a DGK key pair. rng defaults to crypto/rand.Reader.
func GenerateKey(rng io.Reader, params Params) (*PrivateKey, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.Reader
	}
	u := new(big.Int).SetUint64(params.U)
	vp, err := mathutil.RandPrime(rng, params.TBits)
	if err != nil {
		return nil, err
	}
	vq, err := mathutil.RandPrime(rng, params.TBits)
	if err != nil {
		return nil, err
	}
	for vq.Cmp(vp) == 0 {
		if vq, err = mathutil.RandPrime(rng, params.TBits); err != nil {
			return nil, err
		}
	}

	half := params.NBits / 2
	p, err := findDGKPrime(rng, half, u, vp)
	if err != nil {
		return nil, fmt.Errorf("dgk: generate p: %w", err)
	}
	q, err := findDGKPrime(rng, params.NBits-half, u, vq)
	if err != nil {
		return nil, fmt.Errorf("dgk: generate q: %w", err)
	}
	for q.Cmp(p) == 0 {
		if q, err = findDGKPrime(rng, params.NBits-half, u, vq); err != nil {
			return nil, err
		}
	}
	n := new(big.Int).Mul(p, q)

	gp, err := elementOfOrder(rng, p, u, vp) // order u*vp mod p
	if err != nil {
		return nil, fmt.Errorf("dgk: find g mod p: %w", err)
	}
	gq, err := elementOfOrder(rng, q, u, vq)
	if err != nil {
		return nil, fmt.Errorf("dgk: find g mod q: %w", err)
	}
	hp, err := elementOfOrder(rng, p, mathutil.One, vp) // order vp mod p
	if err != nil {
		return nil, fmt.Errorf("dgk: find h mod p: %w", err)
	}
	hq, err := elementOfOrder(rng, q, mathutil.One, vq)
	if err != nil {
		return nil, fmt.Errorf("dgk: find h mod q: %w", err)
	}
	crt, err := mathutil.NewCRTParams(p, q)
	if err != nil {
		return nil, fmt.Errorf("dgk: CRT setup: %w", err)
	}
	g := combine(crt, gp, gq)
	h := combine(crt, hp, hq)

	mont, _ := mathutil.NewMont(n) // n is odd and > 2: it cannot fail
	key := &PrivateKey{
		PublicKey: PublicKey{
			N: n, G: g, H: h, U: u,
			RBits: params.TBits * 5 / 2,
			L:     params.L,
			pre:   &precomp{mont: mont},
		},
		p: p, vp: vp, q: q, vq: vq,
		own: &ownPrecomp{},
	}
	key.zt, _ = mathutil.NewMont(p) // p is an odd prime: it cannot fail
	return key, nil
}

// combine is crt.Combine of two residues given as big.Ints, for key
// generation.
func combine(crt *mathutil.CRTParams, xp, xq *big.Int) *big.Int {
	z := make([]big.Word, crt.Words())
	crt.Combine(z, xp.Bits(), xq.Bits(), make([]big.Word, 4*len(z)))
	return new(big.Int).SetBits(z)
}

// findDGKPrime finds a prime s of the given bit length with u*v | s-1.
func findDGKPrime(rng io.Reader, bits int, u, v *big.Int) (*big.Int, error) {
	uv := new(big.Int).Mul(u, v)
	uv.Mul(uv, mathutil.Two)
	wBits := bits - uv.BitLen()
	if wBits < 2 {
		return nil, fmt.Errorf("dgk: %d-bit prime too small for cofactors", bits)
	}
	s := new(big.Int)
	for i := 0; i < 100000; i++ {
		w, err := mathutil.RandBits(new(big.Int), rng, wBits, nil)
		if err != nil {
			return nil, err
		}
		w.SetBit(w, wBits-1, 1) // force size
		s.Mul(uv, w)
		s.Add(s, mathutil.One)
		if s.BitLen() >= bits-1 && s.ProbablyPrime(32) {
			return new(big.Int).Set(s), nil
		}
	}
	return nil, errors.New("dgk: no suitable prime found")
}

// elementOfOrder returns an element of order exactly a*b mod prime s, where
// a and b are distinct primes or a == 1.
func elementOfOrder(rng io.Reader, s, a, b *big.Int) (*big.Int, error) {
	sm1 := new(big.Int).Sub(s, mathutil.One)
	ab := new(big.Int).Mul(a, b)
	exp := new(big.Int).Div(sm1, ab)
	cand := new(big.Int)
	for i := 0; i < 10000; i++ {
		x, err := mathutil.RandInt(new(big.Int), rng, s, nil)
		if err != nil {
			return nil, err
		}
		if x.Sign() == 0 {
			continue
		}
		cand.Exp(x, exp, s) // order divides a*b
		if cand.Cmp(mathutil.One) == 0 {
			continue
		}
		// Order is in {a, b, ab} (or {b} when a==1). Require exactly ab.
		if a.Cmp(mathutil.One) != 0 {
			if new(big.Int).Exp(cand, a, s).Cmp(mathutil.One) == 0 {
				continue // order divides a, not ab
			}
			if new(big.Int).Exp(cand, b, s).Cmp(mathutil.One) == 0 {
				continue // order divides b
			}
		}
		return new(big.Int).Set(cand), nil
	}
	return nil, errors.New("dgk: no element of required order found")
}

// Public returns the public part of the key.
func (k *PrivateKey) Public() *PublicKey {
	pub := k.PublicKey
	return &pub
}

func (pk *PublicKey) validateMessage(m *big.Int) error {
	if m == nil || m.Sign() < 0 || m.Cmp(pk.U) >= 0 {
		return fmt.Errorf("%w: m=%v u=%v", ErrMessageRange, m, pk.U)
	}
	return nil
}

func (pk *PublicKey) validateCiphertext(c *Ciphertext) error {
	if c == nil || c.C == nil {
		return ErrCiphertextNil
	}
	if c.C.Sign() <= 0 || c.C.Cmp(pk.N) >= 0 {
		return fmt.Errorf("dgk: ciphertext out of range")
	}
	return nil
}

// Encrypt encrypts m in [0, u): E(m) = g^m h^r mod n. Both factors have
// fixed bases, so the whole product comes from the key's window tables.
func (pk *PublicKey) Encrypt(rng io.Reader, m *big.Int) (*Ciphertext, error) {
	if _, err := pk.mont(); err != nil {
		return nil, err
	}
	if err := pk.validateMessage(m); err != nil {
		return nil, err
	}
	r, err := mathutil.RandBits(new(big.Int), rng, pk.RBits, nil)
	if err != nil {
		return nil, fmt.Errorf("dgk: sample randomness: %w", err)
	}
	gt := pk.gTable()
	z := make([]big.Word, gt.Mont().Words())
	gt.MulExp(pk.hTable(), z, m, r, make([]big.Word, 3*len(z)))
	encOps.Inc()
	return &Ciphertext{C: new(big.Int).SetBits(z)}, nil
}

// gPow returns g^m mod n for m in [0, u), from the g table.
func (pk *PublicKey) gPow(m *big.Int) *big.Int {
	gt := pk.gTable()
	z := make([]big.Word, gt.Mont().Words())
	gt.Exp(z, m, make([]big.Word, 3*len(z)))
	return new(big.Int).SetBits(z)
}

// Encrypt is the key owner's Encrypt: the byte-identical ciphertext from the
// same rng stream as the public path, with h^r computed modulo p and q
// through the CRT tables (see ownPrecomp). It returns ErrNoPrivateKey on a
// zeroized key.
func (sk *PrivateKey) Encrypt(rng io.Reader, m *big.Int) (*Ciphertext, error) {
	ctx, err := sk.mont()
	if err != nil {
		return nil, err
	}
	own := sk.ownTables()
	if own == nil || own.crt == nil {
		return nil, ErrNoPrivateKey
	}
	if err := sk.validateMessage(m); err != nil {
		return nil, err
	}
	s := sk.newOwnScratch()
	z, gm := make([]big.Word, ctx.Words()), make([]big.Word, ctx.Words())
	ctx.Enter(gm, sk.gPow(m), s.w)
	if err := sk.encryptOwn(z, rng, own, ctx, gm, s); err != nil {
		return nil, err
	}
	return &Ciphertext{C: new(big.Int).SetBits(z)}, nil
}

// ownScratch is one worker's memory for the key owner's encryptions: the
// draw of r and its byte buffer, r's residue and the division's quotient,
// h^r modulo p and modulo q, and the kernels' scratch. It lives for one
// call and holds residues modulo the secret factors.
type ownScratch struct {
	r, e, quo big.Int
	buf       []byte
	w         []big.Word // h^r mod p, h^r mod q (n words each), then 4n for the kernels
}

// newOwnScratch sizes an ownScratch for the key.
func (sk *PrivateKey) newOwnScratch() *ownScratch {
	n := len(sk.N.Bits())
	return &ownScratch{buf: make([]byte, (sk.RBits+7)/8), w: make([]big.Word, 6*n)}
}

// encryptOwn sets z, n's words, to the owner's encryption h^r·g^m mod n for
// one RandBits(RBits) draw r, given g^m in n's Montgomery domain (ctx):
// h^r from the two CRT tables, then one multiplication by g^m·R that also
// leaves the domain. It allocates nothing.
func (sk *PrivateKey) encryptOwn(z []big.Word, rng io.Reader, own *ownPrecomp, ctx *mathutil.Mont, gm []big.Word, s *ownScratch) error {
	r, err := mathutil.RandBits(&s.r, rng, sk.RBits, s.buf)
	if err != nil {
		return fmt.Errorf("dgk: sample randomness: %w", err)
	}
	n := len(z)
	xp, xq, kernel := s.w[:own.p.Mont().Words()], s.w[n:n+own.q.Mont().Words()], s.w[2*n:]
	s.quo.QuoRem(r, sk.vp, &s.e)
	own.p.Exp(xp, &s.e, kernel)
	e := r
	if sk.vq != nil {
		e = &s.e
		s.quo.QuoRem(r, sk.vq, e)
	}
	own.q.Exp(xq, e, kernel)
	own.crt.Combine(z, xp, xq, kernel)
	ctx.Mul(z, z, gm, kernel)
	encOps.Inc()
	return nil
}

// zeroTestWords is the zero test's scratch per word of p: the value, then
// Mont.Exp's 17 for an exponent wider than 16 bits.
const zeroTestWords = 18

// IsZero reports whether c encrypts 0, using the fast zero test
// c^{v_p} mod p == 1, computed in p's Montgomery domain with no division.
func (k *PrivateKey) IsZero(c *Ciphertext) (bool, error) {
	zt := k.zt
	if zt == nil {
		return false, ErrNoPrivateKey // zeroized
	}
	if err := k.validateCiphertext(c); err != nil {
		return false, err
	}
	return k.isZero(zt, c.C, make([]big.Word, zeroTestWords*zt.Words())), nil
}

// isZero is the zero test of a validated ciphertext c under zt, p's
// context, in the caller's scratch x of zeroTestWords words per word of p.
func (k *PrivateKey) isZero(zt *mathutil.Mont, c *big.Int, x []big.Word) bool {
	n := zt.Words()
	zt.Enter(x[:n], c, x[n:])
	zt.Exp(x[:n], x[:n], k.vp, x[n:])
	zeroTests.Inc()
	return zt.IsOne(x[:n])
}
