package mathutil

// Montgomery multiplication on math/big's own word kernel. The fixed-base
// tables and the DGK comparison kernels keep their values in Montgomery
// form (x·R mod m, R = 2^(W·n) for an n-word modulus), so a product is a
// montMul and never divides: it is reduced by adding multiples of m that
// clear its low words, not by a long division.

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	_ "unsafe" // for go:linkname
)

// Errors returned by NewMont.
var (
	ErrEvenModulus = errors.New("mathutil: Montgomery modulus must be odd")
	ErrBadModulus  = errors.New("mathutil: Montgomery modulus must be > 2")
)

// Mont is the Montgomery context of one odd modulus m > 2: m's n words,
// k = −m⁻¹ mod 2^W, R² mod m and R mod m. It is immutable after NewMont,
// so workers share it without locks. Values in the domain are n-word
// slices kept below m. Scratch holds 3n words (17n for Exp with an
// exponent wider than 16 bits), and outputs may alias inputs.
type Mont struct {
	mod        *big.Int
	m, rr, one []big.Word
	k          big.Word
}

// NewMont builds the context of m with one division.
func NewMont(m *big.Int) (*Mont, error) {
	if m == nil || m.Cmp(Two) <= 0 {
		return nil, fmt.Errorf("%w, got %v", ErrBadModulus, m)
	}
	if m.Bit(0) == 0 {
		return nil, fmt.Errorf("%w, got %v", ErrEvenModulus, m)
	}
	n := len(m.Bits())
	c := &Mont{mod: new(big.Int).Set(m), m: slices.Clone(m.Bits()), k: montK(m.Bits()[0])}
	c.rr, c.one = make([]big.Word, n), make([]big.Word, n)
	copy(c.rr, new(big.Int).Mod(new(big.Int).Lsh(One, uint(2*bits.UintSize*n)), m).Bits())
	c.Leave(c.one, c.rr, make([]big.Word, 3*n)) // R²·R⁻¹
	return c, nil
}

// Words returns n.
func (c *Mont) Words() int { return len(c.m) }

// Enter sets z = x·R mod m for x ≥ 0 of any width without dividing: x's
// n-word chunks are folded in from the top, z ← z·R + x_j·R, both products
// montMuls by R² (three for a DGK ciphertext entering p's domain).
func (c *Mont) Enter(z []big.Word, x *big.Int, scratch []big.Word) {
	n, xw := len(c.m), x.Bits()
	t, chunk := scratch[:2*n], scratch[2*n:3*n]
	clear(z)
	for j := (len(xw)+n-1)/n - 1; j >= 0; j-- {
		if len(xw) > (j+1)*n {
			montMul(z, t, z, c.rr, c.m, c.k)
		}
		clear(chunk)
		copy(chunk, xw[j*n:min((j+1)*n, len(xw))])
		montMul(chunk, t, chunk, c.rr, c.m, c.k)
		reduceOnce(z, z, c.m, addMulVVW(z, chunk, 1)) // z + x_j·R
	}
}

// Mul sets z = x·y.
func (c *Mont) Mul(z, x, y, scratch []big.Word) { montMul(z, scratch, x, y, c.m, c.k) }

// Exp sets z = x^e for e ≥ 0 from a table of x¹…x^(2^w−1) in scratch:
// square and multiply (w = 1) for exponents of at most 16 bits, such as
// DGK's blinding exponents, and a 4-bit window for wider ones.
func (c *Mont) Exp(z, x []big.Word, e *big.Int, scratch []big.Word) {
	n, t, bl, w := len(c.m), scratch[:2*len(c.m)], e.BitLen(), 1
	if bl > 16 {
		w = 4
	}
	tab := scratch[2*n : (2+1<<w-1)*n] // x^d at [(d−1)·n, d·n)
	copy(tab, x)
	for d := n; d < len(tab); d += n {
		montMul(tab[d:d+n], t, tab[d-n:d], tab[:n], c.m, c.k)
	}
	copy(z, c.one)
	top := (bl+w-1)/w - 1
	for i := top; i >= 0; i-- {
		d := int(wordAt(e.Bits(), uint(w*i)) & (1<<w - 1))
		if i == top { // the top digit is nonzero
			copy(z, tab[(d-1)*n:d*n])
			continue
		}
		for j := 0; j < w; j++ {
			montMul(z, t, z, z, c.m, c.k)
		}
		if d != 0 {
			montMul(z, t, z, tab[(d-1)*n:d*n], c.m, c.k)
		}
	}
}

// MulRPow sets z = x·R^k mod m for k ≥ 0, paying back the factors R⁻¹
// that k Muls of values outside the domain leave. R^(k+1) is Exp's power k
// of R, whose domain form is R² mod m; scratch holds n words more than Exp's.
func (c *Mont) MulRPow(z, x []big.Word, k int, scratch []big.Word) {
	r, e := scratch[:len(c.m)], [1]big.Word{big.Word(k)}
	c.Exp(r, c.rr, new(big.Int).SetBits(e[:]), scratch[len(r):])
	montMul(z, scratch[len(r):], x, r, c.m, c.k)
}

// Leave sets z = x·R⁻¹ mod m.
func (c *Mont) Leave(z, x, scratch []big.Word) {
	one := scratch[2*len(c.m) : 3*len(c.m)]
	clear(one)
	one[0] = 1
	montMul(z, scratch, x, one, c.m, c.k)
}

// IsOne reports whether x is 1 in the domain (R mod m), without leaving it.
func (c *Mont) IsOne(x []big.Word) bool { return slices.Equal(x, c.one) }

// Zeroize overwrites the context's words, for one derived from a secret
// modulus; its owner then drops it.
func (c *Mont) Zeroize() {
	if c != nil {
		ZeroInt(c.mod)
		clear(c.m)
		clear(c.rr)
		clear(c.one)
	}
}

// addMulVVW sets z = z + x·y over len(z) == len(x) words and returns the
// carry word. It is math/big's assembly inner loop, the one big.Int.Exp's
// Montgomery ladder runs; math/big keeps it reachable by linkname and
// pledges its signature (go.dev/issue/67401). It is the only symbol this
// module pulls; builds with -tags math_big_pure_go do not provide it and
// fail to link.
//
//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

// montMul sets z = x·y·R⁻¹ mod m, up to multiples of m: the result is
// below R and congruent to x·y·R⁻¹, and below m whenever x·y < m·R — when
// x and y are below m, or one of them is 1 (the exit from the domain).
// x, y and m have n = len(m) words, x and y need only be below R, m must be
// odd, and k = −m⁻¹ mod 2^W (montK). scratch holds at least 2n words; z
// may alias x or y. Up to montWordsMax words a straight-line kernel runs
// (montMul1 … montMul4); wider moduli run the CIOS loop on addMulVVW.
func montMul(z, scratch, x, y, m []big.Word, k big.Word) {
	if len(m) > montWordsMax {
		montMulVVW(z, scratch, x, y, m, k)
		return
	}
	switch len(m) {
	case 1:
		montMul1(z, x, y, m, uint(k))
	case 2:
		montMul2(z, x, y, m, uint(k))
	case 3:
		montMul3(z, x, y, m, uint(k))
	case 4:
		montMul4(z, x, y, m, uint(k))
	}
}

// montWordsMax is the widest modulus, in words, that montMul multiplies in
// a straight-line kernel. Up to it two calls per word into addMulVVW cost
// more than the multiplies; from 7 words up a Go loop loses to addMulVVW's
// assembly (BenchmarkMontMul, results/mont_micro.txt). Widths 5 to 7 run
// in no key shape the protocol uses on 64-bit words.
const montWordsMax = 4

// montMulVVW is montMul at any width: the CIOS loop of math/big's
// nat.montgomery, two addMulVVW calls per word of y.
func montMulVVW(z, scratch, x, y, m []big.Word, k big.Word) {
	n := len(m)
	t := scratch[:2*n]
	clear(t)
	x, y = x[:n], y[:n]
	var c big.Word
	for i, yi := range y {
		ti := t[i : n+i]
		c2 := addMulVVW(ti, x, yi)
		c3 := addMulVVW(ti, m, ti[0]*k)
		cx := c + c2
		cy := cx + c3
		t[n+i] = cy
		if cx < c2 || cy < c3 {
			c = 1
		} else {
			c = 0
		}
	}
	reduceOnce(z, t[n:], m, c)
}

// mac returns a·b + c + d as two words, which it always fits.
func mac(a, b, c, d uint) (hi, lo uint) {
	hi, lo = bits.Mul(a, b)
	lo, c = bits.Add(lo, c, 0)
	hi += c
	lo, d = bits.Add(lo, d, 0)
	return hi + d, lo
}

// montMul1 … montMul4 are montMul's CIOS loop at one to four words with
// the words of x, m and the running sum t in locals: per word of y, t
// += x·y_i, then t = (t + u·m)/2^W with u = t0·k. t stays below R + m, so
// the word above t's n words is 0 or 1, and one conditional subtraction of
// m ends the product. x is read before z is written.
func montMul1(z, x, y, m []big.Word, k uint) {
	m0 := uint(m[0])
	c, t0 := mac(uint(x[0]), uint(y[0]), 0, 0)
	c2, _ := mac(m0, t0*k, t0, 0)
	t0, t1 := bits.Add(c, c2, 0)
	if d0, b := bits.Sub(t0, m0, 0); t1 != 0 || b == 0 {
		t0 = d0
	}
	z[0] = big.Word(t0)
}

func montMul2(z, x, y, m []big.Word, k uint) {
	x0, x1 := uint(x[0]), uint(x[1])
	m0, m1 := uint(m[0]), uint(m[1])
	var t0, t1, t2, t3, c, u, w uint
	w = uint(y[0])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	t2, t3 = bits.Add(t2, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	t1, c = bits.Add(t2, c, 0)
	t2 = t3 + c
	w = uint(y[1])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	t2, t3 = bits.Add(t2, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	t1, c = bits.Add(t2, c, 0)
	t2 = t3 + c
	d0, b := bits.Sub(t0, m0, 0)
	d1, b := bits.Sub(t1, m1, b)
	if t2 != 0 || b == 0 {
		t0, t1 = d0, d1
	}
	z[0], z[1] = big.Word(t0), big.Word(t1)
}

func montMul3(z, x, y, m []big.Word, k uint) {
	x0, x1, x2 := uint(x[0]), uint(x[1]), uint(x[2])
	m0, m1, m2 := uint(m[0]), uint(m[1]), uint(m[2])
	var t0, t1, t2, t3, t4, c, u, w uint
	w = uint(y[0])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	c, t2 = mac(x2, w, t2, c)
	t3, t4 = bits.Add(t3, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	c, t1 = mac(m2, u, t2, c)
	t2, c = bits.Add(t3, c, 0)
	t3 = t4 + c
	w = uint(y[1])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	c, t2 = mac(x2, w, t2, c)
	t3, t4 = bits.Add(t3, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	c, t1 = mac(m2, u, t2, c)
	t2, c = bits.Add(t3, c, 0)
	t3 = t4 + c
	w = uint(y[2])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	c, t2 = mac(x2, w, t2, c)
	t3, t4 = bits.Add(t3, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	c, t1 = mac(m2, u, t2, c)
	t2, c = bits.Add(t3, c, 0)
	t3 = t4 + c
	d0, b := bits.Sub(t0, m0, 0)
	d1, b := bits.Sub(t1, m1, b)
	d2, b := bits.Sub(t2, m2, b)
	if t3 != 0 || b == 0 {
		t0, t1, t2 = d0, d1, d2
	}
	z[0], z[1], z[2] = big.Word(t0), big.Word(t1), big.Word(t2)
}

func montMul4(z, x, y, m []big.Word, k uint) {
	x0, x1, x2, x3 := uint(x[0]), uint(x[1]), uint(x[2]), uint(x[3])
	m0, m1, m2, m3 := uint(m[0]), uint(m[1]), uint(m[2]), uint(m[3])
	var t0, t1, t2, t3, t4, t5, c, u, w uint
	w = uint(y[0])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	c, t2 = mac(x2, w, t2, c)
	c, t3 = mac(x3, w, t3, c)
	t4, t5 = bits.Add(t4, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	c, t1 = mac(m2, u, t2, c)
	c, t2 = mac(m3, u, t3, c)
	t3, c = bits.Add(t4, c, 0)
	t4 = t5 + c
	w = uint(y[1])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	c, t2 = mac(x2, w, t2, c)
	c, t3 = mac(x3, w, t3, c)
	t4, t5 = bits.Add(t4, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	c, t1 = mac(m2, u, t2, c)
	c, t2 = mac(m3, u, t3, c)
	t3, c = bits.Add(t4, c, 0)
	t4 = t5 + c
	w = uint(y[2])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	c, t2 = mac(x2, w, t2, c)
	c, t3 = mac(x3, w, t3, c)
	t4, t5 = bits.Add(t4, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	c, t1 = mac(m2, u, t2, c)
	c, t2 = mac(m3, u, t3, c)
	t3, c = bits.Add(t4, c, 0)
	t4 = t5 + c
	w = uint(y[3])
	c, t0 = mac(x0, w, t0, 0)
	c, t1 = mac(x1, w, t1, c)
	c, t2 = mac(x2, w, t2, c)
	c, t3 = mac(x3, w, t3, c)
	t4, t5 = bits.Add(t4, c, 0)
	u = t0 * k
	c, _ = mac(m0, u, t0, 0)
	c, t0 = mac(m1, u, t1, c)
	c, t1 = mac(m2, u, t2, c)
	c, t2 = mac(m3, u, t3, c)
	t3, c = bits.Add(t4, c, 0)
	t4 = t5 + c
	d0, b := bits.Sub(t0, m0, 0)
	d1, b := bits.Sub(t1, m1, b)
	d2, b := bits.Sub(t2, m2, b)
	d3, b := bits.Sub(t3, m3, b)
	if t4 != 0 || b == 0 {
		t0, t1, t2, t3 = d0, d1, d2, d3
	}
	z[0], z[1], z[2], z[3] = big.Word(t0), big.Word(t1), big.Word(t2), big.Word(t3)
}

// reduceOnce sets z = x − m if x, with the carry word c above it, is at
// least m, and z = x otherwise; z may alias x. A value below R + m ends
// below R, and one below 2m ends below m.
func reduceOnce(z, x, m []big.Word, c big.Word) {
	for i := len(x) - 1; c == 0 && i >= 0; i-- {
		if x[i] != m[i] {
			if x[i] < m[i] {
				copy(z, x)
				return
			}
			break
		}
	}
	subVV(z, x, m)
}

// subVV sets z = x − y over len(z) words and returns the borrow.
func subVV(z, x, y []big.Word) big.Word {
	var b uint
	for i := range z {
		var d uint
		d, b = bits.Sub(uint(x[i]), uint(y[i]), b)
		z[i] = big.Word(d)
	}
	return big.Word(b)
}

// montK returns −m0⁻¹ mod 2^W for an odd low word m0.
func montK(m0 big.Word) big.Word {
	inv := m0 // m0·m0 ≡ 1 mod 8: three correct bits
	for i := 0; i < 5; i++ {
		inv *= 2 - m0*inv // each step doubles them: 96 ≥ W
	}
	return -inv
}
