package mathutil

// Montgomery multiplication on math/big's own word kernel. The fixed-base
// tables keep their entries in Montgomery form (x·R mod m, R = 2^(W·n) for
// an n-word modulus), so a table walk multiplies with montMul and never
// divides: the product is reduced by adding multiples of m that clear its
// low words, not by a long division.

import (
	"math/big"
	"math/bits"
	_ "unsafe" // for go:linkname
)

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
// below R and congruent to x·y·R⁻¹, and it is at most m when one of x, y is
// 1 (the exit from the Montgomery domain). x, y and m have n = len(m)
// words, x and y need only be below R, m must be odd, and k = −m⁻¹ mod 2^W
// (montK). scratch holds at least 2n words; z may alias x or y. This is the
// CIOS loop of math/big's nat.montgomery.
func montMul(z, scratch, x, y, m []big.Word, k big.Word) {
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
	if c != 0 {
		subVV(z, t[n:], m)
	} else {
		copy(z, t[n:])
	}
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
