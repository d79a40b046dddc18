package mathutil

// Fixed-base and simultaneous modular-exponentiation kernels for the
// protocol hot path. Every protocol phase bottoms out in big.Int.Exp with a
// base that is fixed for the lifetime of a key (DGK's g and h, Paillier's
// blinding base), so a windowed precomputation table turns each
// exponentiation into a short chain of multiplications with no squarings:
//
//	base^e = Π_i base^(d_i · 2^(w·i))   where e = Σ_i d_i · 2^(w·i)
//
// with every factor base^(d · 2^(w·i)) looked up from the table. For a
// t-bit exponent and window w this costs ~t/w multiplications against the
// ~1.3t of a generic square-and-multiply.
//
// For one-shot base pairs, MultiExp implements Shamir's simultaneous
// exponentiation: a^x · b^y over a single shared squaring chain.
//
// Tables are immutable after construction and safe for concurrent use
// without locks; build them once per (base, modulus) at key-load time and
// share them across workers.

import (
	"errors"
	"fmt"
	"math/big"
)

// Errors returned by the fixed-base kernel constructors.
var (
	ErrEvenModulus = errors.New("mathutil: fixed-base modulus must be odd")
	ErrBadModulus  = errors.New("mathutil: fixed-base modulus must be > 2")
	ErrBadMaxBits  = errors.New("mathutil: fixed-base maxBits must be positive")
	ErrNilBase     = errors.New("mathutil: fixed-base base must be non-nil")
)

// FixedBaseExp answers modular exponentiations for one fixed (base,
// modulus) pair from a windowed precomputation table. The table holds
// base^(d · 2^(w·i)) mod m for every window position i and digit d, so an
// in-range exponentiation performs only table lookups and multiplications.
// Exponents that are negative or wider than maxBits fall back to
// big.Int.Exp (never truncate); the two paths are distinguishable through
// the privconsensus_fixedbase_{hits,fallbacks}_total counters.
type FixedBaseExp struct {
	base    *big.Int
	modulus *big.Int
	window  uint
	digits  int
	maxBits int
	// table[i][d-1] = base^(d · 2^(window·i)) mod modulus, d in [1, 2^window).
	table [][]*big.Int
}

// windowFor picks the window width: wider windows mean fewer multiplications
// per exponentiation ( ceil(maxBits/w) ) but 2^w - 1 table entries per
// window position. The widths below minimize the multiplication count; the
// price is memory, ceil(maxBits/w)·(2^w - 1) residues of the modulus: about
// a megabyte for a 1024-bit DGK key's h table, and 9.6 MB — 11.0 MB
// resident — for the blinding table of a 2048-bit Paillier key (147 rows of
// 127 entries, 512 bytes each; EXPERIMENTS.md § PR 21 sizes window 8).
func windowFor(maxBits int) uint {
	switch {
	case maxBits <= 16:
		return 2
	case maxBits <= 48:
		return 4
	case maxBits <= 240:
		return 6
	default:
		return 7
	}
}

// NewFixedBaseExp precomputes the window table for base^e mod modulus with
// exponents up to maxBits bits. The modulus must be odd (matching the
// Montgomery-friendly moduli of the crypto packages) and > 2. The table is
// immutable once built and safe for lock-free concurrent reads.
func NewFixedBaseExp(base, modulus *big.Int, maxBits int) (*FixedBaseExp, error) {
	if base == nil {
		return nil, ErrNilBase
	}
	if modulus == nil || modulus.Cmp(Two) <= 0 {
		return nil, fmt.Errorf("%w, got %v", ErrBadModulus, modulus)
	}
	if modulus.Bit(0) == 0 {
		return nil, fmt.Errorf("%w, got %v", ErrEvenModulus, modulus)
	}
	if maxBits <= 0 {
		return nil, fmt.Errorf("%w, got %d", ErrBadMaxBits, maxBits)
	}
	m := new(big.Int).Set(modulus)
	b := new(big.Int).Mod(base, m)
	w := windowFor(maxBits)
	digits := (maxBits + int(w) - 1) / int(w)
	table := make([][]*big.Int, digits)
	cur := new(big.Int).Set(b) // base^(2^(w·i)) as i advances
	// Products go through one scratch value and entries are copied out of
	// it: Mul sizes its result for its Karatsuba temporaries (six times the
	// residue at 4096 bits) and Mod keeps that buffer, so entries built in
	// place would each pin it for the table's lifetime.
	var prod big.Int
	for i := 0; i < digits; i++ {
		row := make([]*big.Int, (1<<w)-1)
		row[0] = new(big.Int).Set(cur)
		for d := 2; d < 1<<w; d++ {
			prod.Mul(row[d-2], cur)
			prod.Mod(&prod, m)
			row[d-1] = new(big.Int).Set(&prod)
		}
		table[i] = row
		if i < digits-1 {
			for j := uint(0); j < w; j++ {
				cur.Mul(cur, cur)
				cur.Mod(cur, m)
			}
		}
	}
	fixedBaseTables.Inc()
	return &FixedBaseExp{
		base: b, modulus: m,
		window: w, digits: digits, maxBits: maxBits,
		table: table,
	}, nil
}

// Zeroize overwrites the base, the modulus and every table entry with zeros,
// for tables derived from secret moduli. The table must not be used
// afterwards.
func (f *FixedBaseExp) Zeroize() {
	if f == nil {
		return
	}
	ZeroInt(f.base)
	ZeroInt(f.modulus)
	for _, row := range f.table {
		for _, v := range row {
			ZeroInt(v)
		}
	}
	f.table, f.digits = nil, 0
}

// MaxBits reports the widest exponent the table covers.
func (f *FixedBaseExp) MaxBits() int { return f.maxBits }

// Modulus returns the table's modulus. Callers must not mutate it.
func (f *FixedBaseExp) Modulus() *big.Int { return f.modulus }

// Exp returns base^e mod modulus. Exponents in [0, 2^maxBits) are answered
// from the table with only multiplications; anything else (negative, nil or
// oversized) falls back to big.Int.Exp so results are never truncated.
func (f *FixedBaseExp) Exp(e *big.Int) *big.Int {
	if e == nil {
		e = Zero
	}
	if e.Sign() < 0 || e.BitLen() > f.maxBits {
		fixedBaseFallbacks.Inc()
		return new(big.Int).Exp(f.base, e, f.modulus)
	}
	fixedBaseHits.Inc()
	// The accumulator starts as a copy of the first live table entry and
	// the product scratch is reused across iterations, so a warm walk costs
	// one Mul and one Mod per nonzero digit with no per-step allocations.
	var acc, prod big.Int
	started := false
	for i := 0; i < f.digits; i++ {
		d := f.digit(e, i)
		if d == 0 {
			continue
		}
		entry := f.table[i][d-1]
		if !started {
			acc.Set(entry)
			started = true
			continue
		}
		prod.Mul(&acc, entry)
		acc.Mod(&prod, f.modulus)
	}
	if !started {
		acc.SetInt64(1) // e == 0 (modulus > 2, so 1 needs no reduction)
	}
	return &acc
}

// MulExp returns f.base^x · g.base^y mod the shared modulus — the
// fixed-base form of a simultaneous exponentiation, used for DGK's
// g^m · h^r. Both tables must share one modulus; mismatched tables fall
// back to composing the per-table results modulo f's modulus.
func (f *FixedBaseExp) MulExp(g *FixedBaseExp, x, y *big.Int) *big.Int {
	out := f.Exp(x)
	out.Mul(out, g.Exp(y))
	return out.Mod(out, f.modulus)
}

// digit extracts the i-th base-2^window digit of e.
func (f *FixedBaseExp) digit(e *big.Int, i int) uint {
	off := i * int(f.window)
	var d uint
	for j := 0; j < int(f.window); j++ {
		d |= e.Bit(off+j) << j
	}
	return d
}

// MultiExp computes a^x · b^y mod m for one-shot bases using Shamir's
// simultaneous square-and-multiply: one shared squaring chain of
// max(|x|, |y|) squarings instead of two, with a^b precombined. The result
// equals the composition Exp(a,x,m) · Exp(b,y,m) mod m exactly (the
// differential fuzz targets enforce this).
//
// m must be positive and the exponents non-negative; negative exponents
// fall back to the big.Int.Exp composition (which yields modular inverses
// when they exist and nil otherwise), and a nil or non-positive m returns
// nil.
func MultiExp(a, x, b, y, m *big.Int) *big.Int {
	if a == nil || b == nil || x == nil || y == nil || m == nil || m.Sign() <= 0 {
		return nil
	}
	if x.Sign() < 0 || y.Sign() < 0 {
		ax := new(big.Int).Exp(a, x, m)
		if ax == nil {
			return nil
		}
		by := new(big.Int).Exp(b, y, m)
		if by == nil {
			return nil
		}
		ax.Mul(ax, by)
		return ax.Mod(ax, m)
	}
	am := new(big.Int).Mod(a, m)
	bm := new(big.Int).Mod(b, m)
	ab := new(big.Int).Mul(am, bm)
	ab.Mod(ab, m)
	acc := new(big.Int).Mod(One, m) // 0 when m == 1, matching big.Int.Exp
	n := x.BitLen()
	if y.BitLen() > n {
		n = y.BitLen()
	}
	for i := n - 1; i >= 0; i-- {
		acc.Mul(acc, acc)
		acc.Mod(acc, m)
		var factor *big.Int
		switch {
		case x.Bit(i) == 1 && y.Bit(i) == 1:
			factor = ab
		case x.Bit(i) == 1:
			factor = am
		case y.Bit(i) == 1:
			factor = bm
		default:
			continue
		}
		acc.Mul(acc, factor)
		acc.Mod(acc, m)
	}
	return acc
}
