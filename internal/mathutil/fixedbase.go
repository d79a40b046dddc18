package mathutil

// Fixed-base modular exponentiation for the protocol hot path. Every
// blinding factor and every DGK encryption raises a base that is fixed for
// the lifetime of a key (DGK's g and h, Paillier's blinding base), so a
// windowed precomputation table turns each exponentiation into a short chain
// of multiplications with no squarings:
//
//	base^e = Π_i base^(d_i · 2^(w·i))   where e = Σ_i d_i · 2^(w·i)
//
// with every factor base^(d · 2^(w·i)) looked up from the table. For a
// t-bit exponent and window w this costs ~t/w multiplications against the
// ~1.3t of a generic square-and-multiply. The entries are kept in Montgomery
// form and multiplied by Montgomery products, so a walk performs no
// division: one product by 1 and one conditional subtraction leave the
// domain with the same value big.Int.Exp returns.
//
// Tables are immutable after construction and safe for concurrent use
// without locks; build them once per (base, modulus) at key-load time and
// share them across workers.

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Errors returned by the fixed-base kernel constructors, besides NewMont's.
var (
	ErrBadMaxBits = errors.New("mathutil: fixed-base maxBits must be positive")
	ErrNilBase    = errors.New("mathutil: fixed-base base must be non-nil")
)

// errZeroized is the panic value of an exponentiation on a zeroized table:
// its entries are all zero, so it would answer 0 or 1 for every exponent —
// a blinding factor anyone can strip. Only a bug reaches it.
var errZeroized = errors.New("mathutil: fixed-base table used after Zeroize")

// FixedBaseExp answers modular exponentiations for one fixed (base,
// modulus) pair from a windowed precomputation table. The table holds
// base^(d · 2^(w·i)) for every window position i and digit d, so an
// in-range exponentiation performs only table lookups and multiplications.
// Exponents that are negative or wider than maxBits fall back to
// big.Int.Exp (never truncate); the two paths are distinguishable through
// the privconsensus_fixedbase_{hits,fallbacks}_total counters.
type FixedBaseExp struct {
	base    *big.Int
	mont    *Mont
	window  uint
	digits  int
	maxBits int
	// table is one arena of digits·(2^window − 1) entries of n words: entry
	// (i, d), d in [1, 2^window), starts at word ((2^window − 1)·i + d − 1)·n
	// and holds base^(d · 2^(window·i))·R mod modulus with R = 2^(W·n).
	table []big.Word
}

// windowFor picks the window width: wider windows mean fewer multiplications
// per exponentiation ( ceil(maxBits/w) ) but 2^w - 1 table entries per
// window position. The widths below minimize the multiplication count; the
// price is memory, ceil(maxBits/w)·(2^w - 1) words the size of the modulus:
// 0.94 MB for a 1024-bit DGK key's h table (58 rows of 127 entries, 128
// bytes each), and 9.6 MB for the blinding table of a 2048-bit Paillier key
// (147 rows of 127 entries, 512 bytes each; EXPERIMENTS.md § PR 21 sizes
// window 8).
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
// exponents up to maxBits bits. The modulus must be odd (Montgomery form
// needs it) and > 2. The table is immutable once built and safe for
// lock-free concurrent reads.
func NewFixedBaseExp(base, modulus *big.Int, maxBits int) (*FixedBaseExp, error) {
	if base == nil {
		return nil, ErrNilBase
	}
	mont, err := NewMont(modulus)
	if err != nil {
		return nil, err
	}
	if maxBits <= 0 {
		return nil, fmt.Errorf("%w, got %d", ErrBadMaxBits, maxBits)
	}
	w := windowFor(maxBits)
	f := &FixedBaseExp{
		base:    new(big.Int).Mod(base, modulus),
		mont:    mont,
		window:  w,
		digits:  (maxBits + int(w) - 1) / int(w),
		maxBits: maxBits,
	}
	n := mont.Words()
	row := (1<<w - 1) * n
	f.table = make([]big.Word, f.digits*row)
	// cur = base^(2^(w·i))·R as i advances; every step is a Montgomery product.
	cur, scratch := make([]big.Word, n), make([]big.Word, 3*n)
	mont.Enter(cur, f.base, scratch)
	for i := 0; i < f.digits; i++ {
		r := f.table[i*row : (i+1)*row]
		copy(r, cur)
		for off := n; off < row; off += n {
			mont.Mul(r[off:off+n], r[off-n:off], cur, scratch)
		}
		if i < f.digits-1 {
			for j := uint(0); j < w; j++ {
				mont.Mul(cur, cur, cur, scratch)
			}
		}
	}
	fixedBaseTables.Inc()
	return f, nil
}

// Zeroize overwrites the base, the modulus and the whole table with zeros,
// for tables derived from secret moduli. Any exponentiation afterwards
// panics.
func (f *FixedBaseExp) Zeroize() {
	if f == nil {
		return
	}
	ZeroInt(f.base)
	f.mont.Zeroize()
	clear(f.table)
}

// Mont returns the table's Montgomery context, which callers may share.
func (f *FixedBaseExp) Mont() *Mont { return f.mont }

// MaxBits reports the widest exponent the table covers.
func (f *FixedBaseExp) MaxBits() int { return f.maxBits }

// Modulus returns the table's modulus. Callers must not mutate it.
func (f *FixedBaseExp) Modulus() *big.Int { return f.mont.mod }

// Exp sets z to base^e mod modulus, as Words() little-endian words below
// the modulus. Exponents in [0, 2^maxBits) are answered from the table with
// only multiplications in scratch, at least 3·Words() words the caller
// owns; z must not alias it. Anything else (negative, nil or oversized)
// falls back to big.Int.Exp, which allocates, so results are never
// truncated.
func (f *FixedBaseExp) Exp(z []big.Word, e *big.Int, scratch []big.Word) {
	if e == nil {
		e = Zero
	}
	if !f.covers(e) {
		fixedBaseFallbacks.Inc()
		setWords(z, f.fallback(e))
		return
	}
	fixedBaseHits.Inc()
	f.leave(z, scratch, f.walk(z, scratch, e, false))
}

// MulExp sets z to f.base^x · g.base^y mod f's modulus — the fixed-base
// form of a simultaneous exponentiation, used for DGK's g^m · h^r; z and
// scratch are as in Exp. When both tables share one modulus and cover
// their exponents, both walks multiply into one Montgomery accumulator and
// leave the domain once; otherwise the per-table results are composed
// modulo f's modulus with big.Int arithmetic, which allocates.
func (f *FixedBaseExp) MulExp(g *FixedBaseExp, z []big.Word, x, y *big.Int, scratch []big.Word) {
	if x == nil {
		x = Zero
	}
	if y == nil {
		y = Zero
	}
	if !f.covers(x) || !g.covers(y) || f.mont.mod.Cmp(g.mont.mod) != 0 {
		gy := make([]big.Word, g.mont.Words())
		g.Exp(gy, y, make([]big.Word, 3*len(gy)))
		f.Exp(z, x, scratch)
		out := new(big.Int).Mul(new(big.Int).SetBits(z), new(big.Int).SetBits(gy))
		setWords(z, out.Mod(out, f.mont.mod))
		return
	}
	fixedBaseHits.Add(2)
	f.leave(z, scratch, g.walk(z, scratch, y, f.walk(z, scratch, x, false)))
}

// fallback is big.Int.Exp for an exponent the table does not cover. A
// negative exponent of a base with no inverse has no answer; only a bug
// asks for one.
func (f *FixedBaseExp) fallback(e *big.Int) *big.Int {
	out := new(big.Int).Exp(f.base, e, f.mont.mod)
	if out == nil {
		panic(fmt.Sprintf("mathutil: %v has no inverse modulo the table's modulus", f.base))
	}
	return out
}

// setWords writes x, below the modulus, into z's words.
func setWords(z []big.Word, x *big.Int) {
	clear(z)
	copy(z, x.Bits())
}

// covers reports whether e is answered from the table. It panics on a
// zeroized table, whichever path e would take.
func (f *FixedBaseExp) covers(e *big.Int) bool {
	if f.mont.mod.Sign() == 0 {
		panic(errZeroized)
	}
	return e.Sign() >= 0 && e.BitLen() <= f.maxBits
}

// walk multiplies acc by base^e in the Montgomery domain, one table entry
// per nonzero window digit of e. When started is false acc holds nothing
// yet and the first entry is copied in; walk reports whether acc holds a
// value on return.
func (f *FixedBaseExp) walk(acc, scratch []big.Word, e *big.Int, started bool) bool {
	n := f.mont.Words()
	ew := e.Bits()
	mask := big.Word(1)<<f.window - 1
	for i := 0; i < f.digits; i++ {
		d := int(wordAt(ew, uint(i)*f.window) & mask)
		if d == 0 {
			continue
		}
		off := ((1<<f.window-1)*i + d - 1) * n
		entry := f.table[off : off+n]
		if !started {
			copy(acc, entry)
			started = true
			continue
		}
		f.mont.Mul(acc, acc, entry, scratch)
	}
	return started
}

// leave sets acc to acc·R⁻¹ mod modulus. An accumulator that never started
// is the empty product, 1 (the modulus is > 2, so 1 needs no reduction).
func (f *FixedBaseExp) leave(acc, scratch []big.Word, started bool) {
	if !started {
		clear(acc)
		acc[0] = 1
		return
	}
	f.mont.Leave(acc, acc, scratch)
}

// wordAt returns the word of ew's bits that starts at bit off.
func wordAt(ew []big.Word, off uint) big.Word {
	i, s := int(off/bits.UintSize), off%bits.UintSize
	var d big.Word
	if i < len(ew) {
		d = ew[i] >> s
	}
	if s != 0 && i+1 < len(ew) {
		d |= ew[i+1] << (bits.UintSize - s)
	}
	return d
}
