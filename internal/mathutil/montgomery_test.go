package mathutil

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// toWords returns v as exactly n little-endian words; v must fit.
func toWords(v *big.Int, n int) []big.Word {
	w := make([]big.Word, n)
	copy(w, v.Bits())
	return w
}

// checkMontMul runs the kernel NewMont picks for m on x, y < R = 2^(W·n) modulo the odd n-word m
// and checks the result is congruent to x·y·R⁻¹ mod m, below m when
// x·y < m·R, and the same when z aliases x and from montMulLoop. Its n words are below R by
// construction.
func checkMontMul(t *testing.T, x, y, m *big.Int) {
	t.Helper()
	n := len(m.Bits())
	r := new(big.Int).Lsh(One, uint(bits.UintSize*n))
	z, xw, mw, k := make([]big.Word, n), toWords(x, n), toWords(m, n), montK(m.Bits()[0])
	montMul := kernelFor(n)
	montMul(z, make([]big.Word, 2*n), xw, toWords(y, n), mw, k)
	got := new(big.Int).SetBits(z)
	want := new(big.Int).Mul(x, y)
	bound := new(big.Int).Mul(m, r)
	below := want.Cmp(bound) < 0
	want.Mul(want, new(big.Int).ModInverse(r, m))
	want.Mod(want, m)
	if new(big.Int).Mod(got, m).Cmp(want) != 0 || (below && got.Cmp(m) >= 0) {
		t.Fatalf("montMul(x=%x, y=%x, m=%x) = %x, want ≡ %x (below m: %v)", x, y, m, got, want, below)
	}
	loop := make([]big.Word, n)
	montMulLoop(loop, make([]big.Word, n+2), xw, toWords(y, n), mw, k)
	montMul(xw, make([]big.Word, 2*n), xw, toWords(y, n), mw, k)
	if !slices.Equal(xw, z) || !slices.Equal(loop, z) {
		t.Fatalf("montMul(x=%x, y=%x, m=%x) = %x into x and %x by montMulLoop, want %x", x, y, m, xw, loop, z)
	}
}

// TestMontMulMatchesBigInt compares the kernels with x·y·R⁻¹ mod m at moduli of
// 1 to 65 words — every width of a straight-line kernel and the first of
// the word loop above it — from all-ones (2^(W·n) − 1) down to just above
// 2^(W·(n−1)), on the operands that stress the carries: 0, 1, m − 1, R − 1
// and random values below m and below R.
func TestMontMulMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	widths := []int{1, 2, 3, 4, 5, montWordsMax - 1, montWordsMax, montWordsMax + 1, 8, 16, 32, 64, 65}
	slices.Sort(widths)
	for _, n := range slices.Compact(widths) {
		r := new(big.Int).Lsh(One, uint(bits.UintSize*n))
		low := new(big.Int).Lsh(One, uint(bits.UintSize*(n-1))) // 2^(W·(n−1))
		random := new(big.Int).Rand(rng, r)
		random.SetBit(random, bits.UintSize*n-1, 1)
		random.SetBit(random, 0, 1)
		moduli := []*big.Int{
			new(big.Int).Sub(r, One),   // 2^(W·n) − 1
			new(big.Int).Add(low, One), // just above 2^(W·(n−1))
			new(big.Int).Add(low, big.NewInt(3)),
			random,
		}
		for _, m := range moduli {
			m.SetBit(m, 0, 1) // 2^0 + 1 and 2^0 + 3 are even at n = 1
			operands := []*big.Int{
				Zero, One,
				new(big.Int).Sub(m, One),
				new(big.Int).Sub(r, One),
				new(big.Int).Rand(rng, m),
				new(big.Int).Rand(rng, r),
			}
			for _, x := range operands {
				for _, y := range operands {
					checkMontMul(t, x, y, m)
				}
			}
		}
	}
}

// TestMontK checks k·m ≡ −1 mod 2^W for odd low words.
func TestMontK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		m0 := big.Word(rng.Uint64()) | 1
		if got := montK(m0) * m0; got != ^big.Word(0) {
			t.Fatalf("montK(%#x)·m0 = %#x, want −1", m0, got)
		}
	}
}

// montMulLoop is the kernel as one call-free Go loop at any width: the CIOS
// loop of montMulVVW with its addMulVVW calls written out in bits.Mul and
// bits.Add. BenchmarkMontMul measures it against both product kernels.
func montMulLoop(z, scratch, x, y, m []big.Word, k big.Word) {
	n := len(m)
	t := scratch[:n+2]
	clear(t)
	for _, w := range y[:n] {
		var c, lo, hi uint
		for j := range n {
			c, lo = mac(uint(x[j]), uint(w), uint(t[j]), c)
			t[j] = big.Word(lo)
		}
		lo, hi = bits.Add(uint(t[n]), c, 0)
		t[n], t[n+1] = big.Word(lo), big.Word(hi)
		u := uint(t[0] * k)
		c, _ = mac(uint(m[0]), u, uint(t[0]), 0)
		for j := 1; j < n; j++ {
			c, lo = mac(uint(m[j]), u, uint(t[j]), c)
			t[j-1] = big.Word(lo)
		}
		lo, c = bits.Add(uint(t[n]), c, 0)
		t[n-1], t[n] = big.Word(lo), t[n+1]+big.Word(c)
	}
	reduceOnce(z, t[:n], m, t[n])
}

// BenchmarkMontMul times one Montgomery product at widths of 1 to 8, 16
// and 64 words: the kernel NewMont picks (kernel: the straight-line
// kernels up to montWordsMax, the word loop above), the addMulVVW loop
// alone (vvw), and a call-free Go loop (loop), which is what a
// straight-line kernel would do past the bound, less its unrolling
// (results/mont_micro.txt).
func BenchmarkMontMul(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	kernels := []struct {
		name string
		mul  kernel
	}{{"kernel", nil}, {"vvw", montMulVVW}, {"loop", montMulLoop}}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 64} {
		r := new(big.Int).Lsh(One, uint(bits.UintSize*n))
		m := new(big.Int).Rand(rng, r)
		m.SetBit(m, bits.UintSize*n-1, 1)
		m.SetBit(m, 0, 1)
		x, y := toWords(new(big.Int).Rand(rng, m), n), toWords(new(big.Int).Rand(rng, m), n)
		mw, k := toWords(m, n), montK(m.Bits()[0])
		for _, kn := range kernels {
			mul := kn.mul
			if mul == nil {
				if n > montWordsMax {
					continue // the kernel is montMulVVW there
				}
				mul = kernelFor(n)
			}
			b.Run(fmt.Sprintf("words=%d/%s", n, kn.name), func(b *testing.B) {
				z, scratch := slices.Clone(x), make([]big.Word, 2*n+2)
				for i := 0; i < b.N; i++ {
					mul(z, scratch, z, y, mw, k)
				}
			})
		}
	}
}
