package mathutil

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// toWords returns v as exactly n little-endian words; v must fit.
func toWords(v *big.Int, n int) []big.Word {
	w := make([]big.Word, n)
	copy(w, v.Bits())
	return w
}

// checkMontMul runs montMul on x, y < R = 2^(W·n) modulo the odd n-word m
// and checks the result is congruent to x·y·R⁻¹ mod m. Its n words are
// below R by construction.
func checkMontMul(t *testing.T, x, y, m *big.Int) {
	t.Helper()
	n := len(m.Bits())
	r := new(big.Int).Lsh(One, uint(bits.UintSize*n))
	z := make([]big.Word, n)
	montMul(z, make([]big.Word, 2*n), toWords(x, n), toWords(y, n), toWords(m, n), montK(m.Bits()[0]))
	got := new(big.Int).SetBits(z)
	want := new(big.Int).Mul(x, y)
	want.Mul(want, new(big.Int).ModInverse(r, m))
	want.Mod(want, m)
	if new(big.Int).Mod(got, m).Cmp(want) != 0 {
		t.Fatalf("montMul(x=%x, y=%x, m=%x) = %x, want ≡ %x", x, y, m, got, want)
	}
}

// TestMontMulMatchesBigInt compares montMul with x·y·R⁻¹ mod m at moduli of
// 1 to 65 words, from all-ones (2^(W·n) − 1) down to just above
// 2^(W·(n−1)), on the operands that stress the carries: 0, 1, m − 1, R − 1
// and random values below m and below R.
func TestMontMulMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{1, 2, 8, 16, 32, 64, 65} {
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
