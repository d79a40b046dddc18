package mathutil

import (
	"errors"
	"math/big"
	"math/bits"
	"testing"
)

// Differential fuzzing for the fixed-base kernels: on every input the
// optimized path must agree exactly with math/big, which serves as the
// reference implementation. Inputs are capped (the harness feeds arbitrary
// byte strings) so a single iteration stays fast enough for the CI budget.

const fuzzMaxBytes = 520 // 65 64-bit words: one past the 4096-bit n² of a 2048-bit Paillier key

func clampBytes(b []byte) []byte {
	if len(b) > fuzzMaxBytes {
		return b[:fuzzMaxBytes]
	}
	return b
}

// oddOfBits returns an odd modulus of exactly the given bit length with a
// fixed byte pattern, for fuzz seeds at the protocol's widths.
func oddOfBits(nbits int) []byte {
	b := make([]byte, nbits/8)
	for i := range b {
		b[i] = byte(0x5d * (i + 1))
	}
	b[0] |= 0x80
	b[len(b)-1] |= 1
	return b
}

// FuzzFixedBaseExp builds a table from fuzzed (base, modulus) material and
// checks Exp against big.Int.Exp for a fuzzed exponent — covering both the
// table walk (exponent within maxBits) and the oversized-exponent fallback,
// since maxBits comes from the fuzzer too.
func FuzzFixedBaseExp(f *testing.F) {
	f.Add([]byte{3}, []byte{101}, []byte{77}, uint8(16))
	f.Add([]byte{2}, []byte{0xff, 0xff}, []byte{0x12, 0x34, 0x56}, uint8(8))
	f.Add([]byte{0}, []byte{9}, []byte{0}, uint8(1))
	f.Add([]byte{0xfe, 0x12}, []byte{0xab, 0xcd, 0xef}, []byte{0xff, 0xff, 0xff, 0xff, 0xff}, uint8(40))
	// The widths the protocol's tables use: DGK p and q, DGK n, Paillier
	// p² and q², Paillier n².
	for _, nbits := range []int{512, 1024, 2048, 4096} {
		m := oddOfBits(nbits)
		f.Add(m[1:], m, m[:24], uint8(200))
	}
	f.Fuzz(func(t *testing.T, baseB, modB, expB []byte, maxBits uint8) {
		base := new(big.Int).SetBytes(clampBytes(baseB))
		m := new(big.Int).SetBytes(clampBytes(modB))
		m.SetBit(m, 0, 1) // force odd so construction can succeed
		e := new(big.Int).SetBytes(clampBytes(expB))
		fb, err := NewFixedBaseExp(base, m, int(maxBits))
		if err != nil {
			// Constructor rejections (m <= 2, maxBits == 0) are valid
			// outcomes for fuzzed input, not failures.
			return
		}
		got := expOf(fb, e)
		want := new(big.Int).Exp(base, e, m)
		if got.Cmp(want) != 0 {
			t.Fatalf("FixedBaseExp(base=%v, m=%v, maxBits=%d).Exp(%v) = %v, want %v",
				base, m, maxBits, e, got, want)
		}
	})
}

// FuzzMontMul checks montMul against x·y·R⁻¹ mod m computed with big.Int
// for an odd modulus of up to 65 words and operands anywhere below R, and
// the Montgomery context of the same modulus against big.Int.Exp: entering
// x (up to twice the modulus's width, as a DGK ciphertext is to p), raising
// it to e (up to 200 bits: 0, 1, square and multiply up to 16 bits, the
// window beyond), leaving, the is-one test inside the domain, and paying
// back k factors R⁻¹ (k below 2^20) from x.
func FuzzMontMul(f *testing.F) {
	f.Add([]byte{2}, []byte{10}, []byte{101}, []byte{0})
	f.Add([]byte{0}, []byte{0}, []byte{1}, []byte{1})
	f.Add([]byte{0xff, 0xff}, []byte{0xff, 0xff}, []byte{0xff, 0xff}, []byte{0x03, 0xf0})
	f.Add([]byte{100}, []byte{1}, []byte{101}, []byte{100}) // Fermat: x^(m−1) = 1
	// Moduli of 1 to 64 words (a paper-shape DGK p is 96 bits, a deployed
	// one 512; 128 to 256 bits are the widest straight-line kernels),
	// bases twice as wide, exponents of 16 and 200 bits.
	for _, nbits := range []int{64, 96, 128, 192, 256, 512, 2560, 4096} {
		m := oddOfBits(nbits)
		f.Add(append(m[1:], m...), m[1:], m, oddOfBits(200))
		f.Add(m, m[1:], m, []byte{0xff, 0xff})
	}
	f.Fuzz(func(t *testing.T, xB, yB, mB, eB []byte) {
		m := new(big.Int).SetBytes(clampBytes(mB))
		m.SetBit(m, 0, 1)
		n := len(m.Bits())
		rBits := uint(bits.UintSize * n)
		// Operands are reduced mod R, not mod m: montMul must take both.
		x := truncBits(new(big.Int).SetBytes(clampBytes(xB)), rBits)
		y := truncBits(new(big.Int).SetBytes(clampBytes(yB)), rBits)
		checkMontMul(t, x, y, m)

		ctx, err := NewMont(m)
		if err != nil {
			if m.Cmp(Two) > 0 || !errors.Is(err, ErrBadModulus) {
				t.Fatalf("NewMont(%v): %v", m, err)
			}
			return
		}
		base := new(big.Int).SetBytes(clampBytes(xB))
		base = truncBits(base, uint(2*m.BitLen()))
		e := new(big.Int).SetBytes(eB[:min(len(eB), 25)])
		z, scratch := make([]big.Word, n), make([]big.Word, 17*n)
		ctx.Enter(z, base, scratch)
		ctx.Exp(z, z, e, scratch)
		isOne := ctx.IsOne(z)
		ctx.Leave(z, z, scratch)
		got := new(big.Int).SetBits(z)
		want := new(big.Int).Exp(base, e, m)
		if got.Cmp(want) != 0 || isOne != (want.Cmp(One) == 0) {
			t.Fatalf("Mont(m=%v): %v^%v = %v (is one: %v), want %v", m, base, e, got, isOne, want)
		}

		k := int(e.Uint64() % (1 << 20))
		ctx.MulRPow(z, toWords(x, n), k, make([]big.Word, 18*n))
		want.Exp(new(big.Int).Lsh(One, rBits), big.NewInt(int64(k)), m)
		if want.Mul(want, x).Mod(want, m); got.SetBits(z).Cmp(want) != 0 {
			t.Fatalf("Mont(m=%v): %v·R^%d = %v, want %v", m, x, k, got, want)
		}
	})
}

// truncBits returns v mod 2^nbits.
func truncBits(v *big.Int, nbits uint) *big.Int {
	return v.Mod(v, new(big.Int).Lsh(One, nbits))
}
