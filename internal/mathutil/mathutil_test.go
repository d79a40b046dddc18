package mathutil

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// testRNG returns a deterministic io.Reader for reproducible tests.
func testRNG(seed int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed))
}

func TestRandIntRange(t *testing.T) {
	rng := testRNG(1)
	max := big.NewInt(1000)
	for i := 0; i < 200; i++ {
		v, err := RandInt(new(big.Int), rng, max, nil)
		if err != nil {
			t.Fatalf("RandInt: %v", err)
		}
		if v.Sign() < 0 || v.Cmp(max) >= 0 {
			t.Fatalf("RandInt out of range: %v", v)
		}
	}
}

func TestRandIntRejectsNonPositive(t *testing.T) {
	if _, err := RandInt(new(big.Int), testRNG(1), big.NewInt(0), nil); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if _, err := RandInt(new(big.Int), testRNG(1), big.NewInt(-5), nil); err == nil {
		t.Fatal("expected error for negative bound")
	}
}

func TestRandBits(t *testing.T) {
	rng := testRNG(2)
	for bits := 1; bits <= 64; bits *= 2 {
		v, err := RandBits(new(big.Int), rng, bits, nil)
		if err != nil {
			t.Fatalf("RandBits(%d): %v", bits, err)
		}
		if v.BitLen() > bits {
			t.Fatalf("RandBits(%d) produced %d-bit value", bits, v.BitLen())
		}
	}
	if _, err := RandBits(new(big.Int), rng, 0, nil); err == nil {
		t.Fatal("expected error for zero bit count")
	}
}

// countingReader is a seeded byte stream that counts what it hands out.
type countingReader struct {
	rng *mrand.Rand
	n   int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.rng.Read(p)
	r.n += int64(n)
	return n, err
}

// TestDrawsMatchCryptoRandInt holds the reused-buffer draws to
// crypto/rand.Int byte for byte: over 10⁴ draws per bound from two copies
// of one seeded stream they return the same values and leave the streams
// at the same offset — power-of-two bounds (RandBits, one read each, never
// rejected) and DGK's blinding bound u − 1 = 1008 (RandInt, whose
// rejections must be the same ones).
func TestDrawsMatchCryptoRandInt(t *testing.T) {
	const draws = 10000
	check := func(t *testing.T, max *big.Int, draw func(z *big.Int, rng io.Reader, buf []byte) (*big.Int, error)) {
		ref := &countingReader{rng: testRNG(int64(max.BitLen()))}
		got := &countingReader{rng: testRNG(int64(max.BitLen()))}
		z, buf := new(big.Int), make([]byte, (max.BitLen()+7)/8)
		for i := 0; i < draws; i++ {
			want, err := rand.Int(ref, max)
			if err != nil {
				t.Fatal(err)
			}
			v, err := draw(z, got, buf)
			if err != nil {
				t.Fatal(err)
			}
			if v.Cmp(want) != 0 || got.n != ref.n {
				t.Fatalf("draw %d below %v: got %v at offset %d, crypto/rand.Int %v at offset %d", i, max, v, got.n, want, ref.n)
			}
		}
	}
	for _, k := range []int{7, 8, 40, 64, 400, 1025} {
		t.Run(fmt.Sprintf("2^%d", k), func(t *testing.T) {
			check(t, new(big.Int).Lsh(One, uint(k)), func(z *big.Int, rng io.Reader, buf []byte) (*big.Int, error) {
				return RandBits(z, rng, k, buf)
			})
		})
	}
	t.Run("u-1=1008", func(t *testing.T) {
		max := big.NewInt(1008)
		check(t, max, func(z *big.Int, rng io.Reader, buf []byte) (*big.Int, error) {
			return RandInt(z, rng, max, buf)
		})
	})
}

func TestRandPrime(t *testing.T) {
	rng := testRNG(4)
	p, err := RandPrime(rng, 64)
	if err != nil {
		t.Fatalf("RandPrime: %v", err)
	}
	if p.BitLen() != 64 {
		t.Fatalf("expected 64-bit prime, got %d bits", p.BitLen())
	}
	if !p.ProbablyPrime(32) {
		t.Fatalf("RandPrime returned composite %v", p)
	}
}

func TestModInverse(t *testing.T) {
	inv, err := ModInverse(big.NewInt(3), big.NewInt(7))
	if err != nil {
		t.Fatalf("ModInverse: %v", err)
	}
	if inv.Cmp(big.NewInt(5)) != 0 {
		t.Fatalf("3^-1 mod 7 = %v, want 5", inv)
	}
	if _, err := ModInverse(big.NewInt(2), big.NewInt(4)); err == nil {
		t.Fatal("expected ErrNoInverse for gcd > 1")
	}
}

func TestSignedRoundTrip(t *testing.T) {
	n := big.NewInt(1 << 20)
	cases := []int64{0, 1, -1, 12345, -12345, 1<<19 - 1, -(1 << 19)}
	for _, c := range cases {
		v := big.NewInt(c)
		enc := FromSigned(v, n)
		dec := ToSigned(enc, n)
		if dec.Cmp(v) != 0 {
			t.Errorf("signed round trip %d -> %v -> %v", c, enc, dec)
		}
	}
}

func TestSignedRoundTripQuick(t *testing.T) {
	n := new(big.Int).Lsh(One, 40)
	f := func(x int32) bool {
		v := big.NewInt(int64(x))
		return ToSigned(FromSigned(v, n), n).Cmp(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// combineOf is crt.Combine into fresh words, as a big.Int.
func combineOf(crt *CRTParams, xp, xq *big.Int) *big.Int {
	z := make([]big.Word, crt.Words())
	n := max(len(crt.P.Bits()), len(crt.Q.Bits()))
	crt.Combine(z, xp.Bits(), xq.Bits(), make([]big.Word, 4*n))
	return new(big.Int).SetBits(z)
}

func TestCRTCombine(t *testing.T) {
	p := big.NewInt(101)
	q := big.NewInt(103)
	crt, err := NewCRTParams(p, q)
	if err != nil {
		t.Fatalf("NewCRTParams: %v", err)
	}
	for _, want := range []int64{0, 1, 100, 5000, 101*103 - 1} {
		x := big.NewInt(want)
		xp := new(big.Int).Mod(x, p)
		xq := new(big.Int).Mod(x, q)
		got := combineOf(crt, xp, xq)
		if got.Cmp(x) != 0 {
			t.Errorf("Combine(%v mod p, %v mod q) = %v, want %v", xp, xq, got, want)
		}
	}
}

func TestCRTCombineQuick(t *testing.T) {
	p := big.NewInt(65537)
	q := big.NewInt(65539)
	crt, err := NewCRTParams(p, q)
	if err != nil {
		t.Fatalf("NewCRTParams: %v", err)
	}
	n := new(big.Int).Mul(p, q)
	f := func(raw uint32) bool {
		x := new(big.Int).Mod(big.NewInt(int64(raw)), n)
		xp := new(big.Int).Mod(x, p)
		xq := new(big.Int).Mod(x, q)
		return combineOf(crt, xp, xq).Cmp(x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCRTCombineWidths runs Combine over multi-word moduli of equal and of
// different word counts — either one the wider, so the lift goes through
// p's domain or q's — with an even modulus on the narrower side.
func TestCRTCombineWidths(t *testing.T) {
	rng := testRNG(9)
	odd := func(bits int) *big.Int {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(bits)))
		v.SetBit(v, bits-1, 1)
		return v.SetBit(v, 0, 1)
	}
	for _, tc := range []struct{ pBits, qBits int }{{96, 96}, {512, 512}, {64, 65}, {65, 64}, {200, 70}, {70, 200}, {128, 1}} {
		p, q := odd(tc.pBits), big.NewInt(1<<20) // even, and narrower than p
		if tc.qBits > 1 {
			q = odd(tc.qBits)
			for new(big.Int).GCD(nil, nil, p, q).Cmp(One) != 0 {
				q = odd(tc.qBits)
			}
		}
		crt, err := NewCRTParams(p, q)
		if err != nil {
			t.Fatalf("NewCRTParams(%d, %d bits): %v", tc.pBits, tc.qBits, err)
		}
		n := new(big.Int).Mul(p, q)
		for i := 0; i < 50; i++ {
			x := new(big.Int).Rand(rng, n)
			if i == 0 {
				x.Sub(n, One)
			}
			got := combineOf(crt, new(big.Int).Mod(x, p), new(big.Int).Mod(x, q))
			if got.Cmp(x) != 0 {
				t.Fatalf("%d/%d bits: Combine of %v's residues = %v", tc.pBits, tc.qBits, x, got)
			}
		}
	}
}

func TestCRTRejectsNonCoprime(t *testing.T) {
	if _, err := NewCRTParams(big.NewInt(6), big.NewInt(9)); err == nil {
		t.Fatal("expected error for non-coprime moduli")
	}
}
