package mathutil

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// testRNG returns a deterministic io.Reader for reproducible tests.
func testRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func TestRandIntRange(t *testing.T) {
	rng := testRNG(1)
	max := big.NewInt(1000)
	for i := 0; i < 200; i++ {
		v, err := RandInt(rng, max)
		if err != nil {
			t.Fatalf("RandInt: %v", err)
		}
		if v.Sign() < 0 || v.Cmp(max) >= 0 {
			t.Fatalf("RandInt out of range: %v", v)
		}
	}
}

func TestRandIntRejectsNonPositive(t *testing.T) {
	if _, err := RandInt(testRNG(1), big.NewInt(0)); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if _, err := RandInt(testRNG(1), big.NewInt(-5)); err == nil {
		t.Fatal("expected error for negative bound")
	}
}

func TestRandBits(t *testing.T) {
	rng := testRNG(2)
	for bits := 1; bits <= 64; bits *= 2 {
		v, err := RandBits(rng, bits)
		if err != nil {
			t.Fatalf("RandBits(%d): %v", bits, err)
		}
		if v.BitLen() > bits {
			t.Fatalf("RandBits(%d) produced %d-bit value", bits, v.BitLen())
		}
	}
	if _, err := RandBits(rng, 0); err == nil {
		t.Fatal("expected error for zero bit count")
	}
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
		got := crt.Combine(xp, xq)
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
		return crt.Combine(xp, xq).Cmp(x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRTRejectsNonCoprime(t *testing.T) {
	if _, err := NewCRTParams(big.NewInt(6), big.NewInt(9)); err == nil {
		t.Fatal("expected error for non-coprime moduli")
	}
}
