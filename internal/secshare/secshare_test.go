package secshare

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// kappa is the masking bit length the tests split with.
const kappa = 20

// recombine reconstructs the original values from two share vectors.
func recombine(a, b []*big.Int) ([]*big.Int, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("secshare: share length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]*big.Int, len(a))
	for i := range a {
		if a[i] == nil || b[i] == nil {
			return nil, fmt.Errorf("secshare: nil share at index %d", i)
		}
		out[i] = new(big.Int).Add(a[i], b[i])
	}
	return out, nil
}

func ints(vs ...int64) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = big.NewInt(v)
	}
	return out
}

func TestSplitRecombine(t *testing.T) {
	rng := testRNG(1)
	values := ints(0, 1, 65536, -5, 1<<23)
	a, b, err := Split(rng, values, kappa)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	back, err := recombine(a, b)
	if err != nil {
		t.Fatalf("Recombine: %v", err)
	}
	for i := range values {
		if back[i].Cmp(values[i]) != 0 {
			t.Errorf("element %d: %v != %v", i, back[i], values[i])
		}
	}
}

func TestSplitBounds(t *testing.T) {
	rng := testRNG(2)
	values := ints(100, 200, 300)
	kappa := 16
	bound := big.NewInt(1 << 16)
	_, b, err := Split(rng, values, kappa)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range b {
		if s.Sign() < 0 || s.Cmp(bound) >= 0 {
			t.Errorf("b share %d = %v outside [0, 2^%d)", i, s, kappa)
		}
	}
}

func TestSplitValidation(t *testing.T) {
	rng := testRNG(3)
	if _, _, err := Split(rng, ints(1), 0); err == nil {
		t.Error("expected error for kappa = 0")
	}
	if _, _, err := Split(rng, []*big.Int{nil}, 8); err == nil {
		t.Error("expected error for nil value")
	}
}

func TestRecombineValidation(t *testing.T) {
	if _, err := recombine(ints(1, 2), ints(1)); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := recombine([]*big.Int{nil}, ints(1)); err == nil {
		t.Error("expected nil share error")
	}
}

func TestSplitRecombineQuick(t *testing.T) {
	rng := testRNG(4)
	f := func(raw []int32) bool {
		values := make([]*big.Int, len(raw))
		for i, v := range raw {
			values[i] = big.NewInt(int64(v))
		}
		a, b, err := Split(rng, values, kappa)
		if err != nil {
			return false
		}
		back, err := recombine(a, b)
		if err != nil {
			return false
		}
		for i := range values {
			if back[i].Cmp(values[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The aggregate of all users' threshold shares must satisfy Eq. (6):
// Σ toS1 = a_total - T/2 + z1_total and Σ toS2 = T/2 - b_total - z1_total,
// so (Σ toS1 >= Σ toS2) iff (c_total + 2*z1_total >= T).
func TestThresholdSharesAggregateIdentity(t *testing.T) {
	rng := testRNG(5)
	const users = 4
	perUser := big.NewInt(25) // T/(2|U|) with T=200, |U|=4
	total := new(big.Int)
	s1Sum := ints(0)[0]
	s2Sum := ints(0)[0]
	zTotal := new(big.Int)
	for u := 0; u < users; u++ {
		votes := ints(int64(10 * (u + 1)))
		a, b, err := Split(rng, votes, 12)
		if err != nil {
			t.Fatal(err)
		}
		z := ints(int64(u - 2)) // arbitrary small noise share
		toS1, toS2, err := ThresholdShares(a, b, z, perUser)
		if err != nil {
			t.Fatal(err)
		}
		s1Sum.Add(s1Sum, toS1[0])
		s2Sum.Add(s2Sum, toS2[0])
		total.Add(total, votes[0])
		zTotal.Add(zTotal, z[0])
	}
	// s1Sum - s2Sum should equal total + 2*z - T (T = 200).
	diff := new(big.Int).Sub(s1Sum, s2Sum)
	want := new(big.Int).Add(total, new(big.Int).Lsh(zTotal, 1))
	want.Sub(want, big.NewInt(200))
	if diff.Cmp(want) != 0 {
		t.Fatalf("aggregate identity violated: diff=%v want=%v", diff, want)
	}
}

func TestThresholdSharesValidation(t *testing.T) {
	if _, _, err := ThresholdShares(ints(1), ints(1, 2), ints(1), big.NewInt(1)); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, _, err := ThresholdShares(ints(1), ints(1), ints(1), nil); err == nil {
		t.Error("expected nil offset error")
	}
	if _, _, err := ThresholdShares([]*big.Int{nil}, ints(1), ints(1), big.NewInt(1)); err == nil {
		t.Error("expected nil element error")
	}
}

func TestNoisyShares(t *testing.T) {
	rng := testRNG(6)
	votes := ints(7, 9)
	a, b, err := Split(rng, votes, 10)
	if err != nil {
		t.Fatal(err)
	}
	z := ints(3, -4)
	toS1, toS2, err := NoisyShares(a, b, z)
	if err != nil {
		t.Fatal(err)
	}
	// Recombined noisy votes carry votes + 2z.
	sum, err := recombine(toS1, toS2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range votes {
		want := new(big.Int).Add(votes[i], new(big.Int).Lsh(z[i], 1))
		if sum[i].Cmp(want) != 0 {
			t.Errorf("noisy element %d: %v, want %v", i, sum[i], want)
		}
	}
	if _, _, err := NoisyShares(ints(1), ints(1), ints(1, 2)); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, _, err := NoisyShares(ints(1), []*big.Int{nil}, ints(1)); err == nil {
		t.Error("expected nil element error")
	}
}
