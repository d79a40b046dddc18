package perm

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func ints(vs ...int64) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = big.NewInt(v)
	}
	return out
}

func equalSeq(a, b []*big.Int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			return false
		}
	}
	return true
}

// valid reports whether p is a bijection on {0, ..., len(p)-1}.
func valid(p Permutation) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestNewValid(t *testing.T) {
	rng := testRNG(1)
	for k := 1; k <= 50; k++ {
		p, err := New(rng, k)
		if err != nil {
			t.Fatalf("New(%d): %v", k, err)
		}
		if !valid(p) {
			t.Fatalf("New(%d) produced invalid permutation %v", k, p)
		}
	}
	if _, err := New(rng, 0); err == nil {
		t.Fatal("expected error for size 0")
	}
}

func TestNewUniformish(t *testing.T) {
	// With k=3 over many samples every arrangement should appear.
	rng := testRNG(7)
	seen := map[string]int{}
	for i := 0; i < 600; i++ {
		p, err := New(rng, 3)
		if err != nil {
			t.Fatal(err)
		}
		key := string([]byte{byte(p[0]), byte(p[1]), byte(p[2])})
		seen[key]++
	}
	if len(seen) != 6 {
		t.Fatalf("expected all 6 permutations of 3 elements, saw %d", len(seen))
	}
}

func TestInverse(t *testing.T) {
	rng := testRNG(2)
	p, err := New(rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	inv := p.Inverse()
	for i, v := range p {
		if inv[v] != i {
			t.Fatalf("p^-1(p(%d)) = %d: p %v, inverse %v", i, inv[v], p, inv)
		}
	}
}

func TestApplyInverseRoundTrip(t *testing.T) {
	rng := testRNG(3)
	p, err := New(rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	seq := ints(10, 20, 30, 40, 50, 60, 70, 80)
	ap, err := p.Apply(seq)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.ApplyInverse(ap)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSeq(back, seq) {
		t.Fatalf("ApplyInverse(Apply(seq)) = %v, want %v", back, seq)
	}
}

// TestComposeMatchesSequentialApply holds Apply to the composition law the
// protocol tests rely on when they merge the two servers' permutations:
// applying p ∘ q, (p ∘ q)[i] = p[q[i]], equals applying q and then p.
func TestComposeMatchesSequentialApply(t *testing.T) {
	rng := testRNG(4)
	p1, _ := New(rng, 10)
	p2, _ := New(rng, 10)
	seq := ints(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

	inner, err := p2.Apply(seq)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := p1.Apply(inner)
	if err != nil {
		t.Fatal(err)
	}
	composed := make(Permutation, len(p2))
	for i := range p2 {
		composed[i] = p1[p2[i]]
	}
	direct, err := composed.Apply(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSeq(sequential, direct) {
		t.Fatalf("compose mismatch: sequential %v direct %v", sequential, direct)
	}
}

func TestApplySemantics(t *testing.T) {
	p := Permutation{2, 0, 1} // element 0 -> pos 2, 1 -> pos 0, 2 -> pos 1
	seq := ints(100, 200, 300)
	out, err := p.Apply(seq)
	if err != nil {
		t.Fatal(err)
	}
	want := ints(200, 300, 100)
	if !equalSeq(out, want) {
		t.Fatalf("Apply = %v, want %v", out, want)
	}
}

func TestApplyLengthMismatch(t *testing.T) {
	p := Permutation{0, 1, 2}
	if _, err := p.Apply(ints(1, 2)); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestOneHotArgOne(t *testing.T) {
	v, err := OneHot(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ArgOne(v)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("ArgOne = %d, want 3", idx)
	}
	if _, err := OneHot(5, 5); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := ArgOne(ints(0, 0)); err == nil {
		t.Fatal("expected error for no one")
	}
	if _, err := ArgOne(ints(1, 1)); err == nil {
		t.Fatal("expected error for multiple ones")
	}
	if _, err := ArgOne(ints(0, 2)); err == nil {
		t.Fatal("expected error for non-binary element")
	}
}

// Property: restoring a permuted one-hot vector recovers the original index.
func TestPermutedOneHotQuick(t *testing.T) {
	rng := testRNG(9)
	f := func(rawIdx uint8) bool {
		const k = 16
		i := int(rawIdx) % k
		p, err := New(rng, k)
		if err != nil {
			return false
		}
		v, err := OneHot(k, i)
		if err != nil {
			return false
		}
		pv, err := p.Apply(v)
		if err != nil {
			return false
		}
		// The one should now be at position p[i].
		at, err := ArgOne(pv)
		if err != nil || at != p[i] {
			return false
		}
		back, err := p.ApplyInverse(pv)
		if err != nil {
			return false
		}
		got, err := ArgOne(back)
		return err == nil && got == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidDetectsCorruption(t *testing.T) {
	if valid(Permutation{0, 0, 1}) {
		t.Error("duplicate entries should be invalid")
	}
	if valid(Permutation{0, 3, 1}) {
		t.Error("out-of-range entries should be invalid")
	}
	if !valid(Permutation{0, 1, 2, 3}) {
		t.Error("identity should be valid")
	}
}
