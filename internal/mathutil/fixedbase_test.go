package mathutil

import (
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"github.com/privconsensus/privconsensus/internal/obs"
)

// refExp is the reference the fixed-base kernel must agree with.
func refExp(base, e, m *big.Int) *big.Int { return new(big.Int).Exp(base, e, m) }

func mustTable(t *testing.T, base, m *big.Int, maxBits int) *FixedBaseExp {
	t.Helper()
	f, err := NewFixedBaseExp(base, m, maxBits)
	if err != nil {
		t.Fatalf("NewFixedBaseExp(%v, %v, %d): %v", base, m, maxBits, err)
	}
	return f
}

func TestFixedBaseExpMatchesBigIntExp(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	moduli := []*big.Int{
		big.NewInt(3), big.NewInt(101), big.NewInt(1<<31 - 1),
		new(big.Int).SetUint64(0xfffffffffffffffb), // odd, near 2^64
	}
	for _, m := range moduli {
		for _, maxBits := range []int{1, 8, 17, 63, 200, 300} {
			base := new(big.Int).Rand(rng, m)
			f := mustTable(t, base, m, maxBits)
			for trial := 0; trial < 25; trial++ {
				bits := rng.Intn(maxBits + 1)
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(bits)))
				got := f.Exp(e)
				want := refExp(base, e, m)
				if got.Cmp(want) != 0 {
					t.Fatalf("m=%v maxBits=%d e=%v: got %v, want %v", m, maxBits, e, got, want)
				}
			}
		}
	}
}

func TestFixedBaseExpZeroExponent(t *testing.T) {
	f := mustTable(t, big.NewInt(7), big.NewInt(101), 64)
	if got := f.Exp(Zero); got.Cmp(One) != 0 {
		t.Fatalf("base^0: got %v, want 1", got)
	}
	if got := f.Exp(nil); got.Cmp(One) != 0 {
		t.Fatalf("base^nil: got %v, want 1", got)
	}
}

func TestFixedBaseExpZeroBase(t *testing.T) {
	// base ≡ 0 mod m: 0^0 = 1, 0^e = 0 for e > 0 (matching big.Int.Exp).
	f := mustTable(t, big.NewInt(101), big.NewInt(101), 16)
	if got := f.Exp(Zero); got.Cmp(One) != 0 {
		t.Fatalf("0^0: got %v, want 1", got)
	}
	if got := f.Exp(big.NewInt(5)); got.Sign() != 0 {
		t.Fatalf("0^5: got %v, want 0", got)
	}
}

// TestFixedBaseExpOversizedFallsBack checks that an exponent wider than the
// table capacity is answered exactly via the big.Int.Exp fallback — never
// truncated — and that the fallback counter registers the miss.
func TestFixedBaseExpOversizedFallsBack(t *testing.T) {
	m := big.NewInt(1<<31 - 1)
	base := big.NewInt(123456789)
	f := mustTable(t, base, m, 32)

	e := new(big.Int).Lsh(One, 200) // far beyond the 32-bit table
	e.Add(e, big.NewInt(12345))

	hitsBefore := obs.Default.CounterValue("privconsensus_fixedbase_hits_total")
	fallbacksBefore := obs.Default.CounterValue("privconsensus_fixedbase_fallbacks_total")

	got := f.Exp(e)
	want := refExp(base, e, m)
	if got.Cmp(want) != 0 {
		t.Fatalf("oversized exponent: got %v, want %v (truncated table walk?)", got, want)
	}
	if d := obs.Default.CounterValue("privconsensus_fixedbase_fallbacks_total") - fallbacksBefore; d != 1 {
		t.Fatalf("fallback counter moved by %d, want 1", d)
	}
	if d := obs.Default.CounterValue("privconsensus_fixedbase_hits_total") - hitsBefore; d != 0 {
		t.Fatalf("hit counter moved by %d on a fallback, want 0", d)
	}

	// Negative exponents also fall back; with gcd(base, m) = 1 the modular
	// inverse path must match big.Int.Exp exactly.
	neg := big.NewInt(-7)
	if got, want := f.Exp(neg), refExp(base, neg, m); got.Cmp(want) != 0 {
		t.Fatalf("negative exponent: got %v, want %v", got, want)
	}

	// In-range exponents keep hitting the table.
	small := big.NewInt(99)
	if got, want := f.Exp(small), refExp(base, small, m); got.Cmp(want) != 0 {
		t.Fatalf("in-range exponent after fallback: got %v, want %v", got, want)
	}
	if d := obs.Default.CounterValue("privconsensus_fixedbase_hits_total") - hitsBefore; d != 1 {
		t.Fatalf("hit counter moved by %d after in-range Exp, want 1", d)
	}
}

func TestFixedBaseExpBoundaryWidth(t *testing.T) {
	// Exponent of exactly maxBits bits is still a table hit; maxBits+1 is not.
	m := big.NewInt(1009)
	f := mustTable(t, big.NewInt(11), m, 10)
	edge := new(big.Int).Sub(new(big.Int).Lsh(One, 10), One) // 2^10 - 1
	if got, want := f.Exp(edge), refExp(big.NewInt(11), edge, m); got.Cmp(want) != 0 {
		t.Fatalf("edge exponent: got %v, want %v", got, want)
	}
	over := new(big.Int).Lsh(One, 10) // 11 bits
	if got, want := f.Exp(over), refExp(big.NewInt(11), over, m); got.Cmp(want) != 0 {
		t.Fatalf("just-over exponent: got %v, want %v", got, want)
	}
}

func TestNewFixedBaseExpRejectsBadInputs(t *testing.T) {
	base := big.NewInt(7)
	cases := []struct {
		name    string
		base    *big.Int
		modulus *big.Int
		maxBits int
		wantErr error
	}{
		{"nil base", nil, big.NewInt(101), 8, ErrNilBase},
		{"nil modulus", base, nil, 8, ErrBadModulus},
		{"modulus 0", base, big.NewInt(0), 8, ErrBadModulus},
		{"modulus 1", base, big.NewInt(1), 8, ErrBadModulus},
		{"modulus 2", base, big.NewInt(2), 8, ErrBadModulus},
		{"negative modulus", base, big.NewInt(-101), 8, ErrBadModulus},
		{"even modulus", base, big.NewInt(100), 8, ErrEvenModulus},
		{"zero maxBits", base, big.NewInt(101), 0, ErrBadMaxBits},
		{"negative maxBits", base, big.NewInt(101), -3, ErrBadMaxBits},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFixedBaseExp(tc.base, tc.modulus, tc.maxBits)
			if f != nil || err == nil {
				t.Fatalf("got (%v, %v), want nil table and error", f, err)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestFixedBaseExpConcurrent exercises one shared table from many goroutines
// so `go test -race` proves the lock-free read path: the table is immutable
// after construction and Exp allocates only private scratch.
func TestFixedBaseExpConcurrent(t *testing.T) {
	m, _ := new(big.Int).SetString("ffffffffffffffffffffffffffffff61", 16) // odd 128-bit
	f := mustTable(t, big.NewInt(3), m, 128)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 128))
				if got, want := f.Exp(e), refExp(big.NewInt(3), e, m); got.Cmp(want) != 0 {
					errs <- "mismatch for e=" + e.String()
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestMulExpMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := big.NewInt(1<<31 - 1)
	a, b := big.NewInt(123), big.NewInt(456789)
	fa := mustTable(t, a, m, 60)
	fb := mustTable(t, b, m, 60)
	for i := 0; i < 50; i++ {
		x := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 60))
		y := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 60))
		got := fa.MulExp(fb, x, y)
		want := refExp(a, x, m)
		want.Mul(want, refExp(b, y, m))
		want.Mod(want, m)
		if got.Cmp(want) != 0 {
			t.Fatalf("MulExp(x=%v, y=%v): got %v, want %v", x, y, got, want)
		}
	}
}

func TestMultiExpMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	moduli := []*big.Int{big.NewInt(1), big.NewInt(3), big.NewInt(1009), big.NewInt(1<<31 - 1)}
	for _, m := range moduli {
		for i := 0; i < 40; i++ {
			a := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 96))
			b := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 96))
			x := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 72))
			y := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 72))
			got := MultiExp(a, x, b, y, m)
			want := refExp(a, x, m)
			want.Mul(want, refExp(b, y, m))
			want.Mod(want, m)
			if got == nil || got.Cmp(want) != 0 {
				t.Fatalf("m=%v a=%v x=%v b=%v y=%v: got %v, want %v", m, a, x, b, y, got, want)
			}
		}
	}
}

func TestMultiExpEdgeCases(t *testing.T) {
	m := big.NewInt(101)
	if got := MultiExp(big.NewInt(2), Zero, big.NewInt(3), Zero, m); got.Cmp(One) != 0 {
		t.Fatalf("a^0·b^0: got %v, want 1", got)
	}
	if got := MultiExp(big.NewInt(2), Zero, big.NewInt(3), Zero, One); got.Sign() != 0 {
		t.Fatalf("mod 1: got %v, want 0", got)
	}
	// Nil inputs and non-positive moduli yield nil, mirroring big.Int.Exp's
	// nil result for impossible requests.
	for _, bad := range []*big.Int{nil, Zero, big.NewInt(-5)} {
		if got := MultiExp(big.NewInt(2), One, big.NewInt(3), One, bad); got != nil {
			t.Fatalf("bad modulus %v: got %v, want nil", bad, got)
		}
	}
	if got := MultiExp(nil, One, big.NewInt(3), One, m); got != nil {
		t.Fatalf("nil base: got %v, want nil", got)
	}
	// Negative exponent with invertible base matches the inverse composition.
	got := MultiExp(big.NewInt(2), big.NewInt(-3), big.NewInt(3), big.NewInt(4), m)
	want := refExp(big.NewInt(2), big.NewInt(-3), m)
	want.Mul(want, refExp(big.NewInt(3), big.NewInt(4), m))
	want.Mod(want, m)
	if got == nil || got.Cmp(want) != 0 {
		t.Fatalf("negative exponent: got %v, want %v", got, want)
	}
	// Negative exponent with a non-invertible base has no answer: nil.
	if got := MultiExp(big.NewInt(0), big.NewInt(-1), big.NewInt(3), One, m); got != nil {
		t.Fatalf("non-invertible negative exponent: got %v, want nil", got)
	}
}

func BenchmarkFixedBaseExp(b *testing.B) {
	m, _ := new(big.Int).SetString("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61", 16)
	f, err := NewFixedBaseExp(big.NewInt(3), m, 256)
	if err != nil {
		b.Fatal(err)
	}
	e := new(big.Int).Sub(new(big.Int).Lsh(One, 256), big.NewInt(12345))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Exp(e)
	}
}

func BenchmarkBigIntExpBaseline(b *testing.B) {
	m, _ := new(big.Int).SetString("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61", 16)
	base := big.NewInt(3)
	e := new(big.Int).Sub(new(big.Int).Lsh(One, 256), big.NewInt(12345))
	out := new(big.Int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Exp(base, e, m)
	}
}

// Table entries must be stored right-sized. big.Int.Mul sizes its result for
// its Karatsuba temporaries (6x the residue at 4096 bits) and Mod keeps that
// buffer, so entries multiplied in place would pin ~3 KB each — six times
// the 11 MB the blinding table of a 2048-bit Paillier key should hold.
func TestFixedBaseEntriesAreRightSized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 4096))
	m.SetBit(m, 0, 1)
	m.SetBit(m, 4095, 1)
	fb := mustTable(t, new(big.Int).Rand(rng, m), m, 21)
	limit := len(m.Bits()) + 8
	for i, row := range fb.table {
		for d, e := range row {
			if c := cap(e.Bits()); c > limit {
				t.Fatalf("entry [%d][%d] holds a %d-word buffer for a %d-word modulus", i, d, c, len(m.Bits()))
			}
		}
	}
}
