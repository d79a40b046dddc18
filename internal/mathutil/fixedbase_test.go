package mathutil

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/privconsensus/privconsensus/internal/obs"
)

// refExp is the reference the fixed-base kernel must agree with.
func refExp(base, e, m *big.Int) *big.Int { return new(big.Int).Exp(base, e, m) }

// expOf is f.Exp into fresh words, as a big.Int.
func expOf(f *FixedBaseExp, e *big.Int) *big.Int {
	z := make([]big.Word, f.mont.Words())
	f.Exp(z, e, make([]big.Word, 3*len(z)))
	return new(big.Int).SetBits(z)
}

// mulExpOf is f.MulExp into fresh words, as a big.Int.
func mulExpOf(f, g *FixedBaseExp, x, y *big.Int) *big.Int {
	z := make([]big.Word, f.mont.Words())
	f.MulExp(g, z, x, y, make([]big.Word, 3*len(z)))
	return new(big.Int).SetBits(z)
}

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
				got := expOf(f, e)
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
	if got := expOf(f, Zero); got.Cmp(One) != 0 {
		t.Fatalf("base^0: got %v, want 1", got)
	}
	if got := expOf(f, nil); got.Cmp(One) != 0 {
		t.Fatalf("base^nil: got %v, want 1", got)
	}
}

func TestFixedBaseExpZeroBase(t *testing.T) {
	// base ≡ 0 mod m: 0^0 = 1, 0^e = 0 for e > 0 (matching big.Int.Exp).
	f := mustTable(t, big.NewInt(101), big.NewInt(101), 16)
	if got := expOf(f, Zero); got.Cmp(One) != 0 {
		t.Fatalf("0^0: got %v, want 1", got)
	}
	if got := expOf(f, big.NewInt(5)); got.Sign() != 0 {
		t.Fatalf("0^5: got %v, want 0", got)
	}
	// 3² ≡ 0 mod 9, but the walk's accumulator holds a nonzero multiple of
	// 9, so leaving the Montgomery domain lands on 9 itself and must reduce.
	f = mustTable(t, big.NewInt(3), big.NewInt(9), 16)
	if got := expOf(f, big.NewInt(2)); got.Sign() != 0 {
		t.Fatalf("3^2 mod 9: got %v, want 0", got)
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

	got := expOf(f, e)
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
	if got, want := expOf(f, neg), refExp(base, neg, m); got.Cmp(want) != 0 {
		t.Fatalf("negative exponent: got %v, want %v", got, want)
	}

	// In-range exponents keep hitting the table.
	small := big.NewInt(99)
	if got, want := expOf(f, small), refExp(base, small, m); got.Cmp(want) != 0 {
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
	if got, want := expOf(f, edge), refExp(big.NewInt(11), edge, m); got.Cmp(want) != 0 {
		t.Fatalf("edge exponent: got %v, want %v", got, want)
	}
	over := new(big.Int).Lsh(One, 10) // 11 bits
	if got, want := expOf(f, over), refExp(big.NewInt(11), over, m); got.Cmp(want) != 0 {
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
				if got, want := expOf(f, e), refExp(big.NewInt(3), e, m); got.Cmp(want) != 0 {
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

// TestMulExpMatchesComposition covers the shared Montgomery walk (one
// modulus, exponents in range) and the composition fallback (different
// moduli, or an exponent past a table).
func TestMulExpMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := big.NewInt(1<<31 - 1)
	other := big.NewInt(1000003)
	a, b := big.NewInt(123), big.NewInt(456789)
	fa := mustTable(t, a, m, 60)
	for _, tc := range []struct {
		name    string
		mb      *big.Int // g's modulus; the result is taken mod m
		yBits   uint
		fbWidth int
	}{
		{"shared walk", m, 60, 60},
		{"different moduli", other, 60, 60},
		{"y past the table", m, 60, 40},
	} {
		fb := mustTable(t, b, tc.mb, tc.fbWidth)
		for i := 0; i < 50; i++ {
			x := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 60))
			y := new(big.Int).Rand(rng, new(big.Int).Lsh(One, tc.yBits))
			got := mulExpOf(fa, fb, x, y)
			want := refExp(a, x, m)
			want.Mul(want, refExp(b, y, tc.mb))
			want.Mod(want, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("%s: MulExp(x=%v, y=%v): got %v, want %v", tc.name, x, y, got, want)
			}
		}
	}
	if got := mulExpOf(fa, fa, nil, Zero); got.Cmp(One) != 0 {
		t.Fatalf("a^0·a^0: got %v, want 1", got)
	}
}

// TestZeroizedTableRefuses: a zeroized table would answer 1 for every
// in-range exponent (0 through the fallback) — a blinding factor anyone can
// strip — so every exponentiation on it panics with errZeroized, on the
// table path and the fallback alike, and no arena or modulus word survives.
func TestZeroizedTableRefuses(t *testing.T) {
	m, _ := new(big.Int).SetString("ffffffffffffffffffffffffffffff61", 16)
	f := mustTable(t, big.NewInt(3), m, 64)
	g := mustTable(t, big.NewInt(5), m, 64)
	arena, mont := f.table, *f.mont
	f.Zeroize()
	f.Zeroize() // idempotent
	for i, w := range arena {
		if w != 0 {
			t.Fatalf("arena word %d of %d survived Zeroize", i, len(arena))
		}
	}
	for i, w := range slices.Concat(mont.m, mont.rr, mont.one) {
		if w != 0 {
			t.Fatalf("Montgomery context word %d (modulus, R², R) survived Zeroize", i)
		}
	}
	if f.Modulus().Sign() != 0 {
		t.Fatal("modulus survived Zeroize")
	}
	for _, tc := range []struct {
		name string
		call func() *big.Int
	}{
		{"table path", func() *big.Int { return expOf(f, big.NewInt(99)) }},
		{"zero exponent", func() *big.Int { return expOf(f, nil) }},
		{"negative fallback", func() *big.Int { return expOf(f, big.NewInt(-1)) }},
		{"oversized fallback", func() *big.Int { return expOf(f, new(big.Int).Lsh(One, 65)) }},
		{"MulExp", func() *big.Int { return mulExpOf(g, f, One, One) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != errZeroized {
					t.Fatalf("recovered %v, want panic %v", r, errZeroized)
				}
			}()
			t.Fatalf("returned %v", tc.call())
		})
	}
}

// BenchmarkFixedBaseExp measures one table walk at each width the
// protocol's tables use (modulus / exponent bits: DGK p and q 512 / 160,
// DGK n 1024 / 400, Paillier p² and q² 2048 / 1024, Paillier n² 4096 /
// 1024), next to one big.Int Mul+Mod at that width — a step of the walk
// before the entries went to Montgomery form — and one montMul, a step of
// the walk now (results/fixedbase_micro.txt).
func BenchmarkFixedBaseExp(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	for _, w := range []struct{ mod, exp int }{{512, 160}, {1024, 400}, {2048, 1024}, {4096, 1024}} {
		m := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(w.mod)))
		m.SetBit(m, 0, 1)
		m.SetBit(m, w.mod-1, 1)
		x, y := new(big.Int).Rand(rng, m), new(big.Int).Rand(rng, m)
		f, err := NewFixedBaseExp(x, m, w.exp)
		if err != nil {
			b.Fatal(err)
		}
		e := new(big.Int).Rand(rng, new(big.Int).Lsh(One, uint(w.exp)))
		b.Run(fmt.Sprintf("%d/exp", w.mod), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				expOf(f, e)
			}
		})
		b.Run(fmt.Sprintf("%d/montmul", w.mod), func(b *testing.B) {
			n := len(m.Bits())
			z, t := toWords(x, n), make([]big.Word, 2*n)
			yw := toWords(y, n)
			for i := 0; i < b.N; i++ {
				f.mont.Mul(z, z, yw, t)
			}
		})
		b.Run(fmt.Sprintf("%d/mulmod", w.mod), func(b *testing.B) {
			var acc, prod big.Int
			acc.Set(x)
			for i := 0; i < b.N; i++ {
				prod.Mul(&acc, y)
				acc.Mod(&prod, m)
			}
		})
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

// TestFixedBaseEntriesAreRightSized pins the table to one arena of exactly
// digits·(2^w − 1) entries of n words, with no spare capacity and no
// per-entry header: a 21-bit table over a 4096-bit modulus has window 4, so
// 6 rows of 15 entries of 64 words (32 of them on 32-bit words).
func TestFixedBaseEntriesAreRightSized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(One, 4096))
	m.SetBit(m, 0, 1)
	m.SetBit(m, 4095, 1)
	fb := mustTable(t, new(big.Int).Rand(rng, m), m, 21)
	want := 6 * 15 * 4096 / bits.UintSize
	if len(fb.table) != want || cap(fb.table) != want {
		t.Fatalf("arena holds %d words (cap %d), want exactly %d", len(fb.table), cap(fb.table), want)
	}
}
