package dgk

import (
	"bytes"
	"io"
	"math/big"
	"testing"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/perm"
)

// The math/big reference of the comparison kernels: party A's round 2 and
// party B's zero test as they were computed before the kernels moved into
// the Montgomery domain, with a division after every multiplication. The
// differential test below holds the kernels to it byte for byte.

// refBlind is blind at par 1: every comparison's terms and permutation in
// order, then every position's blinding exponent in order.
func refBlind(pk *PublicKey, rng io.Reader, vals []*big.Int, encBits [][]*big.Int) ([][]*big.Int, error) {
	n, l := len(vals), pk.L
	terms := make([][]*big.Int, n)
	pis := make([]perm.Permutation, n)
	for i := range vals {
		var err error
		if terms[i], err = refCompareTerms(pk, rng, vals[i], encBits[i]); err != nil {
			return nil, err
		}
		if pis[i], err = perm.New(rng, l); err != nil {
			return nil, err
		}
	}
	out := make([][]*big.Int, n)
	for i := range out {
		out[i] = make([]*big.Int, l)
		for pos := 0; pos < l; pos++ {
			r, err := mathutil.RandInt(new(big.Int), rng, new(big.Int).Sub(pk.U, mathutil.One), nil)
			if err != nil {
				return nil, err
			}
			r.Add(r, mathutil.One)
			out[i][pis[i][pos]] = r.Exp(terms[i][pos], r, pk.N)
		}
	}
	return out, nil
}

// refCompareTerms is compareTerms on big.Int: the L negations from one
// inversion of the running product, then the MSB-first chain.
func refCompareTerms(pk *PublicKey, rng io.Reader, a *big.Int, encBits []*big.Int) ([]*big.Int, error) {
	mul := func(x, y *big.Int) *big.Int {
		z := new(big.Int).Mul(x, y)
		return z.Mod(z, pk.N)
	}
	prefix := make([]*big.Int, len(encBits)) // prefix[i] = b_0···b_i
	acc := big.NewInt(1)
	for i, v := range encBits {
		acc = mul(acc, v)
		prefix[i] = acc
	}
	inv, err := mathutil.ModInverse(acc, pk.N)
	if err != nil {
		return nil, err
	}
	neg := make([]*big.Int, len(encBits))
	for i := len(encBits) - 1; i > 0; i-- {
		neg[i] = mul(inv, prefix[i-1])
		inv = mul(inv, encBits[i])
	}
	neg[0] = inv
	zero, err := pk.Encrypt(rng, mathutil.Zero)
	if err != nil {
		return nil, err
	}
	xorSum := zero.C
	gPlus := [2]*big.Int{pk.G, mul(pk.G, pk.G)}
	terms := make([]*big.Int, pk.L)
	for i := pk.L - 1; i >= 0; i-- {
		ai := a.Bit(i)
		triple := mul(mul(xorSum, xorSum), xorSum)
		terms[i] = mul(mul(neg[i], gPlus[ai]), triple)
		if ai == 0 {
			xorSum = mul(xorSum, encBits[i])
		} else {
			xorSum = mul(xorSum, mul(neg[i], pk.G))
		}
	}
	return terms, nil
}

// refIsZero is IsZero on big.Int.Exp.
func refIsZero(k *PrivateKey, c *big.Int) bool {
	return new(big.Int).Exp(c, k.vp, k.p).Cmp(mathutil.One) == 0
}

// comparePairs returns A's and B's values for the differential test at
// comparison width l: equal values, a < b, a > b, both extremes, and a
// first difference at the lowest bit.
func comparePairs(l int) (as, bs []*big.Int) {
	top := new(big.Int).Sub(new(big.Int).Lsh(mathutil.One, uint(l)), mathutil.One)
	half := new(big.Int).Lsh(mathutil.One, uint(l-1))
	as = []*big.Int{big.NewInt(5), big.NewInt(0), top, half, big.NewInt(12345)}
	bs = []*big.Int{big.NewInt(5), top, big.NewInt(0), new(big.Int).Sub(half, mathutil.One), big.NewInt(12344)}
	return as, bs
}

// TestKernelsMatchBigIntReference runs party A's round 2 and party B's zero
// tests at par 1 from seeded randomness, at the 192-bit test shape and the
// 1024-bit deployable shape: the blinded sequences must equal refBlind's
// byte for byte, every zero-test bit must equal refIsZero's, and the
// outcomes must read a >= b.
func TestKernelsMatchBigIntReference(t *testing.T) {
	for _, key := range ownerKeys() {
		pk := key.Public()
		as, bs := comparePairs(pk.L)
		enc, err := key.encryptBits(testRNG(1), bs, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pk.blind(testRNG(2), as, enc, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBlind(pk, testRNG(2), as, enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if !bytes.Equal(got[i][j].Bytes(), want[i][j].Bytes()) {
					t.Fatalf("%d-bit key, comparison %d, position %d: blinded %v, reference %v",
						pk.N.BitLen(), i, j, got[i][j], want[i][j])
				}
				z, err := key.IsZero(&Ciphertext{C: got[i][j]})
				if err != nil || z != refIsZero(key, got[i][j]) {
					t.Fatalf("%d-bit key, comparison %d, position %d: IsZero = %v (%v), reference %v",
						pk.N.BitLen(), i, j, z, err, !z)
				}
			}
		}
		geq, err := key.zeroTest(got, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range geq {
			if geq[i] != (as[i].Cmp(bs[i]) >= 0) {
				t.Errorf("%d-bit key: %v >= %v read %v", pk.N.BitLen(), as[i], bs[i], geq[i])
			}
		}
	}
}

// TestKernelAllocs bounds the allocations of the zero test and of each of
// the three rounds of one comparison, so that allocating per bit cannot
// come back unnoticed: the math/big kernels made about 24 per zero test at
// the 1024-bit shape and about 35 per bit of round 2, and round 1 about 15
// per bit. Every round now writes its L values into one slab and works in
// one scratch per worker, so its count does not depend on L. The round
// bounds are skipped under -race, where the zero test's is kept.
func TestKernelAllocs(t *testing.T) {
	const (
		maxZeroTest = 1 // the value and its scratch, in one buffer
		// The slab (3) and the arena, the worker scratch (5) and the
		// fan-out: 14 on 64-bit words.
		maxRound1 = 16
		// The same, the permutation, the one encryption of 0, and math/big's
		// one ModInverse, which makes 15 to 21 at these shapes on 64-bit
		// words and up to 27 on 32-bit ones: 49 in all at the 1024-bit
		// shape on 64-bit words, 61 on 32-bit ones.
		maxRound2 = 64
		// The zero-test bits and outcomes, the worker scratch and the
		// fan-out: 8 on 64-bit words.
		maxRound3 = 10
	)
	for _, key := range ownerKeys() {
		pk := key.Public()
		pk.Precompute()
		as, bs := comparePairs(pk.L)
		var enc, blinded [][]*big.Int
		rng := testRNG(3)
		for _, r := range []struct {
			name string
			max  int
			run  func() error
		}{
			{"round 1 (bit encryptions)", maxRound1, func() (err error) {
				enc, err = key.encryptBits(rng, bs[:1], 1)
				return err
			}},
			{"round 2 (blinding)", maxRound2, func() (err error) {
				blinded, err = pk.blind(rng, as[:1], enc, 1)
				return err
			}},
			{"round 3 (zero tests)", maxRound3, func() error {
				_, err := key.zeroTest(blinded, 1)
				return err
			}},
		} {
			if raceEnabled { // math/big's sync.Pool drops scratch at random
				if err := r.run(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if n := testing.AllocsPerRun(20, func() {
				if err := r.run(); err != nil {
					t.Fatal(err)
				}
			}); n > float64(r.max) {
				t.Errorf("%d-bit key: one comparison's %s makes %v allocations, want at most %d", pk.N.BitLen(), r.name, n, r.max)
			}
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := key.IsZero(&Ciphertext{C: enc[0][0]}); err != nil {
				t.Fatal(err)
			}
		}); n > maxZeroTest {
			t.Errorf("%d-bit key: IsZero makes %v allocations, want at most %d", pk.N.BitLen(), n, maxZeroTest)
		}
	}
}
