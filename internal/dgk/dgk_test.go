package dgk

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/privconsensus/privconsensus/internal/transport"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The package's homomorphic operations and full decryption, as references:
// the comparison protocol multiplies ciphertext words and zero-tests
// directly, so the product keeps none of them. The tests hold Encrypt and
// the key's structure to them.

// refDecrypt recovers m in [0, u) from c by searching (g^v_p)^m = c^v_p
// mod p.
func refDecrypt(k *PrivateKey, c *Ciphertext) (*big.Int, error) {
	if k.p == nil {
		return nil, ErrNoPrivateKey // zeroized
	}
	if err := k.validateCiphertext(c); err != nil {
		return nil, err
	}
	t := new(big.Int).Exp(c.C, k.vp, k.p)
	base, acc := new(big.Int).Exp(k.G, k.vp, k.p), big.NewInt(1)
	for m := int64(0); m < k.U.Int64(); m++ {
		if acc.Cmp(t) == 0 {
			return big.NewInt(m), nil
		}
		acc.Mod(acc.Mul(acc, base), k.p)
	}
	return nil, errors.New("dgk: c^v_p is not a power of g^v_p")
}

// refAdd returns E(m1 + m2 mod u) = c1·c2 mod n.
func refAdd(pk *PublicKey, c1, c2 *Ciphertext) (*Ciphertext, error) {
	if err := pk.validateCiphertext(c1); err != nil {
		return nil, err
	}
	if err := pk.validateCiphertext(c2); err != nil {
		return nil, err
	}
	out := new(big.Int).Mul(c1.C, c2.C)
	return &Ciphertext{C: out.Mod(out, pk.N)}, nil
}

// refScalarMul returns E(a·m mod u) = c^(a mod u) mod n.
func refScalarMul(pk *PublicKey, c *Ciphertext, a *big.Int) (*Ciphertext, error) {
	if err := pk.validateCiphertext(c); err != nil {
		return nil, err
	}
	return &Ciphertext{C: new(big.Int).Exp(c.C, new(big.Int).Mod(a, pk.U), pk.N)}, nil
}

// refAddPlain returns E(m + k mod u) = c·g^(k mod u) mod n.
func refAddPlain(pk *PublicKey, c *Ciphertext, k *big.Int) (*Ciphertext, error) {
	return refAdd(pk, c, &Ciphertext{C: pk.gPow(new(big.Int).Mod(k, pk.U))})
}

// refNeg returns E(−m mod u).
func refNeg(pk *PublicKey, c *Ciphertext) (*Ciphertext, error) {
	return refScalarMul(pk, c, big.NewInt(-1))
}

// testParams returns small, fast parameters: the paper's 40-bit values
// under a 192-bit modulus.
func testParams() Params {
	return Params{NBits: 192, TBits: 40, U: 1009, L: 40}
}

var (
	sharedKeyOnce sync.Once
	sharedKey     *PrivateKey
)

// sharedTestKey generates one small key reused across tests (DGK keygen is
// the slow part).
func sharedTestKey(t testing.TB) *PrivateKey {
	t.Helper()
	sharedKeyOnce.Do(func() {
		key, err := GenerateKey(testRNG(99), testParams())
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		sharedKey = key
	})
	if sharedKey == nil {
		t.Fatal("shared key generation failed earlier")
	}
	return sharedKey
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"test", testParams(), true},
		{"l too large", Params{NBits: 512, TBits: 160, U: 1009, L: 63}, false},
		{"l zero", Params{NBits: 512, TBits: 160, U: 1009, L: 0}, false},
		{"u too small", Params{NBits: 512, TBits: 160, U: 101, L: 40}, false},
		{"u composite", Params{NBits: 512, TBits: 160, U: 1000, L: 40}, false},
		{"modulus too small", Params{NBits: 64, TBits: 40, U: 1009, L: 40}, false},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// Structural key properties: g must have order u*v_p mod p (so g^{v_p} has
// order exactly u) and h must vanish under the zero test.
func TestKeyStructure(t *testing.T) {
	key := sharedTestKey(t)
	// h encrypts randomness only: h^r must zero-test as E(0)'s blinding.
	hEnc := &Ciphertext{C: new(big.Int).Set(key.H)}
	z, err := key.IsZero(hEnc)
	if err != nil {
		t.Fatal(err)
	}
	if !z {
		t.Error("h alone must decrypt to zero (it carries no message)")
	}
	// g encrypts 1 with zero randomness.
	gEnc := &Ciphertext{C: new(big.Int).Set(key.G)}
	m, err := refDecrypt(key, gEnc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 1 {
		t.Errorf("g decrypts to %v, want 1", m)
	}
	// g^u must be indistinguishable from an encryption of zero.
	gu := new(big.Int).Exp(key.G, key.U, key.N)
	z, err = key.IsZero(&Ciphertext{C: gu})
	if err != nil {
		t.Fatal(err)
	}
	if !z {
		t.Error("g^u must zero-test true (plaintext space wraps at u)")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := sharedTestKey(t)
	rng := testRNG(1)
	for _, m := range []int64{0, 1, 2, 500, 1008} {
		c, err := key.Encrypt(rng, big.NewInt(m))
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := refDecrypt(key, c)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got.Cmp(big.NewInt(m)) != 0 {
			t.Errorf("round trip %d -> %v", m, got)
		}
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	key := sharedTestKey(t)
	rng := testRNG(2)
	if _, err := key.Encrypt(rng, big.NewInt(1009)); err == nil {
		t.Error("expected error for m = u")
	}
	if _, err := key.Encrypt(rng, big.NewInt(-1)); err == nil {
		t.Error("expected error for negative m")
	}
}

func TestIsZero(t *testing.T) {
	key := sharedTestKey(t)
	rng := testRNG(3)
	zero, err := key.Encrypt(rng, big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if z, err := key.IsZero(zero); err != nil || !z {
		t.Errorf("IsZero(E[0]) = %v, %v; want true", z, err)
	}
	one, err := key.Encrypt(rng, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if z, err := key.IsZero(one); err != nil || z {
		t.Errorf("IsZero(E[1]) = %v, %v; want false", z, err)
	}
}

func TestHomomorphicOps(t *testing.T) {
	key := sharedTestKey(t)
	rng := testRNG(4)
	u := key.U.Int64()

	ca, _ := key.Encrypt(rng, big.NewInt(700))
	cb, _ := key.Encrypt(rng, big.NewInt(400))
	sum, err := refAdd(key.Public(), ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := refDecrypt(key, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != (700+400)%u {
		t.Errorf("Add: %v, want %d", got, (700+400)%u)
	}

	scaled, err := refScalarMul(key.Public(), ca, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err = refDecrypt(key, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != (700*5)%u {
		t.Errorf("ScalarMul: %v, want %d", got, (700*5)%u)
	}

	shifted, err := refAddPlain(key.Public(), ca, big.NewInt(-100))
	if err != nil {
		t.Fatal(err)
	}
	got, err = refDecrypt(key, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 600 {
		t.Errorf("AddPlain(-100): %v, want 600", got)
	}

	neg, err := refNeg(key.Public(), ca)
	if err != nil {
		t.Fatal(err)
	}
	got, err = refDecrypt(key, neg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != u-700 {
		t.Errorf("Neg: %v, want %d", got, u-700)
	}
}

func TestHomomorphicAddQuick(t *testing.T) {
	key := sharedTestKey(t)
	rng := testRNG(5)
	u := key.U.Int64()
	f := func(x, y uint16) bool {
		a, b := int64(x)%u, int64(y)%u
		ca, err := key.Encrypt(rng, big.NewInt(a))
		if err != nil {
			return false
		}
		cb, err := key.Encrypt(rng, big.NewInt(b))
		if err != nil {
			return false
		}
		sum, err := refAdd(key.Public(), ca, cb)
		if err != nil {
			return false
		}
		got, err := refDecrypt(key, sum)
		if err != nil {
			return false
		}
		return got.Int64() == (a+b)%u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextValidation(t *testing.T) {
	key := sharedTestKey(t)
	if _, err := refDecrypt(key, nil); err == nil {
		t.Error("expected error for nil ciphertext")
	}
	if _, err := key.IsZero(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Error("expected error for zero ciphertext value")
	}
	if _, err := refDecrypt(key, &Ciphertext{C: new(big.Int).Set(key.N)}); err == nil {
		t.Error("expected error for out-of-range ciphertext")
	}
}

// runCompare executes the comparison protocol over an in-memory transport
// and checks both parties agree. Unsigned L-bit inputs go through the
// signed entry points shifted down by 2^(L-1), so the exchange compares
// exactly a and b.
func runCompare(t *testing.T, key *PrivateKey, a, b *big.Int, signed bool) bool {
	t.Helper()
	if !signed {
		a, b = toSigned(a, key.L), toSigned(b, key.L)
	}
	connA, connB := transport.Pair()
	defer connA.Close()
	defer connB.Close()
	ctx := context.Background()

	type result struct {
		geq bool
		err error
	}
	resA := make(chan result, 1)
	go func() {
		geq, err := key.Public().CompareSignedA(ctx, testRNG(11), connA, a)
		resA <- result{geq, err}
	}()

	geqB, err := key.CompareSignedB(ctx, testRNG(12), connB, b)
	if err != nil {
		t.Fatalf("CompareSignedB: %v", err)
	}
	ra := <-resA
	if ra.err != nil {
		t.Fatalf("CompareSignedA: %v", ra.err)
	}
	if ra.geq != geqB {
		t.Fatalf("parties disagree: A=%v B=%v", ra.geq, geqB)
	}
	return geqB
}

// toSigned maps an unsigned L-bit value into the signed entry points'
// range: they add 2^(L-1) back before the bitwise protocol.
func toSigned(v *big.Int, l int) *big.Int {
	return new(big.Int).Sub(v, new(big.Int).Lsh(big.NewInt(1), uint(l-1)))
}

func TestCompareProtocol(t *testing.T) {
	key := sharedTestKey(t)
	cases := []struct {
		a, b int64
		want bool // a >= b
	}{
		{0, 0, true},
		{1, 0, true},
		{0, 1, false},
		{100, 100, true},
		{12345, 12344, true},
		{12344, 12345, false},
		{1 << 39, 0, true},
		{0, 1 << 39, false},
		{1<<40 - 1, 1<<40 - 2, true},
	}
	for _, c := range cases {
		got := runCompare(t, key, big.NewInt(c.a), big.NewInt(c.b), false)
		if got != c.want {
			t.Errorf("compare(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareSignedProtocol(t *testing.T) {
	key := sharedTestKey(t)
	cases := []struct {
		a, b int64
		want bool
	}{
		{-5, -10, true},
		{-10, -5, false},
		{-1, 0, false},
		{0, -1, true},
		{-(1 << 38), 1 << 38, false},
		{1 << 38, -(1 << 38), true},
		{-7, -7, true},
	}
	for _, c := range cases {
		got := runCompare(t, key, big.NewInt(c.a), big.NewInt(c.b), true)
		if got != c.want {
			t.Errorf("compareSigned(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareProtocolQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("interactive comparison is slow in -short mode")
	}
	key := sharedTestKey(t)
	f := func(x, y uint32) bool {
		a, b := big.NewInt(int64(x)), big.NewInt(int64(y))
		got := runCompare(t, key, a, b, false)
		return got == (x >= y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRejectsOutOfRange(t *testing.T) {
	key := sharedTestKey(t)
	connA, connB := transport.Pair()
	defer connA.Close()
	defer connB.Close()
	ctx := context.Background()
	huge := new(big.Int).Lsh(big.NewInt(1), 41)
	if _, err := key.Public().CompareSignedA(ctx, testRNG(1), connA, huge); err == nil {
		t.Error("expected range error on A side")
	}
	if _, err := key.CompareSignedB(ctx, testRNG(1), connB, huge); err == nil {
		t.Error("expected range error on B side")
	}
	if _, err := key.Public().CompareSignedA(ctx, testRNG(1), connA, new(big.Int).Neg(huge)); err == nil {
		t.Error("expected signed range error")
	}
}

func TestCompareContextCancel(t *testing.T) {
	key := sharedTestKey(t)
	connA, connB := transport.Pair()
	defer connA.Close()
	defer connB.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := key.Public().CompareSignedA(ctx, testRNG(1), connA, big.NewInt(5)); err == nil {
		t.Error("expected context error")
	}
	_ = connB
}

func TestCiphertextClone(t *testing.T) {
	key := sharedTestKey(t)
	c, err := key.Encrypt(testRNG(70), big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	clone := c.Clone()
	clone.C.Add(clone.C, big.NewInt(1))
	if c.C.Cmp(clone.C) == 0 {
		t.Error("clone should be independent")
	}
	var nilC *Ciphertext
	if nilC.Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestGenerateKeyRejectsBadParams(t *testing.T) {
	if _, err := GenerateKey(testRNG(71), Params{NBits: 64, TBits: 40, U: 1009, L: 40}); err == nil {
		t.Error("expected error for undersized modulus")
	}
	if _, err := GenerateKey(testRNG(72), Params{NBits: 512, TBits: 160, U: 15, L: 40}); err == nil {
		t.Error("expected error for tiny composite plaintext space")
	}
}

// TestZeroizeRetiresKey checks that a zeroized DGK key refuses the zero test
// and decryption with ErrNoPrivateKey instead of dereferencing wiped fields,
// while the public half keeps encrypting.
func TestZeroizeRetiresKey(t *testing.T) {
	key, err := GenerateKey(testRNG(91), testParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := key.Encrypt(testRNG(1), big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	p, vp, zt := key.p, key.vp, key.zt

	key.Zeroize()
	key.Zeroize() // idempotent

	if p.Sign() != 0 || vp.Sign() != 0 {
		t.Error("secret factor or subgroup order survived Zeroize")
	}
	// The zero test's Montgomery context is derived from p: its words are
	// overwritten (R mod p reads zero) and the key drops it.
	if key.zt != nil || !zt.IsOne(make([]big.Word, zt.Words())) {
		t.Error("the zero test's Montgomery context survived Zeroize")
	}
	if _, err := key.IsZero(c); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("IsZero on zeroized key: err = %v, want ErrNoPrivateKey", err)
	}
	if _, err := key.Public().Encrypt(testRNG(2), big.NewInt(1)); err != nil {
		t.Errorf("public Encrypt after Zeroize: %v", err)
	}
	var nilKey *PrivateKey
	nilKey.Zeroize() // must not panic
}

// Clone returns an independent copy; only the tests need one.
func (c *Ciphertext) Clone() *Ciphertext {
	if c == nil || c.C == nil {
		return nil
	}
	return &Ciphertext{C: new(big.Int).Set(c.C)}
}
