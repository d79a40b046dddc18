package paillier

import (
	"errors"
	"io"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/privconsensus/privconsensus/internal/mathutil"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testKey generates a small key for fast tests.
func testKey(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	key, err := GenerateKey(testRNG(42), bits)
	if err != nil {
		t.Fatalf("GenerateKey(%d): %v", bits, err)
	}
	return key
}

func TestGenerateKeyRejectsTinyKeys(t *testing.T) {
	if _, err := GenerateKey(testRNG(1), 8); err == nil {
		t.Fatal("expected error for 8-bit key")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(1)
	for _, m := range []int64{0, 1, 2, 1000, 123456789} {
		msg := big.NewInt(m)
		c, err := key.Encrypt(rng, msg)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := key.Decrypt(c)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got.Cmp(msg) != 0 {
			t.Errorf("round trip %d -> %v", m, got)
		}
	}
}

func TestDecryptMatchesSlowPath(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(2)
	for i := 0; i < 20; i++ {
		m := big.NewInt(int64(i * 9973))
		c, err := key.Encrypt(rng, m)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := key.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := key.DecryptSlow(c)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Cmp(slow) != 0 {
			t.Fatalf("CRT decrypt %v != slow decrypt %v", fast, slow)
		}
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(3)
	if _, err := key.Encrypt(rng, new(big.Int).Set(key.N)); err == nil {
		t.Error("expected error for m = n")
	}
	if _, err := key.Encrypt(rng, big.NewInt(-1)); err == nil {
		t.Error("expected error for negative m")
	}
	if _, err := key.Encrypt(rng, nil); err == nil {
		t.Error("expected error for nil m")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(4)
	a, b := big.NewInt(1234), big.NewInt(8765)
	ca, _ := key.Encrypt(rng, a)
	cb, _ := key.Encrypt(rng, b)
	sum, err := key.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(9999)) != 0 {
		t.Errorf("E[a]+E[b] decrypts to %v, want 9999", got)
	}
}

func TestHomomorphicAddQuick(t *testing.T) {
	key := testKey(t, 72)
	rng := testRNG(5)
	f := func(x, y uint16) bool {
		a, b := big.NewInt(int64(x)), big.NewInt(int64(y))
		ca, err := key.Encrypt(rng, a)
		if err != nil {
			return false
		}
		cb, err := key.Encrypt(rng, b)
		if err != nil {
			return false
		}
		sum, err := key.Add(ca, cb)
		if err != nil {
			return false
		}
		got, err := key.Decrypt(sum)
		if err != nil {
			return false
		}
		return got.Cmp(new(big.Int).Add(a, b)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScalarMulQuick(t *testing.T) {
	key := testKey(t, 72)
	rng := testRNG(6)
	f := func(x uint16, k uint8) bool {
		m := big.NewInt(int64(x))
		c, err := key.Encrypt(rng, m)
		if err != nil {
			return false
		}
		scaled, err := key.ScalarMul(c, big.NewInt(int64(k)))
		if err != nil {
			return false
		}
		got, err := key.Decrypt(scaled)
		if err != nil {
			return false
		}
		want := new(big.Int).Mul(m, big.NewInt(int64(k)))
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAddPlainAndSub(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(7)
	c, _ := key.Encrypt(rng, big.NewInt(500))
	shifted, err := key.AddPlain(c, big.NewInt(-200))
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.DecryptSigned(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(300)) != 0 {
		t.Errorf("AddPlain(-200) on E[500] = %v, want 300", got)
	}

	c2, _ := key.Encrypt(rng, big.NewInt(900))
	diff, err := key.Sub(c2, c)
	if err != nil {
		t.Fatal(err)
	}
	got, err = key.DecryptSigned(diff)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(400)) != 0 {
		t.Errorf("E[900]-E[500] = %v, want 400", got)
	}
}

func TestSignedEncryption(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(8)
	for _, m := range []int64{-1, -1000, -123456, 0, 77} {
		c, err := key.EncryptSigned(rng, big.NewInt(m))
		if err != nil {
			t.Fatalf("EncryptSigned(%d): %v", m, err)
		}
		got, err := key.DecryptSigned(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(m)) != 0 {
			t.Errorf("signed round trip %d -> %v", m, got)
		}
	}
}

func TestNegativeArithmetic(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(9)
	ca, _ := key.EncryptSigned(rng, big.NewInt(-30))
	cb, _ := key.EncryptSigned(rng, big.NewInt(10))
	sum, err := key.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.DecryptSigned(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(-20)) != 0 {
		t.Errorf("E[-30]+E[10] = %v, want -20", got)
	}
	neg, err := key.Neg(ca)
	if err != nil {
		t.Fatal(err)
	}
	got, err = key.DecryptSigned(neg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(30)) != 0 {
		t.Errorf("Neg(E[-30]) = %v, want 30", got)
	}
}

// Rerandomize is the key owner's Rerandomize (see PrivateKey.Encrypt). The
// product rerandomizes only under public keys; the tests hold the own-nonce
// path to the public one.
func (sk *PrivateKey) Rerandomize(rng io.Reader, c *Ciphertext) (*Ciphertext, error) {
	return sk.rerandomize(rng, c, sk.ownNonce, sk.newScratch())
}

func TestRerandomizePreservesPlaintextChangesCiphertext(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(10)
	c, _ := key.Encrypt(rng, big.NewInt(321))
	r, err := key.Rerandomize(rng, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.C.Cmp(c.C) == 0 {
		t.Error("rerandomized ciphertext should differ")
	}
	got, err := key.Decrypt(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(321)) != 0 {
		t.Errorf("rerandomized plaintext = %v, want 321", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(11)
	ms := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	cs, err := key.EncryptVector(rng, ms)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if got, err := key.Decrypt(cs[i]); err != nil || got.Cmp(ms[i]) != 0 {
			t.Errorf("element %d: %v, %v; want %v", i, got, err, ms[i])
		}
	}

	signed := []*big.Int{big.NewInt(-5), big.NewInt(5)}
	cs2, err := key.EncryptSignedVector(rng, signed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range signed {
		if got, err := key.DecryptSigned(cs2[i]); err != nil || got.Cmp(signed[i]) != 0 {
			t.Errorf("signed element %d: %v, %v; want %v", i, got, err, signed[i])
		}
	}
}

func TestCiphertextValidation(t *testing.T) {
	key := testKey(t, 64)
	if _, err := key.Decrypt(nil); err == nil {
		t.Error("expected error decrypting nil")
	}
	if _, err := key.Decrypt(&Ciphertext{}); err == nil {
		t.Error("expected error decrypting empty ciphertext")
	}
	huge := &Ciphertext{C: new(big.Int).Add(key.N2, big.NewInt(1))}
	if _, err := key.Decrypt(huge); err == nil {
		t.Error("expected error decrypting out-of-range ciphertext")
	}
}

func TestCiphertextBytesRoundTrip(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(12)
	c, _ := key.Encrypt(rng, big.NewInt(424242))
	back := &Ciphertext{C: new(big.Int).SetBytes(c.Bytes())}
	got, err := key.Decrypt(back)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(424242)) != 0 {
		t.Errorf("bytes round trip = %v, want 424242", got)
	}
	var nilC *Ciphertext
	if nilC.Bytes() != nil {
		t.Error("nil ciphertext should serialize to nil")
	}
}

func TestCloneIndependence(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(13)
	c, _ := key.Encrypt(rng, big.NewInt(7))
	clone := c.Clone()
	clone.C.Add(clone.C, big.NewInt(1))
	if c.C.Cmp(clone.C) == 0 {
		t.Error("clone should be independent of original")
	}
}

// Property: the full signed-arithmetic algebra holds: for random signed
// a, b and scalar k, Dec(E(a) + E(b)*k) == a + b*k.
func TestSignedAlgebraQuick(t *testing.T) {
	key := testKey(t, 72)
	rng := testRNG(77)
	f := func(a, b int16, k int8) bool {
		ca, err := key.EncryptSigned(rng, big.NewInt(int64(a)))
		if err != nil {
			return false
		}
		cb, err := key.EncryptSigned(rng, big.NewInt(int64(b)))
		if err != nil {
			return false
		}
		scaled, err := key.ScalarMul(cb, big.NewInt(int64(k)))
		if err != nil {
			return false
		}
		sum, err := key.Add(ca, scaled)
		if err != nil {
			return false
		}
		got, err := key.DecryptSigned(sum)
		if err != nil {
			return false
		}
		want := int64(a) + int64(b)*int64(k)
		return got.Int64() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Ciphertexts must be probabilistic: encrypting the same message twice
// yields different ciphertexts (IND-CPA smoke check).
func TestEncryptionIsProbabilistic(t *testing.T) {
	key := testKey(t, 64)
	rng := testRNG(78)
	m := big.NewInt(7)
	c1, err := key.Encrypt(rng, m)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := key.Encrypt(rng, m)
	if err != nil {
		t.Fatal(err)
	}
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("two encryptions of the same message are identical")
	}
}

// TestZeroizeRetiresKey checks that a zeroized key refuses every private
// operation with ErrNoPrivateKey instead of dereferencing wiped fields,
// that the CRT tables are wiped with it, and that the public half — shared
// with peers — keeps working.
func TestZeroizeRetiresKey(t *testing.T) {
	key, err := GenerateKey(testRNG(77), 64)
	if err != nil {
		t.Fatal(err)
	}
	key.Precompute()
	pub := key.Public()
	c, err := key.Encrypt(testRNG(1), big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	own := key.own
	secrets := []*big.Int{key.p, key.q, key.pSquared, key.qSquared, key.pMinus1, key.qMinus1,
		key.hp, key.hq, key.lambda, key.mu, own.crt.P, own.crt.Q, own.crt.QInvP}
	tp, tq := own.p, own.q

	key.Zeroize()
	key.Zeroize() // idempotent

	for i, v := range secrets {
		if v.Sign() != 0 {
			t.Errorf("secret %d survived Zeroize", i)
		}
	}
	for _, tbl := range []*mathutil.FixedBaseExp{tp, tq} {
		if tbl.Modulus().Sign() != 0 {
			t.Error("CRT table modulus survived Zeroize")
		}
	}
	if key.own != nil || own.p != nil || own.q != nil || own.crt != nil {
		t.Error("own-key tables still attached after Zeroize")
	}
	if _, err := key.Decrypt(c); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("Decrypt on zeroized key: err = %v, want ErrNoPrivateKey", err)
	}
	if _, err := key.DecryptSlow(c); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("DecryptSlow on zeroized key: err = %v, want ErrNoPrivateKey", err)
	}
	if _, err := key.DecryptSigned(c); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("DecryptSigned on zeroized key: err = %v, want ErrNoPrivateKey", err)
	}
	if _, err := key.Encrypt(testRNG(2), big.NewInt(5)); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("own-key Encrypt on zeroized key: err = %v, want ErrNoPrivateKey", err)
	}
	if _, err := key.Rerandomize(testRNG(3), c); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("own-key Rerandomize on zeroized key: err = %v, want ErrNoPrivateKey", err)
	}
	if _, err := pub.Encrypt(testRNG(4), big.NewInt(5)); err != nil {
		t.Errorf("public Encrypt after Zeroize: %v", err)
	}
	var nilKey *PrivateKey
	nilKey.Zeroize() // must not panic
}

// The public signed encryption, scalar multiplication (Eq. 2), negation and
// subtraction serve the tests only: the protocol adds, re-randomizes and
// folds.

// EncryptSigned encrypts a possibly negative message by reducing it into
// [0, n); Decrypt-Signed recovers the signed value.
func (pk *PublicKey) EncryptSigned(rng io.Reader, m *big.Int) (*Ciphertext, error) {
	return pk.Encrypt(rng, mathutil.FromSigned(m, pk.N))
}

// ScalarMul returns the ciphertext of a*m (Eq. 2). Negative a is reduced
// into Z_n, yielding the signed-residue semantics of mathutil.ToSigned.
func (pk *PublicKey) ScalarMul(c *Ciphertext, a *big.Int) (*Ciphertext, error) {
	if err := pk.validateCiphertext(c); err != nil {
		return nil, err
	}
	aMod := mathutil.FromSigned(a, pk.N)
	out := new(big.Int).Exp(c.C, aMod, pk.N2)
	return &Ciphertext{C: out}, nil
}

// Neg returns the ciphertext of -m.
func (pk *PublicKey) Neg(c *Ciphertext) (*Ciphertext, error) {
	return pk.ScalarMul(c, big.NewInt(-1))
}

// Sub returns the ciphertext of m1 - m2.
func (pk *PublicKey) Sub(c1, c2 *Ciphertext) (*Ciphertext, error) {
	n2, err := pk.Neg(c2)
	if err != nil {
		return nil, err
	}
	return pk.Add(c1, n2)
}

// Clone returns an independent copy; only the tests need one.
func (c *Ciphertext) Clone() *Ciphertext {
	if c == nil || c.C == nil {
		return nil
	}
	return &Ciphertext{C: new(big.Int).Set(c.C)}
}
