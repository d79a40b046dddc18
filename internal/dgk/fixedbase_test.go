package dgk

import (
	"errors"
	"math/big"
	"testing"
)

// TestEncryptTablePathByteIdentical proves the fixed-base tables change
// nothing on the wire: the same key and the same seeded rng produce
// byte-for-byte identical ciphertexts with tables warmed and by the
// big.Int.Exp reference (refEncrypt). A key assembled by hand, without the
// holder GenerateKey and UnmarshalJSON attach, precomputes nothing and is
// refused.
func TestEncryptTablePathByteIdentical(t *testing.T) {
	key, err := GenerateKey(testRNG(11), testParams())
	if err != nil {
		t.Fatal(err)
	}
	withTables := key.Public()
	withTables.Precompute()
	for m := int64(0); m < 16; m++ {
		a, err := withTables.Encrypt(testRNG(m), big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		b, err := refEncrypt(withTables, testRNG(m), big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		if a.C.Cmp(b.C) != 0 {
			t.Fatalf("m=%d: table path %v != direct path %v", m, a.C, b.C)
		}
	}
	bare := &PublicKey{
		N: withTables.N, G: withTables.G, H: withTables.H,
		U: withTables.U, RBits: withTables.RBits, L: withTables.L,
	}
	bare.Precompute() // builds nothing, and does not panic
	if _, err := bare.Encrypt(testRNG(0), big.NewInt(1)); !errors.Is(err, ErrBadParams) {
		t.Fatalf("key without a holder: Encrypt error %v, want ErrBadParams", err)
	}
}
