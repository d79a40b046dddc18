package dgk

import (
	"math/big"
	"testing"
)

// TestEncryptTablePathByteIdentical proves the fixed-base tables change
// nothing on the wire: the same key and the same seeded rng produce
// byte-for-byte identical ciphertexts with tables warmed and with tables
// absent (the big.Int.Exp path a key without precomp state takes).
func TestEncryptTablePathByteIdentical(t *testing.T) {
	key, err := GenerateKey(testRNG(11), testParams())
	if err != nil {
		t.Fatal(err)
	}
	withTables := key.Public()
	withTables.Precompute()
	// Same public material, but no precomp holder: Encrypt takes the
	// big.Int.Exp path.
	bare := &PublicKey{
		N: withTables.N, G: withTables.G, H: withTables.H,
		U: withTables.U, RBits: withTables.RBits, L: withTables.L,
	}
	for m := int64(0); m < 16; m++ {
		a, err := withTables.Encrypt(testRNG(m), big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		b, err := bare.Encrypt(testRNG(m), big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		if a.C.Cmp(b.C) != 0 {
			t.Fatalf("m=%d: table path %v != direct path %v", m, a.C, b.C)
		}
	}
}
