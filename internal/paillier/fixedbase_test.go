package paillier

import (
	"bytes"
	"io"
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/obs"
)

// TestTableBlindingRoundTrip exercises the fixed-base blinding path
// explicitly (tables warmed up front) across a spread of messages,
// including the signed extremes.
func TestTableBlindingRoundTrip(t *testing.T) {
	key := testKey(t, 64)
	pk := key.Public()
	pk.Precompute()
	rng := testRNG(31)
	halfN := new(big.Int).Rsh(pk.N, 1)
	msgs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(123456),
		new(big.Int).Sub(halfN, big.NewInt(1)),
	}
	for _, m := range msgs {
		c, err := pk.Encrypt(rng, m)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", m, err)
		}
		got, err := key.Decrypt(c)
		if err != nil {
			t.Fatalf("Decrypt(%v): %v", m, err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("round trip: got %v, want %v", got, m)
		}
	}
}

// TestBlindingFallbackWithoutTables pins that there is one blinding
// distribution computed three ways: a key without precomp state (a zero-value
// PublicKey populated field by field, big.Int.Exp), a Public() copy (the
// fixed-base table) and the key owner (the CRT tables) produce byte-equal
// ciphertexts from identically seeded streams and leave the streams at the
// same position.
func TestBlindingFallbackWithoutTables(t *testing.T) {
	for i, key := range ownKeys() {
		if testing.Short() && ownKeyBits[i] > 512 {
			continue
		}
		bare := &PublicKey{N: key.N, N2: key.N2, G: key.G} // no pre holder
		encrypters := []struct {
			name string
			enc  func(io.Reader, *big.Int) (*Ciphertext, error)
			rr   func(io.Reader, *Ciphertext) (*Ciphertext, error)
			rng  *rand.Rand
		}{
			{"bare", bare.Encrypt, bare.Rerandomize, testRNG(32)},
			{"public", key.Public().Encrypt, key.Public().Rerandomize, testRNG(32)},
			{"own", key.Encrypt, key.Rerandomize, testRNG(32)},
		}
		m := big.NewInt(17)
		var want []byte
		for _, e := range encrypters {
			c, err := e.enc(e.rng, m)
			if err != nil {
				t.Fatalf("%d-bit %s Encrypt: %v", ownKeyBits[i], e.name, err)
			}
			if got, err := key.Decrypt(c); err != nil || got.Cmp(m) != 0 {
				t.Fatalf("%d-bit %s round trip: got (%v, %v), want %v", ownKeyBits[i], e.name, got, err, m)
			}
			if c, err = e.rr(e.rng, c); err != nil {
				t.Fatalf("%d-bit %s Rerandomize: %v", ownKeyBits[i], e.name, err)
			}
			if want == nil {
				want = c.Bytes()
			} else if !bytes.Equal(c.Bytes(), want) {
				t.Fatalf("%d-bit: %s ciphertext differs from %s", ownKeyBits[i], e.name, encrypters[0].name)
			}
		}
		pos := encrypters[0].rng.Int63()
		for _, e := range encrypters[1:] {
			if got := e.rng.Int63(); got != pos {
				t.Fatalf("%d-bit: %s stream ended at a different position than %s", ownKeyBits[i], e.name, encrypters[0].name)
			}
		}
	}
}

// TestBlindWidthRule pins the one width rule: the public table covers exactly
// ⌈|n|/2⌉ bits and each own-key table covers every a mod (p−1). A re-widened
// draw would still be correct — Exp falls back to big.Int.Exp — so the width
// is asserted here and the fallback counter in TestBlindingNeverFallsBack.
func TestBlindWidthRule(t *testing.T) {
	for i, key := range ownKeys() {
		bits := ownKeyBits[i]
		if got, want := key.blindTable().MaxBits(), (bits+1)/2; got != want {
			t.Fatalf("%d-bit: public table covers %d bits, want %d", bits, got, want)
		}
		own := key.ownTables()
		if own.p.MaxBits() < key.pMinus1.BitLen() || own.q.MaxBits() < key.qMinus1.BitLen() {
			t.Fatalf("%d-bit: own tables cover %d/%d bits, reduced exponents reach %d/%d",
				bits, own.p.MaxBits(), own.q.MaxBits(), key.pMinus1.BitLen(), key.qMinus1.BitLen())
		}
	}
}

// TestBlindingNeverFallsBack runs 1,000 public and 1,000 own-key encryptions
// per size and requires every blinding exponentiation to be a table walk: a
// draw wider than its table would be several times slower and only
// privconsensus_fixedbase_fallbacks_total would tell.
func TestBlindingNeverFallsBack(t *testing.T) {
	const fallbacks, hits = "privconsensus_fixedbase_fallbacks_total", "privconsensus_fixedbase_hits_total"
	for i, key := range ownKeys() {
		if testing.Short() && ownKeyBits[i] > 512 {
			continue
		}
		key.Precompute()
		pub, rng, m := key.Public(), testRNG(34), big.NewInt(5)
		fb, h := obs.Default.CounterValue(fallbacks), obs.Default.CounterValue(hits)
		for j := 0; j < 1000; j++ {
			if _, err := pub.Encrypt(rng, m); err != nil {
				t.Fatal(err)
			}
			if _, err := key.Encrypt(rng, m); err != nil {
				t.Fatal(err)
			}
		}
		if d := obs.Default.CounterValue(fallbacks) - fb; d != 0 {
			t.Fatalf("%d-bit: %d of 2000 encryptions fell back to big.Int.Exp", ownKeyBits[i], d)
		}
		// One walk per public encryption, two (mod p², mod q²) per own-key one.
		if d := obs.Default.CounterValue(hits) - h; d != 3000 {
			t.Fatalf("%d-bit: %d table walks for 2000 encryptions, want 3000", ownKeyBits[i], d)
		}
	}
}

// constReader is an rng whose every byte is the same, forcing RandBits to
// its extremes: 0x00 draws a = 0, 0xff draws a = 2^bits − 1.
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// TestBlindingExponentExtremes forces the blinding exponent to both ends of
// its range and checks the ciphertexts still round-trip, agree between the
// public and own-key paths, and compose with ordinary ones under Add and
// Rerandomize.
func TestBlindingExponentExtremes(t *testing.T) {
	for i, key := range ownKeys() {
		if testing.Short() && ownKeyBits[i] > 512 {
			continue
		}
		pub := key.Public()
		top := new(big.Int).Lsh(big.NewInt(1), uint(blindBits(key.N)))
		top.Sub(top, big.NewInt(1))
		for _, tc := range []struct {
			rng  constReader
			want *big.Int
		}{{0x00, big.NewInt(0)}, {0xff, top}} {
			if a, err := mathutil.RandBits(new(big.Int), tc.rng, blindBits(key.N), nil); err != nil || a.Cmp(tc.want) != 0 {
				t.Fatalf("%d-bit: reader %#x drew a = %v (%v), want %v", ownKeyBits[i], byte(tc.rng), a, err, tc.want)
			}
			m := big.NewInt(1234)
			c, err := pub.Encrypt(tc.rng, m)
			if err != nil {
				t.Fatal(err)
			}
			own, err := key.Encrypt(tc.rng, m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.Bytes(), own.Bytes()) {
				t.Fatalf("%d-bit a=%#x…: own-key and public ciphertexts differ", ownKeyBits[i], byte(tc.rng))
			}
			if got, err := key.Decrypt(c); err != nil || got.Cmp(m) != 0 {
				t.Fatalf("%d-bit a=%#x… round trip: got (%v, %v), want %v", ownKeyBits[i], byte(tc.rng), got, err, m)
			}
			other, err := pub.Encrypt(testRNG(35), big.NewInt(4321))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := pub.Add(c, other)
			if err != nil {
				t.Fatal(err)
			}
			if sum, err = pub.Rerandomize(tc.rng, sum); err != nil {
				t.Fatal(err)
			}
			if got, err := key.Decrypt(sum); err != nil || got.Int64() != 5555 {
				t.Fatalf("%d-bit a=%#x… Add+Rerandomize: got (%v, %v), want 5555", ownKeyBits[i], byte(tc.rng), got, err)
			}
		}
	}
}

// TestRerandomizeTablePath checks Rerandomize (which now draws its factor
// through the blinding table) still preserves the plaintext and changes the
// ciphertext bytes.
func TestRerandomizeTablePath(t *testing.T) {
	key := testKey(t, 64)
	pk := key.Public()
	pk.Precompute()
	rng := testRNG(33)
	c, err := pk.Encrypt(rng, big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	r, err := pk.Rerandomize(rng, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.C.Cmp(c.C) == 0 {
		t.Fatal("Rerandomize left the ciphertext unchanged")
	}
	if got, err := key.Decrypt(r); err != nil || got.Int64() != 9 {
		t.Fatalf("rerandomized decrypt: got (%v, %v), want 9", got, err)
	}
}

// ownKeyBits are the modulus sizes the own-key differential checks cover:
// the paper's toy keys, a mid size, and the deployable size.
var ownKeyBits = []int{64, 512, 2048}

// ownKeys generates one key per ownKeyBits entry, once per process.
var ownKeys = sync.OnceValue(func() []*PrivateKey {
	keys := make([]*PrivateKey, len(ownKeyBits))
	for i, bits := range ownKeyBits {
		key, err := GenerateKey(testRNG(int64(50+i)), bits)
		if err != nil {
			panic(err)
		}
		keys[i] = key
	}
	return keys
})

// checkOwnKeyMatchesPublic encrypts m under the key owner's CRT path and
// under a Public() copy from identically seeded rng streams: ciphertexts
// must agree byte for byte and both streams must end at the same position.
func checkOwnKeyMatchesPublic(t *testing.T, key *PrivateKey, seed int64, m *big.Int) {
	t.Helper()
	rngOwn, rngPub := testRNG(seed), testRNG(seed)
	own, errOwn := key.Encrypt(rngOwn, m)
	pub, errPub := key.Public().Encrypt(rngPub, m)
	if (errOwn == nil) != (errPub == nil) {
		t.Fatalf("Encrypt(%v): own err %v, public err %v", m, errOwn, errPub)
	}
	if errOwn != nil {
		return
	}
	if !bytes.Equal(own.Bytes(), pub.Bytes()) {
		t.Fatalf("%d-bit Encrypt(%v) seed %d: own-key and public ciphertexts differ", key.N.BitLen(), m, seed)
	}
	own, errOwn = key.Rerandomize(rngOwn, own)
	pub, errPub = key.Public().Rerandomize(rngPub, pub)
	if errOwn != nil || errPub != nil {
		t.Fatalf("Rerandomize: own err %v, public err %v", errOwn, errPub)
	}
	if !bytes.Equal(own.Bytes(), pub.Bytes()) {
		t.Fatalf("%d-bit Rerandomize seed %d: own-key and public ciphertexts differ", key.N.BitLen(), seed)
	}
	if a, b := rngOwn.Int63(), rngPub.Int63(); a != b {
		t.Fatalf("rng streams diverged after identical operations: %d vs %d", a, b)
	}
}

// TestOwnKeyEncryptMatchesPublic is the differential test of the key
// owner's CRT blinding against the public fixed-base path.
func TestOwnKeyEncryptMatchesPublic(t *testing.T) {
	for i, key := range ownKeys() {
		if testing.Short() && ownKeyBits[i] > 512 {
			continue
		}
		top := new(big.Int).Sub(key.N, big.NewInt(1))
		for seed, m := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(123456789), top} {
			checkOwnKeyMatchesPublic(t, key, int64(seed+1), m)
		}
		rng := testRNG(7)
		neg := big.NewInt(-41)
		own, err := key.EncryptSigned(rng, neg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := key.DecryptSigned(own); err != nil || got.Cmp(neg) != 0 {
			t.Fatalf("own-key EncryptSigned round trip: got (%v, %v), want %v", got, err, neg)
		}
	}
}

// FuzzOwnKeyEncrypt fuzzes the same differential over key size, rng seed
// and message (out-of-range messages must be rejected by both paths).
func FuzzOwnKeyEncrypt(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0})
	f.Add(uint8(1), int64(2), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(2), int64(3), []byte{0x12, 0x34})
	f.Fuzz(func(t *testing.T, sel uint8, seed int64, msg []byte) {
		keys := ownKeys()
		checkOwnKeyMatchesPublic(t, keys[int(sel)%len(keys)], seed, new(big.Int).SetBytes(msg))
	})
}

// reachablePointers collects every pointer reachable from v through
// exported and unexported fields alike.
func reachablePointers(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		reachablePointers(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reachablePointers(v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			reachablePointers(v.Index(i), seen)
		}
	}
}

// TestPublicCopyCannotReachOwnTables pins the isolation the CRT tables
// depend on: they encode the factorization, so nothing reachable from a
// Public() copy — which is handed to peers, users and the keystore's public
// file — may point at them, even after both table sets are built.
func TestPublicCopyCannotReachOwnTables(t *testing.T) {
	key := testKey(t, 64)
	key.Precompute()
	own := key.ownTables()
	if own == nil || own.p == nil || own.q == nil {
		t.Fatal("Precompute did not build the own-key tables")
	}
	pub := key.Public()
	if pub.pre != key.pre || pub.pre.blind == nil {
		t.Fatal("Public() copy does not share the built public table")
	}
	seen := map[uintptr]bool{}
	reachablePointers(reflect.ValueOf(pub), seen)
	for name, ptr := range map[string]any{"own": own, "p table": own.p, "q table": own.q, "crt": own.crt} {
		if seen[reflect.ValueOf(ptr).Pointer()] {
			t.Fatalf("own-key %s is reachable from a Public() copy", name)
		}
	}
	if pub.pre.blind.Modulus().Cmp(key.N2) != 0 {
		t.Fatal("shared public table is not over n^2")
	}
}

// TestOwnKeyTablesConcurrentFirstUse races the lazy CRT-table build: many
// goroutines make their first own-key encryption on a cold key at once
// (crypto/rand, so the rng is safe to share). Run under -race.
func TestOwnKeyTablesConcurrentFirstUse(t *testing.T) {
	key, err := GenerateKey(testRNG(60), 128)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := big.NewInt(int64(1000 + g))
			c, err := key.Encrypt(nil, m)
			if err != nil {
				t.Errorf("goroutine %d: Encrypt: %v", g, err)
				return
			}
			if got, err := key.Decrypt(c); err != nil || got.Cmp(m) != 0 {
				t.Errorf("goroutine %d: round trip got (%v, %v), want %v", g, got, err, m)
			}
		}(g)
	}
	wg.Wait()
}
