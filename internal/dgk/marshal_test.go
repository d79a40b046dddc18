package dgk

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/big"
	"os"
	"strings"
	"testing"
)

func TestPublicKeyJSONRoundTrip(t *testing.T) {
	key := sharedTestKey(t)
	data, err := json.Marshal(key.Public())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back PublicKey
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.N.Cmp(key.N) != 0 || back.G.Cmp(key.G) != 0 || back.H.Cmp(key.H) != 0 {
		t.Error("public key elements not preserved")
	}
	if back.RBits != key.RBits || back.L != key.L || back.U.Cmp(key.U) != 0 {
		t.Error("public key parameters not preserved")
	}
	// Encrypt with the reloaded key, decrypt with the original.
	c, err := back.Encrypt(testRNG(40), big.NewInt(123))
	if err != nil {
		t.Fatal(err)
	}
	m, err := refDecrypt(key, c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 123 {
		t.Errorf("cross-key round trip = %v", m)
	}
}

func TestPrivateKeyJSONRoundTrip(t *testing.T) {
	key := sharedTestKey(t)
	data, err := json.Marshal(key)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back PrivateKey
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// The reloaded key must decrypt.
	c, err := key.Encrypt(testRNG(41), big.NewInt(888))
	if err != nil {
		t.Fatal(err)
	}
	m, err := refDecrypt(&back, c)
	if err != nil {
		t.Fatalf("decrypt with reloaded key: %v", err)
	}
	if m.Int64() != 888 {
		t.Errorf("reloaded decrypt = %v", m)
	}
	// Zero test too.
	zero, err := key.Encrypt(testRNG(42), big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	isZero, err := back.IsZero(zero)
	if err != nil || !isZero {
		t.Errorf("reloaded IsZero = %v, %v", isZero, err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	// An even 190-bit modulus: every fixed-base table and the Montgomery
	// context need an odd one.
	even := new(big.Int).Lsh(big.NewInt(1), 189)
	even.Add(even, big.NewInt(1234))
	evenN := `{"n":"` + even.String() + `","g":"2","h":"3","u":1009,"rBits":100,"l":40}`
	for _, tc := range []struct{ name, pub string }{
		{"zero modulus", `{"n":"0","g":"1","h":"1","u":1009,"rBits":100,"l":40}`},
		{"out-of-range L", `{"n":"77","g":"2","h":"3","u":1009,"rBits":100,"l":99}`},
		// n = 2 used to load and encrypt 0 to the ciphertext 1.
		{"modulus 2", `{"n":"2","g":"1","h":"1","u":1009,"rBits":100,"l":40}`},
		{"even modulus", evenN},
		{"g = 1", `{"n":"77","g":"1","h":"3","u":1009,"rBits":100,"l":40}`},
		{"h = n", `{"n":"77","g":"2","h":"77","u":1009,"rBits":100,"l":40}`},
	} {
		if err := json.Unmarshal([]byte(tc.pub), new(PublicKey)); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: public key load error %v, want ErrBadParams", tc.name, err)
		}
		// The private-key loader inherits the check.
		priv := `{"public":` + tc.pub + `,"p":"7","vp":"1"}`
		if err := json.Unmarshal([]byte(priv), new(PrivateKey)); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: private key load error %v, want ErrBadParams", tc.name, err)
		}
	}
	// u = 2^40 fits this key's subgroups (2^40 divides p−1, g has order
	// 2^40 mod p), so only the bound on u refuses it; it is checked before
	// the generators.
	hugeU := `{"public":{"n":"6597089557866299971","g":"64","h":"1","u":1099511627776,"rBits":100,"l":40},"p":"6597069766657","vp":"1"}`
	if err := json.Unmarshal([]byte(hugeU), new(PrivateKey)); !errors.Is(err, ErrBadParams) || !strings.Contains(err.Error(), "u=1099511627776") {
		t.Errorf("u = 2^40: load error %v, want ErrBadParams naming u", err)
	}
	var k PrivateKey
	if err := json.Unmarshal([]byte(`{"public":{"n":"77","g":"2","h":"3","u":1009,"rBits":100,"l":40},"p":"8","vp":"5"}`), &k); err == nil {
		t.Error("expected error for composite secret prime")
	}
	if err := json.Unmarshal([]byte(`{"public":{"n":"77","g":"2","h":"3","u":1009,"rBits":100,"l":40},"p":"13","vp":"5"}`), &k); err == nil {
		t.Error("expected error when p does not divide n")
	}
}

// A key file whose secret numbers do not fit its generators is refused at
// load: with a wrong v_p every zero test would read "non-zero", every
// comparison answer a >= b, and the pair would release a wrong label.
func TestUnmarshalRefusesMismatchedSubgroups(t *testing.T) {
	key := sharedTestKey(t)
	data, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	var good privateKeyJSON
	if err := json.Unmarshal(data, &good); err != nil {
		t.Fatal(err)
	}
	if good.Vq != key.vq.String() {
		t.Fatalf("marshaled v_q = %q, want %v", good.Vq, key.vq)
	}
	other, err := GenerateKey(testRNG(98), testParams())
	if err != nil {
		t.Fatal(err)
	}
	plusOne := func(s string) string {
		v, _ := new(big.Int).SetString(s, 10)
		return v.Add(v, big.NewInt(1)).String()
	}
	times := func(s string, k *big.Int, n string) string {
		v, _ := new(big.Int).SetString(s, 10)
		m, _ := new(big.Int).SetString(n, 10)
		return v.Mod(v.Mul(v, k), m).String()
	}
	for _, tc := range []struct {
		name, why string // why: the check that must refuse
		mutate    func(*privateKeyJSON)
	}{
		{"v_p off by one", "does not divide", func(k *privateKeyJSON) { k.Vp = plusOne(k.Vp) }},
		{"v_p of another key", "does not divide", func(k *privateKeyJSON) { k.Vp = other.vp.String() }},
		{"v_p = 1", "h does not have order v", func(k *privateKeyJSON) { k.Vp = "1" }},
		{"v_q off by one", "does not divide", func(k *privateKeyJSON) { k.Vq = plusOne(k.Vq) }},
		{"v_q = v_p", "does not divide", func(k *privateKeyJSON) { k.Vq = k.Vp }},
		{"v_q not a number", "invalid secret exponent v_q", func(k *privateKeyJSON) { k.Vq = "x" }},
		// h·g has order u·v, so h^v != 1.
		{"h with a component of order u", "h does not have order v",
			func(k *privateKeyJSON) { k.Public.H = times(k.Public.H, key.G, k.Public.N) }},
		// g replaced by h: g^(u·v) = 1 still, but g^v = 1 — no plaintext space.
		{"g of order v only", "g has no component of order u", func(k *privateKeyJSON) { k.Public.G = k.Public.H }},
		// g doubled: a random element, whose order does not divide u·v.
		{"g outside the subgroup", "g does not have order u·v",
			func(k *privateKeyJSON) { k.Public.G = times(k.Public.G, big.NewInt(2), k.Public.N) }},
		{"modulus of three primes", "two distinct primes", func(k *privateKeyJSON) {
			n, _ := new(big.Int).SetString(k.Public.N, 10)
			k.Public.N = n.Mul(n, big.NewInt(1000003)).String()
		}},
	} {
		bad := good
		tc.mutate(&bad)
		raw, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		var k PrivateKey
		if err := json.Unmarshal(raw, &k); !errors.Is(err, ErrBadParams) || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: load error %v, want ErrBadParams (%s)", tc.name, err, tc.why)
		}
	}
	var back PrivateKey
	if err := json.Unmarshal(data, &back); err != nil || back.vq.Cmp(key.vq) != 0 || back.q.Cmp(key.q) != 0 {
		t.Fatalf("unmutated file: %v", err)
	}
	checkOwnerMatchesPublic(t, &back, 5, big.NewInt(1))
}

// A key file written by the parent commit (testdata/parent_key.json: no
// "vq") still loads, compares correctly, and encrypts the owner's way with a
// q-side table as wide as the randomness — byte-identical all the same.
func TestParentKeyFileStillLoads(t *testing.T) {
	data, err := os.ReadFile("testdata/parent_key.json")
	if err != nil {
		t.Fatal(err)
	}
	var key PrivateKey
	if err := json.Unmarshal(data, &key); err != nil {
		t.Fatalf("parent-written key file refused: %v", err)
	}
	if key.vq != nil || key.q == nil {
		t.Fatalf("parent file has no v_q: loaded vq=%v q=%v", key.vq, key.q)
	}
	for seed, m := range []int64{0, 1, 0, 1} {
		checkOwnerMatchesPublic(t, &key, int64(seed+1), big.NewInt(m))
	}
	own := key.ownTables()
	if got := own.q.MaxBits(); got != key.RBits {
		t.Errorf("q-side h table is %d bits wide, want RBits = %d without v_q", got, key.RBits)
	}
	if got, want := own.p.MaxBits(), key.vp.BitLen(); got != want {
		t.Errorf("p-side h table is %d bits wide, want |v_p| = %d", got, want)
	}
	for _, c := range []struct {
		a, b int64
		want bool
	}{{5, 3, true}, {3, 5, false}, {-7, -7, true}, {-(1 << 30), 1 << 30, false}} {
		if got := runCompare(t, &key, big.NewInt(c.a), big.NewInt(c.b), true); got != c.want {
			t.Errorf("compare(%d, %d) under the parent's key file = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// Re-saved, the file stays without v_q rather than gaining a wrong one.
	again, err := json.Marshal(&key)
	if err != nil || bytes.Contains(again, []byte(`"vq"`)) {
		t.Errorf("re-marshaled parent key: %s, %v", again, err)
	}
}

func TestMarshalZeroKeys(t *testing.T) {
	var pk PublicKey
	if _, err := json.Marshal(&pk); err == nil {
		t.Error("expected error marshaling zero public key")
	}
	var k PrivateKey
	if _, err := json.Marshal(&k); err == nil {
		t.Error("expected error marshaling zero private key")
	}
}
