package paillier

import (
	"encoding/json"
	"errors"
	"math/big"
	"testing"
)

func TestPublicKeyJSONRoundTrip(t *testing.T) {
	key := testKey(t, 64)
	data, err := json.Marshal(key.Public())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back PublicKey
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.N.Cmp(key.N) != 0 || back.N2.Cmp(key.N2) != 0 || back.G.Cmp(key.G) != 0 {
		t.Error("public key fields not preserved")
	}
	// The reloaded key must encrypt values the original can decrypt.
	c, err := back.Encrypt(testRNG(1), big.NewInt(4242))
	if err != nil {
		t.Fatal(err)
	}
	m, err := key.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 4242 {
		t.Errorf("cross-key round trip = %v", m)
	}
}

func TestPrivateKeyJSONRoundTrip(t *testing.T) {
	key := testKey(t, 64)
	data, err := json.Marshal(key)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back PrivateKey
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// The reloaded key must decrypt ciphertexts from the original.
	c, err := key.Encrypt(testRNG(2), big.NewInt(99999))
	if err != nil {
		t.Fatal(err)
	}
	m, err := back.Decrypt(c)
	if err != nil {
		t.Fatalf("decrypt with reloaded key: %v", err)
	}
	if m.Int64() != 99999 {
		t.Errorf("reloaded decrypt = %v", m)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var pk PublicKey
	if err := json.Unmarshal([]byte(`{"n":"-5"}`), &pk); err == nil {
		t.Error("expected error for negative modulus")
	}
	if err := json.Unmarshal([]byte(`{"n":"zzz"}`), &pk); err == nil {
		t.Error("expected error for non-numeric modulus")
	}
	// 2^40: long enough, even. 32761 = 181²: odd, one bit short of 16.
	if err := json.Unmarshal([]byte(`{"n":"1099511627776"}`), &pk); !errors.Is(err, ErrInvalidKeyPair) {
		t.Errorf("even modulus: got %v, want ErrInvalidKeyPair", err)
	}
	if err := json.Unmarshal([]byte(`{"n":"32761"}`), &pk); !errors.Is(err, ErrKeyTooSmall) {
		t.Errorf("15-bit modulus: got %v, want ErrKeyTooSmall", err)
	}
	var k PrivateKey
	if err := json.Unmarshal([]byte(`{"p":"4","q":"9"}`), &k); err == nil {
		t.Error("expected error for composite factors")
	}
	if err := json.Unmarshal([]byte(`not json`), &k); err == nil {
		t.Error("expected error for invalid JSON")
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
