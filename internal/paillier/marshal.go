package paillier

import (
	"encoding/json"
	"fmt"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
)

// JSON serialization of key material, used by the keystore to persist keys
// across the multi-process deployment (cmd/keygen, cmd/server, cmd/user).
// Big integers are encoded as decimal strings.

// publicKeyJSON is the wire form of a PublicKey.
type publicKeyJSON struct {
	N string `json:"n"`
}

// MarshalJSON implements json.Marshaler.
func (pk *PublicKey) MarshalJSON() ([]byte, error) {
	if pk.N == nil {
		return nil, fmt.Errorf("paillier: cannot marshal zero public key")
	}
	return json.Marshal(publicKeyJSON{N: pk.N.String()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (pk *PublicKey) UnmarshalJSON(data []byte) error {
	var raw publicKeyJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("paillier: decode public key: %w", err)
	}
	n, ok := new(big.Int).SetString(raw.N, 10)
	if !ok || n.Sign() <= 0 {
		return fmt.Errorf("paillier: invalid modulus %q", raw.N)
	}
	// No product of two odd primes, or too small for a blinding table.
	if n.Bit(0) == 0 {
		return fmt.Errorf("%w: modulus is even", ErrInvalidKeyPair)
	}
	if n.BitLen() < 16 {
		return fmt.Errorf("%w, modulus has %d", ErrKeyTooSmall, n.BitLen())
	}
	pk.N = n
	pk.N2 = new(big.Int).Mul(n, n)
	pk.G = new(big.Int).Add(n, big.NewInt(1))
	mont, _ := mathutil.NewMont(pk.N2) // n² is odd and > 2: it cannot fail
	pk.pre = &precomp{mont: mont}
	return nil
}

// privateKeyJSON is the wire form of a PrivateKey: the factorization is
// sufficient to rebuild all derived constants.
type privateKeyJSON struct {
	P string `json:"p"`
	Q string `json:"q"`
}

// MarshalJSON implements json.Marshaler.
func (k *PrivateKey) MarshalJSON() ([]byte, error) {
	if k.p == nil || k.q == nil {
		return nil, fmt.Errorf("paillier: cannot marshal zero private key")
	}
	return json.Marshal(privateKeyJSON{P: k.p.String(), Q: k.q.String()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (k *PrivateKey) UnmarshalJSON(data []byte) error {
	var raw privateKeyJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("paillier: decode private key: %w", err)
	}
	p, ok := new(big.Int).SetString(raw.P, 10)
	if !ok || p.Sign() <= 0 {
		return fmt.Errorf("paillier: invalid prime p")
	}
	q, ok := new(big.Int).SetString(raw.Q, 10)
	if !ok || q.Sign() <= 0 {
		return fmt.Errorf("paillier: invalid prime q")
	}
	if !p.ProbablyPrime(32) || !q.ProbablyPrime(32) {
		return fmt.Errorf("paillier: key factors are not prime")
	}
	rebuilt, err := newPrivateKey(p, q)
	if err != nil {
		return fmt.Errorf("paillier: rebuild private key: %w", err)
	}
	*k = *rebuilt
	return nil
}
