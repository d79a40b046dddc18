package dgk

import (
	"encoding/json"
	"fmt"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
)

// JSON serialization of DGK key material (decimal-string big integers).
// The private key stores the secret prime p and the subgroup orders v_p, v_q
// alongside the public elements; q = n/p and the zero test's context are
// rebuilt on load.

// maxU bounds the plaintext space a key file may declare. Keys are
// generated with u = 1009; the bound dates from when the owner decrypted
// through a table of u entries built at load, and keeps a loaded file (any
// u·v_p dividing p−1 passes the subgroup check) near that shape.
const maxU = 1 << 16

// publicKeyJSON is the wire form of a PublicKey.
type publicKeyJSON struct {
	N     string `json:"n"`
	G     string `json:"g"`
	H     string `json:"h"`
	U     uint64 `json:"u"`
	RBits int    `json:"rBits"`
	L     int    `json:"l"`
}

// MarshalJSON implements json.Marshaler.
func (pk *PublicKey) MarshalJSON() ([]byte, error) {
	if pk.N == nil || pk.G == nil || pk.H == nil || pk.U == nil {
		return nil, fmt.Errorf("dgk: cannot marshal zero public key")
	}
	return json.Marshal(publicKeyJSON{
		N: pk.N.String(), G: pk.G.String(), H: pk.H.String(),
		U: pk.U.Uint64(), RBits: pk.RBits, L: pk.L,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (pk *PublicKey) UnmarshalJSON(data []byte) error {
	var raw publicKeyJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("dgk: decode public key: %w", err)
	}
	out, err := raw.toPublic()
	if err != nil {
		return err
	}
	*pk = *out
	return nil
}

// toPublic validates and converts the wire form. The modulus must be odd
// and at least 3 (a product of two odd primes; the Montgomery kernels need
// it odd), and g and h must lie in [2, n).
func (raw publicKeyJSON) toPublic() (*PublicKey, error) {
	if raw.U < 3 || raw.U > maxU || raw.RBits < 8 || raw.L < 1 || raw.L > 62 {
		return nil, fmt.Errorf("%w: u=%d rBits=%d l=%d", ErrBadParams, raw.U, raw.RBits, raw.L)
	}
	n, ok := new(big.Int).SetString(raw.N, 10)
	if !ok || n.Cmp(big.NewInt(3)) < 0 || n.Bit(0) == 0 {
		return nil, fmt.Errorf("%w: the modulus must be odd and at least 3", ErrBadParams)
	}
	g, okG := new(big.Int).SetString(raw.G, 10)
	h, okH := new(big.Int).SetString(raw.H, 10)
	two := big.NewInt(2)
	if !okG || !okH || g.Cmp(two) < 0 || g.Cmp(n) >= 0 || h.Cmp(two) < 0 || h.Cmp(n) >= 0 {
		return nil, fmt.Errorf("%w: the generators g and h must lie in [2, n)", ErrBadParams)
	}
	mont, _ := mathutil.NewMont(n) // checked odd and >= 3: it cannot fail
	return &PublicKey{
		N: n, G: g, H: h,
		U: new(big.Int).SetUint64(raw.U), RBits: raw.RBits, L: raw.L,
		pre: &precomp{mont: mont},
	}, nil
}

// privateKeyJSON is the wire form of a PrivateKey.
type privateKeyJSON struct {
	Public publicKeyJSON `json:"public"`
	P      string        `json:"p"`
	Vp     string        `json:"vp"`
	// Vq is absent from files written before the owner's CRT encryption
	// needed it; such a key loads and encrypts with a wider q-side table.
	Vq string `json:"vq,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (k *PrivateKey) MarshalJSON() ([]byte, error) {
	if k.p == nil || k.vp == nil {
		return nil, fmt.Errorf("dgk: cannot marshal zero private key")
	}
	pub, err := k.Public().MarshalJSON()
	if err != nil {
		return nil, err
	}
	var rawPub publicKeyJSON
	if err := json.Unmarshal(pub, &rawPub); err != nil {
		return nil, err
	}
	out := privateKeyJSON{Public: rawPub, P: k.p.String(), Vp: k.vp.String()}
	if k.vq != nil {
		out.Vq = k.vq.String()
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (k *PrivateKey) UnmarshalJSON(data []byte) error {
	var raw privateKeyJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("dgk: decode private key: %w", err)
	}
	pub, err := raw.Public.toPublic()
	if err != nil {
		return err
	}
	p, ok := new(big.Int).SetString(raw.P, 10)
	if !ok || p.Sign() <= 0 || !p.ProbablyPrime(32) {
		return fmt.Errorf("dgk: invalid secret prime")
	}
	vp, ok := new(big.Int).SetString(raw.Vp, 10)
	if !ok || vp.Sign() <= 0 {
		return fmt.Errorf("dgk: invalid secret exponent")
	}
	q, rem := new(big.Int).QuoRem(pub.N, p, new(big.Int))
	if rem.Sign() != 0 {
		return fmt.Errorf("dgk: secret prime does not divide the modulus")
	}
	if q.Cmp(p) == 0 || !q.ProbablyPrime(32) {
		return fmt.Errorf("%w: the modulus is not a product of two distinct primes", ErrBadParams)
	}
	if err := pub.checkSubgroup(p, vp); err != nil {
		return err
	}
	var vq *big.Int
	if raw.Vq != "" {
		if vq, ok = new(big.Int).SetString(raw.Vq, 10); !ok || vq.Sign() <= 0 {
			return fmt.Errorf("%w: invalid secret exponent v_q", ErrBadParams)
		}
		if err := pub.checkSubgroup(q, vq); err != nil {
			return err
		}
	}
	k.PublicKey = *pub
	k.p, k.vp, k.q, k.vq = p, vp, q, vq
	k.own = &ownPrecomp{}
	k.zt, _ = mathutil.NewMont(p) // p is an odd prime: it cannot fail
	return nil
}

// checkSubgroup refuses a (prime factor s, subgroup order v) pair the key's
// generators do not fit: a wrong v loads silently otherwise, makes every zero
// test read "non-zero" and every comparison answer a >= b. It requires
// u·v | s-1, h^v = 1, g^(u·v) = 1 and g^v != 1 (mod s).
func (pk *PublicKey) checkSubgroup(s, v *big.Int) error {
	uv := new(big.Int).Mul(pk.U, v)
	sm1 := new(big.Int).Sub(s, big.NewInt(1))
	one := big.NewInt(1)
	switch {
	case new(big.Int).Mod(sm1, uv).Sign() != 0:
		return fmt.Errorf("%w: u·v does not divide a prime factor minus one", ErrBadParams)
	case new(big.Int).Exp(pk.H, v, s).Cmp(one) != 0:
		return fmt.Errorf("%w: h does not have order v modulo a prime factor", ErrBadParams)
	case new(big.Int).Exp(pk.G, uv, s).Cmp(one) != 0:
		return fmt.Errorf("%w: g does not have order u·v modulo a prime factor", ErrBadParams)
	case new(big.Int).Exp(pk.G, v, s).Cmp(one) == 0:
		return fmt.Errorf("%w: g has no component of order u modulo a prime factor", ErrBadParams)
	}
	return nil
}
