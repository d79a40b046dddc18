// Slot packing: encode many small signed values into one Paillier
// plaintext so a K-length vector costs ⌈K/slots⌉ ciphertexts instead of
// K. Homomorphic addition of packed ciphertexts adds slot-wise because
// each slot is wide enough that per-slot sums can never carry into the
// neighbouring slot — the width is derived from the worst-case sum
// (per-value magnitude bound × participant count, plus statistical
// blinding headroom), so overflow is impossible by construction.
package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/privconsensus/privconsensus/internal/mathutil"
)

// Packing errors.
var (
	ErrPackingShape = errors.New("paillier: packing layout does not fit plaintext space")
	ErrSlotRange    = errors.New("paillier: value outside packing slot range")
)

// Packing describes a slot layout: Count logical values, laid out
// little-endian (value j occupies bits [j*Width, (j+1)*Width) of its
// plaintext), Slots values per plaintext.
//
// Pack biases every value by Bias so negative shares become
// non-negative slot contents; a sum of n packed plaintexts therefore
// carries sum_j + n*Bias in slot j, which the consumer strips with the
// public participant count. Max bounds the per-value biased magnitude
// (2*Bias) so that Width — sized for the sum, not the addend — always
// has headroom left for the statistical blind added before an
// interactive unpack.
type Packing struct {
	Width int      // bits per slot (sized for blinded sums)
	Slots int      // values per plaintext
	Count int      // number of logical values
	Bias  *big.Int // added to each value before packing
	Max   *big.Int // exclusive bound on a biased per-value slot (2*Bias)
}

// Plaintexts returns the number of packed plaintexts the layout needs.
func (p Packing) Plaintexts() int {
	if p.Slots <= 0 {
		return 0
	}
	return (p.Count + p.Slots - 1) / p.Slots
}

// validate checks the layout is internally consistent for a modulus of
// the given bit length (0 skips the modulus check).
func (p Packing) validate(modBits int) error {
	if p.Width <= 0 || p.Slots <= 0 || p.Count <= 0 || p.Bias == nil || p.Max == nil {
		return fmt.Errorf("%w: width=%d slots=%d count=%d", ErrPackingShape, p.Width, p.Slots, p.Count)
	}
	if modBits > 0 && p.Slots*p.Width > modBits-2 {
		return fmt.Errorf("%w: %d slots × %d bits exceeds %d-bit plaintexts", ErrPackingShape, p.Slots, p.Width, modBits)
	}
	return nil
}

// Pack encodes values (len must equal Count) into Plaintexts() packed
// plaintexts, biasing each value by Bias and rejecting any value whose
// biased form falls outside [0, Max).
func (p Packing) Pack(values []*big.Int) ([]*big.Int, error) {
	if err := p.validate(0); err != nil {
		return nil, err
	}
	if len(values) != p.Count {
		return nil, fmt.Errorf("%w: got %d values, layout holds %d", ErrPackingShape, len(values), p.Count)
	}
	out := make([]*big.Int, p.Plaintexts())
	for i := range out {
		out[i] = new(big.Int)
	}
	biased := new(big.Int)
	for j, v := range values {
		if v == nil {
			return nil, fmt.Errorf("%w: nil value at slot %d", ErrSlotRange, j)
		}
		biased.Add(v, p.Bias)
		if biased.Sign() < 0 || biased.Cmp(p.Max) >= 0 {
			return nil, fmt.Errorf("%w: slot %d value %v", ErrSlotRange, j, v)
		}
		shifted := new(big.Int).Lsh(biased, uint((j%p.Slots)*p.Width))
		out[j/p.Slots].Or(out[j/p.Slots], shifted)
	}
	return out, nil
}

// PackRaw encodes already non-negative values without biasing, each
// bounded by the full slot width. Used for slot-aligned blinding masks.
func (p Packing) PackRaw(values []*big.Int) ([]*big.Int, error) {
	if err := p.validate(0); err != nil {
		return nil, err
	}
	if len(values) != p.Count {
		return nil, fmt.Errorf("%w: got %d values, layout holds %d", ErrPackingShape, len(values), p.Count)
	}
	limit := new(big.Int).Lsh(oneInt, uint(p.Width))
	out := make([]*big.Int, p.Plaintexts())
	for i := range out {
		out[i] = new(big.Int)
	}
	for j, v := range values {
		if v == nil || v.Sign() < 0 || v.Cmp(limit) >= 0 {
			return nil, fmt.Errorf("%w: raw slot %d", ErrSlotRange, j)
		}
		shifted := new(big.Int).Lsh(v, uint((j%p.Slots)*p.Width))
		out[j/p.Slots].Or(out[j/p.Slots], shifted)
	}
	return out, nil
}

// Split decodes packed plaintexts back into Count raw slot values, each
// in [0, 2^Width). It is the inverse of summing packed plaintexts: slot
// j of the result is sum_j + n*Bias (+ any blind the caller added).
func (p Packing) Split(packed []*big.Int) ([]*big.Int, error) {
	if err := p.validate(0); err != nil {
		return nil, err
	}
	if len(packed) != p.Plaintexts() {
		return nil, fmt.Errorf("%w: got %d plaintexts, layout needs %d", ErrPackingShape, len(packed), p.Plaintexts())
	}
	mask := new(big.Int).Lsh(oneInt, uint(p.Width))
	mask.Sub(mask, oneInt)
	out := make([]*big.Int, p.Count)
	for j := 0; j < p.Count; j++ {
		word := packed[j/p.Slots]
		if word == nil || word.Sign() < 0 {
			return nil, fmt.Errorf("%w: plaintext %d", ErrSlotRange, j/p.Slots)
		}
		v := new(big.Int).Rsh(word, uint((j%p.Slots)*p.Width))
		out[j] = v.And(v, mask)
	}
	return out, nil
}

// chunk returns the value range [lo, hi) packed plaintext i holds.
func (p Packing) chunk(i int) (lo, hi int, err error) {
	if err := p.validate(0); err != nil {
		return 0, 0, err
	}
	if i < 0 || i >= p.Plaintexts() {
		return 0, 0, fmt.Errorf("%w: plaintext %d of %d", ErrPackingShape, i, p.Plaintexts())
	}
	return i * p.Slots, min((i+1)*p.Slots, p.Count), nil
}

// Fold builds packed ciphertext i of the layout homomorphically from Count
// per-value ciphertexts under pk, without their key: Horner's rule from the
// chunk's top slot down, acc ← acc^(2^Width)·c_j mod n² — Width squarings
// in n²'s Montgomery domain, left once — leaves E[Σ_j m_j·2^(Width·j)].
// The sender's plaintext addends and the public per-slot offset Bias (which
// keeps signed values non-negative in their slots) enter as one fresh
// encryption of Σ_j (addends[j]+Bias)·2^(Width·j), whose blinding factor
// is the fold's only new randomness and all it needs
// (DESIGN.md note 12). The caller's layout guarantees
// 0 <= m_j + addends[j] + Bias < 2^Width; an addend that alone leaves the
// slot is refused.
//
// With one slot per plaintext there is nothing to fold: Bias is zero by
// convention and the lone slot carries m + addend as a signed residue, as
// wide as the plaintext space — AddPlain plus Rerandomize.
func (p Packing) Fold(rng io.Reader, pk *PublicKey, i int, cts []*Ciphertext, addends []*big.Int) (*Ciphertext, error) {
	lo, hi, err := p.chunk(i)
	if err != nil {
		return nil, err
	}
	if len(cts) != p.Count || len(addends) != p.Count {
		return nil, fmt.Errorf("%w: %d ciphertexts and %d addends, layout holds %d", ErrPackingShape, len(cts), len(addends), p.Count)
	}
	ctx := pk.mont()
	if ctx == nil {
		return nil, fmt.Errorf("%w: n² is even", ErrInvalidKeyPair)
	}
	// acc and c_j in n²'s Montgomery domain, then the kernels' scratch.
	n, plain := ctx.Words(), new(big.Int)
	w := make([]big.Word, 5*n)
	acc, cj, kernel := w[:n], w[n:2*n], w[2*n:]
	for j := hi - 1; j >= lo; j-- {
		if err := pk.validateCiphertext(cts[j]); err != nil {
			return nil, fmt.Errorf("paillier: fold slot %d: %w", j, err)
		}
		if cts[j].C.Sign() == 0 || addends[j] == nil {
			return nil, fmt.Errorf("%w: fold slot %d is empty", ErrSlotRange, j)
		}
		v := new(big.Int).Add(addends[j], p.Bias)
		if p.Slots > 1 && (v.Sign() < 0 || v.Cmp(p.Max) >= 0) {
			return nil, fmt.Errorf("%w: addend of slot %d", ErrSlotRange, j)
		}
		plain.Add(plain.Lsh(plain, uint(p.Width)), v)
		if j == hi-1 {
			ctx.Enter(acc, cts[j].C, kernel)
			continue
		}
		for b := 0; b < p.Width; b++ {
			ctx.Mul(acc, acc, acc, kernel)
		}
		ctx.Enter(cj, cts[j].C, kernel)
		ctx.Mul(acc, acc, cj, kernel)
	}
	ctx.Leave(acc, acc, kernel)
	fresh, err := pk.Encrypt(rng, mathutil.FromSigned(plain, pk.N))
	if err != nil {
		return nil, err
	}
	return pk.Add(&Ciphertext{C: new(big.Int).SetBits(acc)}, fresh)
}

// Unfold is the key owner's read of packed ciphertext i of a Fold: one
// decryption, then the chunk's values m_j + addends[j] with the offset
// stripped. A plaintext with bits above the chunk's slots is refused — no
// honest Fold produces one.
func (p Packing) Unfold(sk *PrivateKey, i int, c *Ciphertext) ([]*big.Int, error) {
	lo, hi, err := p.chunk(i)
	if err != nil {
		return nil, err
	}
	m, err := sk.Decrypt(c)
	if err != nil {
		return nil, err
	}
	if p.Slots == 1 {
		m = mathutil.ToSigned(m, sk.N)
		return []*big.Int{m.Sub(m, p.Bias)}, nil
	}
	if m.BitLen() > (hi-lo)*p.Width {
		return nil, fmt.Errorf("%w: folded plaintext %d has %d bits, its %d slots hold %d",
			ErrSlotRange, i, m.BitLen(), hi-lo, (hi-lo)*p.Width)
	}
	mask := new(big.Int).Lsh(oneInt, uint(p.Width))
	mask.Sub(mask, oneInt)
	out := make([]*big.Int, hi-lo)
	for j := range out {
		v := new(big.Int).Rsh(m, uint(j*p.Width))
		out[j] = v.Sub(v.And(v, mask), p.Bias)
	}
	return out, nil
}

var oneInt = big.NewInt(1)
