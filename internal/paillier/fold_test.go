package paillier

import (
	"errors"
	"math/big"
	"sync"
	"testing"
)

// foldKey is the one 256-bit key the fold tests and FuzzFoldSlots share.
var foldKey = sync.OnceValue(func() *PrivateKey {
	key, err := GenerateKey(testRNG(77), 256)
	if err != nil {
		panic(err)
	}
	return key
})

// foldLayout is a crossing-style layout: count values in width-bit slots, as
// many slots as fit a 256-bit plaintext, offset an eighth of a slot; one slot
// per plaintext (lone) carries signed residues with no offset.
func foldLayout(width, count int, lone bool) Packing {
	p := Packing{
		Width: width,
		Slots: 254 / width,
		Count: count,
		Bias:  new(big.Int).Lsh(big.NewInt(1), uint(width-3)),
		Max:   new(big.Int).Lsh(big.NewInt(1), uint(width)),
	}
	if lone {
		p.Slots, p.Bias = 1, new(big.Int)
	}
	return p
}

// foldInputs splits slot totals (what Unfold must return, offset stripped)
// into a signed encrypted part and a plaintext addend: edge picks the slot's
// lower bound, upper bound, or a random point, per value.
func foldInputs(t testing.TB, p Packing, seed int64, edge uint8) (cts []*Ciphertext, addends, want []*big.Int) {
	t.Helper()
	rng := testRNG(seed)
	pk := &foldKey().PublicKey
	top := new(big.Int).Sub(p.Max, big.NewInt(1))
	for j := 0; j < p.Count; j++ {
		total := new(big.Int).Rand(rng, p.Max) // slot content in [0, 2^W)
		switch (int(edge) + j) % 3 {
		case 1:
			total.SetInt64(0)
		case 2:
			total.Set(top)
		}
		a := new(big.Int).Rand(rng, p.Max)                          // addend + Bias in [0, 2^W)
		c, err := pk.EncryptSigned(rng, new(big.Int).Sub(total, a)) // the rest, signed
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, c)
		addends = append(addends, a.Sub(a, p.Bias))
		want = append(want, total.Sub(total, p.Bias))
	}
	return cts, addends, want
}

// checkFoldRoundTrip folds every plaintext of the layout and asserts the
// owner reads back m_j + addend_j for every value.
func checkFoldRoundTrip(t testing.TB, p Packing, seed int64, edge uint8) {
	t.Helper()
	sk := foldKey()
	cts, addends, want := foldInputs(t, p, seed, edge)
	var got []*big.Int
	for i := 0; i < p.Plaintexts(); i++ {
		c, err := p.Fold(testRNG(seed+1), &sk.PublicKey, i, cts, addends)
		if err != nil {
			t.Fatalf("Fold %d of %+v: %v", i, p, err)
		}
		vals, err := p.Unfold(sk, i, c)
		if err != nil {
			t.Fatalf("Unfold %d of %+v: %v", i, p, err)
		}
		got = append(got, vals...)
	}
	if len(got) != len(want) {
		t.Fatalf("unfolded %d values, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j].Cmp(want[j]) != 0 {
			t.Fatalf("layout %+v value %d = %v, want %v", p, j, got[j], want[j])
		}
	}
}

func TestFoldSlots(t *testing.T) {
	slots := 254 / 51
	for _, tc := range []struct {
		name       string
		p          Packing
		plaintexts int
	}{
		{"K=1", foldLayout(51, 1, false), 1},
		{"K=slots", foldLayout(51, slots, false), 1},
		{"K=slots+1", foldLayout(51, slots+1, false), 2},
		{"K=10", foldLayout(51, 10, false), 3},
		{"narrow", foldLayout(8, 31, false), 1},
		{"lone slots", foldLayout(51, 3, true), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Plaintexts(); got != tc.plaintexts {
				t.Fatalf("layout needs %d ciphertexts, want %d", got, tc.plaintexts)
			}
			for edge := uint8(0); edge < 3; edge++ {
				checkFoldRoundTrip(t, tc.p, 100+int64(edge), edge)
			}
		})
	}
}

// A lone slot is as wide as the plaintext space: values far outside any
// slot width cross it as signed residues.
func TestFoldLoneSlotCarriesSignedResidue(t *testing.T) {
	sk := foldKey()
	p := foldLayout(20, 1, true)
	huge := new(big.Int).Lsh(big.NewInt(-1), 200)
	c, err := sk.PublicKey.EncryptSigned(testRNG(1), big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	folded, err := p.Fold(testRNG(2), &sk.PublicKey, 0, []*Ciphertext{c}, []*big.Int{huge})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Unfold(sk, 0, folded)
	if want := new(big.Int).Add(huge, big.NewInt(5)); err != nil || got[0].Cmp(want) != 0 {
		t.Fatalf("lone slot read %v (%v), want %v", got, err, want)
	}
}

func TestFoldRefusals(t *testing.T) {
	sk := foldKey()
	pk := &sk.PublicKey
	p := foldLayout(51, 6, false)
	cts, addends, _ := foldInputs(t, p, 7, 0)
	with := func(j int, c *Ciphertext) []*Ciphertext {
		out := append([]*Ciphertext(nil), cts...)
		out[j] = c
		return out
	}
	plus := func(j int, a *big.Int) []*big.Int {
		out := append([]*big.Int(nil), addends...)
		out[j] = a
		return out
	}
	for name, tc := range map[string]struct {
		i       int
		cts     []*Ciphertext
		addends []*big.Int
		want    error
	}{
		"zero ciphertext":        {0, with(2, &Ciphertext{C: new(big.Int)}), addends, ErrSlotRange},
		"ciphertext of n^2":      {0, with(2, &Ciphertext{C: pk.N2}), addends, ErrWrongKey},
		"nil ciphertext":         {0, with(2, nil), addends, ErrCiphertextNil},
		"addend above the slot":  {0, cts, plus(1, new(big.Int).Sub(p.Max, p.Bias)), ErrSlotRange},
		"addend below the slot":  {0, cts, plus(1, new(big.Int).Sub(big.NewInt(-1), p.Bias)), ErrSlotRange},
		"nil addend":             {0, cts, plus(1, nil), ErrSlotRange},
		"short ciphertext list":  {0, cts[:5], addends, ErrPackingShape},
		"short addend list":      {0, cts, addends[:5], ErrPackingShape},
		"plaintext index beyond": {2, cts, addends, ErrPackingShape},
		"negative index":         {-1, cts, addends, ErrPackingShape},
	} {
		if _, err := p.Fold(testRNG(8), pk, tc.i, tc.cts, tc.addends); !errors.Is(err, tc.want) {
			t.Errorf("%s: Fold error %v, want %v", name, err, tc.want)
		}
	}
	// A refusal in the second plaintext must not depend on the first.
	if _, err := p.Fold(testRNG(8), pk, 1, with(5, &Ciphertext{C: new(big.Int)}), addends); !errors.Is(err, ErrSlotRange) {
		t.Errorf("zero ciphertext in plaintext 1: %v", err)
	}

	// The owner refuses a plaintext no honest fold produces: one bit above
	// the chunk's slots (plaintext 1 of this layout holds the last two).
	for i, used := range []int{p.Slots, p.Count - p.Slots} {
		over, err := pk.Encrypt(testRNG(9), new(big.Int).Lsh(big.NewInt(1), uint(used*p.Width)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Unfold(sk, i, over); !errors.Is(err, ErrSlotRange) {
			t.Errorf("plaintext %d with bit %d set: Unfold error %v, want ErrSlotRange", i, used*p.Width, err)
		}
		fits, err := pk.Encrypt(testRNG(9), new(big.Int).Lsh(big.NewInt(1), uint(used*p.Width-1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Unfold(sk, i, fits); err != nil {
			t.Errorf("plaintext %d with its top slot bit set: %v", i, err)
		}
	}
	if _, err := p.Unfold(sk, 2, cts[0]); !errors.Is(err, ErrPackingShape) {
		t.Errorf("Unfold beyond the layout: %v", err)
	}
}

// FuzzFoldSlots fuzzes the fold over slot width, value count (through one
// slot, a full plaintext and one value past it), lone-slot mode and values
// at both slot bounds: decrypt-and-split must equal the inputs.
func FuzzFoldSlots(f *testing.F) {
	f.Add(uint8(51), uint8(10), int64(1), uint8(0), false)
	f.Add(uint8(8), uint8(32), int64(2), uint8(1), false)
	f.Add(uint8(127), uint8(3), int64(3), uint8(2), false)
	f.Add(uint8(40), uint8(4), int64(4), uint8(1), true)
	f.Fuzz(func(t *testing.T, width, count uint8, seed int64, edge uint8, lone bool) {
		w := 4 + int(width)%124 // 4..127 bits: at least two slots per plaintext
		p := foldLayout(w, 1, lone)
		p.Count = 1 + int(count)%(p.Slots+1) // 1 .. slots+1 values
		if lone {
			p.Count = 1 + int(count)%4
		}
		checkFoldRoundTrip(t, p, seed, edge)
	})
}
