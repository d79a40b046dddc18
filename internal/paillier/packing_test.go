package paillier

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func testPacking(t *testing.T) Packing {
	t.Helper()
	bias := new(big.Int).Lsh(big.NewInt(1), 20)
	return Packing{
		Width: 50,
		Slots: 4,
		Count: 10,
		Bias:  bias,
		Max:   new(big.Int).Lsh(bias, 1),
	}
}

func TestPackSplitRoundTrip(t *testing.T) {
	p := testPacking(t)
	values := make([]*big.Int, p.Count)
	for i := range values {
		values[i] = big.NewInt(int64((i - 5) * 99991))
	}
	packed, err := p.Pack(values)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if got, want := len(packed), 3; got != want {
		t.Fatalf("plaintexts = %d, want %d", got, want)
	}
	slots, err := p.Split(packed)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	for i, s := range slots {
		want := new(big.Int).Add(values[i], p.Bias)
		if s.Cmp(want) != 0 {
			t.Fatalf("slot %d = %v, want %v", i, s, want)
		}
	}
}

func TestPackedSumsAddSlotwise(t *testing.T) {
	p := testPacking(t)
	const users = 7
	sums := make([]*big.Int, p.Count)
	acc := make([]*big.Int, p.Plaintexts())
	for i := range sums {
		sums[i] = new(big.Int)
	}
	for i := range acc {
		acc[i] = new(big.Int)
	}
	for u := 0; u < users; u++ {
		values := make([]*big.Int, p.Count)
		for i := range values {
			v := int64((u+1)*(i+1)) - 40
			values[i] = big.NewInt(v)
			sums[i].Add(sums[i], values[i])
		}
		packed, err := p.Pack(values)
		if err != nil {
			t.Fatalf("Pack user %d: %v", u, err)
		}
		for i, w := range packed {
			acc[i].Add(acc[i], w)
		}
	}
	slots, err := p.Split(acc)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	nBias := new(big.Int).Mul(big.NewInt(users), p.Bias)
	for i, s := range slots {
		got := new(big.Int).Sub(s, nBias)
		if got.Cmp(sums[i]) != 0 {
			t.Fatalf("slot %d sum = %v, want %v", i, got, sums[i])
		}
	}
}

func TestPackRejectsOutOfRange(t *testing.T) {
	p := testPacking(t)
	values := make([]*big.Int, p.Count)
	for i := range values {
		values[i] = big.NewInt(0)
	}
	values[3] = new(big.Int).Neg(new(big.Int).Add(p.Bias, big.NewInt(1)))
	if _, err := p.Pack(values); err == nil {
		t.Fatal("Pack accepted value below -Bias")
	}
	values[3] = new(big.Int).Set(p.Bias) // biased = 2*Bias = Max
	if _, err := p.Pack(values); err == nil {
		t.Fatal("Pack accepted value at Max")
	}
	values[3] = big.NewInt(0)
	if _, err := p.Pack(values[:p.Count-1]); err == nil {
		t.Fatal("Pack accepted short vector")
	}
}

func TestPackRawBlindsRoundTrip(t *testing.T) {
	p := testPacking(t)
	blinds := make([]*big.Int, p.Count)
	for i := range blinds {
		b, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(p.Width-1)))
		if err != nil {
			t.Fatal(err)
		}
		blinds[i] = b
	}
	packed, err := p.PackRaw(blinds)
	if err != nil {
		t.Fatalf("PackRaw: %v", err)
	}
	slots, err := p.Split(packed)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	for i, s := range slots {
		if s.Cmp(blinds[i]) != 0 {
			t.Fatalf("blind %d = %v, want %v", i, s, blinds[i])
		}
	}
	too := make([]*big.Int, p.Count)
	for i := range too {
		too[i] = big.NewInt(0)
	}
	too[0] = new(big.Int).Lsh(big.NewInt(1), uint(p.Width))
	if _, err := p.PackRaw(too); err == nil {
		t.Fatal("PackRaw accepted full-width overflow")
	}
}

func TestPackedHomomorphicAggregation(t *testing.T) {
	key, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	pk := key.Public()
	p := testPacking(t)
	const users = 5
	sums := make([]*big.Int, p.Count)
	for i := range sums {
		sums[i] = new(big.Int)
	}
	var agg []Sum
	scratch := pk.SumScratch()
	for u := 0; u < users; u++ {
		values := make([]*big.Int, p.Count)
		for i := range values {
			values[i] = big.NewInt(int64(u*13 - i*7))
			sums[i].Add(sums[i], values[i])
		}
		packed, err := p.Pack(values)
		if err != nil {
			t.Fatal(err)
		}
		cts, err := pk.EncryptVector(rand.Reader, packed)
		if err != nil {
			t.Fatal(err)
		}
		if agg == nil {
			agg = pk.NewSums(len(cts))
		}
		for i, c := range cts {
			if err := agg[i].Add(c, scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain := make([]*big.Int, len(agg))
	for i := range agg {
		m, err := key.Decrypt(agg[i].Ciphertext(scratch))
		if err != nil {
			t.Fatal(err)
		}
		plain[i] = m
	}
	slots, err := p.Split(plain)
	if err != nil {
		t.Fatal(err)
	}
	nBias := new(big.Int).Mul(big.NewInt(users), p.Bias)
	for i, s := range slots {
		got := new(big.Int).Sub(s, nBias)
		if got.Cmp(sums[i]) != 0 {
			t.Fatalf("aggregated slot %d = %v, want %v", i, got, sums[i])
		}
	}
}
