package paillier

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// mulModChain folds cts by a big.Int product and a division by n² per
// ciphertext, into one accumulator and one scratch: the reference Sum must
// equal byte for byte, and the baseline BenchmarkPaillierSum measures.
func mulModChain(pk *PublicKey, cts []*Ciphertext) *big.Int {
	acc, t := new(big.Int).Set(cts[0].C), new(big.Int)
	for _, c := range cts[1:] {
		t.Mul(acc, c.C)
		t.QuoRem(t, pk.N2, acc)
	}
	return acc
}

// sumOf folds cts into a fresh Sum and reads it out.
func sumOf(t testing.TB, pk *PublicKey, cts []*Ciphertext) *Ciphertext {
	t.Helper()
	s, scratch := &pk.NewSums(1)[0], pk.SumScratch()
	for i, c := range cts {
		if err := s.Add(c, scratch); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	return s.Ciphertext(scratch)
}

// residues returns k values in [1, n²) — the extremes 1 and n²−1 among
// them — which need not be encryptions: the fold is a product mod n²
// whatever it multiplies.
func residues(rng *rand.Rand, pk *PublicKey, k int) []*Ciphertext {
	top := new(big.Int).Sub(pk.N2, big.NewInt(1))
	out := make([]*Ciphertext, k)
	for i := range out {
		switch i % 5 {
		case 1:
			out[i] = &Ciphertext{C: new(big.Int).Set(top)}
		case 3:
			out[i] = &Ciphertext{C: big.NewInt(1)}
		default:
			out[i] = &Ciphertext{C: new(big.Int).Rand(rng, pk.N2)}
		}
	}
	return out
}

// TestSumMatchesMulModChain holds Sum to the Mul+Mod chain at run lengths
// around the Montgomery deficit's edges (one factor owes nothing, a
// relay batch is 64) and at 1000, where the read-out's power of R has ten
// bits; at 64 bits also past 2^16 factors, where Exp changes its window. The
// sums of encryptions decrypt to the sums of their plaintexts, and every
// Add counts one addition.
func TestSumMatchesMulModChain(t *testing.T) {
	keys := ownKeys()
	for _, ki := range []int{0, 2} {
		key, bits := keys[ki], ownKeyBits[ki]
		if testing.Short() && bits > 512 {
			continue
		}
		pk := key.Public()
		rng := testRNG(int64(60 + ki))
		// Eight encryptions, repeated: the plaintext sum is known.
		var enc []*Ciphertext
		var ms []int64
		for i := 0; i < 8; i++ {
			m := rng.Int63n(1 << 12)
			c, err := pk.Encrypt(rng, big.NewInt(m))
			if err != nil {
				t.Fatal(err)
			}
			enc, ms = append(enc, c), append(ms, m)
		}
		lengths := []int{1, 2, 3, 63, 64, 65, 1000}
		if bits == 64 {
			lengths = append(lengths, 1<<16+3)
		}
		for _, k := range lengths {
			cts, want := make([]*Ciphertext, k), int64(0)
			for i := range cts {
				cts[i], want = enc[i%len(enc)], want+ms[i%len(ms)]
			}
			before := addOps.Value()
			got := sumOf(t, pk, cts)
			if n := addOps.Value() - before; n != int64(k) {
				t.Errorf("%d-bit k=%d: paillier_add_total rose by %d, want %d", bits, k, n, k)
			}
			if !bytes.Equal(got.Bytes(), mulModChain(pk, cts).Bytes()) {
				t.Fatalf("%d-bit k=%d: Sum of encryptions differs from the Mul+Mod chain", bits, k)
			}
			if m, err := key.Decrypt(got); err != nil || m.Cmp(big.NewInt(want)) != 0 {
				t.Fatalf("%d-bit k=%d: decrypts to (%v, %v), want %d", bits, k, m, err, want)
			}
			cts = residues(rng, pk, k)
			if got := sumOf(t, pk, cts); !bytes.Equal(got.Bytes(), mulModChain(pk, cts).Bytes()) {
				t.Fatalf("%d-bit k=%d: Sum of residues differs from the Mul+Mod chain", bits, k)
			}
		}
	}
}

// TestSumRefusals checks that a ciphertext outside [0, n²) is refused and
// leaves the sum as it was, that an empty sum reads as 1 (E[0] with unit
// randomness), and that a sum stays open after a read-out.
func TestSumRefusals(t *testing.T) {
	key := testKey(t, 64)
	pk := key.Public()
	cts := residues(testRNG(5), pk, 4)
	s, scratch := &pk.NewSums(1)[0], pk.SumScratch()
	if got := s.Ciphertext(scratch); got.C.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("empty sum reads %v, want 1", got.C)
	}
	for i, c := range cts[:2] {
		if err := s.Add(c, scratch); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	for name, tc := range map[string]struct {
		c    *Ciphertext
		want error
	}{
		"nil ciphertext":  {nil, ErrCiphertextNil},
		"nil value":       {&Ciphertext{}, ErrCiphertextNil},
		"n^2":             {&Ciphertext{C: pk.N2}, ErrWrongKey},
		"negative":        {&Ciphertext{C: big.NewInt(-3)}, ErrWrongKey},
		"wider than n^2":  {&Ciphertext{C: new(big.Int).Lsh(pk.N2, 70)}, ErrWrongKey},
		"n^2 + a residue": {&Ciphertext{C: new(big.Int).Add(pk.N2, cts[2].C)}, ErrWrongKey},
	} {
		if err := s.Add(tc.c, scratch); !errors.Is(err, tc.want) {
			t.Errorf("%s: Add error %v, want %v", name, err, tc.want)
		}
	}
	if got, want := s.Ciphertext(scratch), mulModChain(pk, cts[:2]); got.C.Cmp(want) != 0 {
		t.Fatalf("after refusals the sum reads %v, want %v", got.C, want)
	}
	for _, c := range cts[2:] {
		if err := s.Add(c, scratch); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Ciphertext(scratch), mulModChain(pk, cts); got.C.Cmp(want) != 0 {
		t.Fatalf("a sum read out and folded on reads %v, want %v", got.C, want)
	}
	// A relay's key, loaded from its file, sums without building the
	// blinding table; a key assembled by hand without a holder sums alike,
	// and one whose modulus is even has no context and refuses.
	var loaded PublicKey
	if b, err := pk.MarshalJSON(); err != nil || loaded.UnmarshalJSON(b) != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if got := sumOf(t, &loaded, cts); got.C.Cmp(mulModChain(pk, cts)) != 0 || loaded.pre.blind != nil {
		t.Fatalf("loaded key sums to %v (blinding table built: %v)", got.C, loaded.pre.blind != nil)
	}
	bare := &PublicKey{N: pk.N, N2: pk.N2, G: pk.G}
	if got := sumOf(t, bare, cts); got.C.Cmp(mulModChain(pk, cts)) != 0 {
		t.Fatalf("hand-assembled key sums to %v", got.C)
	}
	even := &PublicKey{N: big.NewInt(1 << 20), N2: big.NewInt(1 << 40)}
	es, escratch := &even.NewSums(1)[0], even.SumScratch()
	if err := es.Add(&Ciphertext{C: big.NewInt(3)}, escratch); !errors.Is(err, ErrInvalidKeyPair) {
		t.Fatalf("even modulus: Add error %v, want ErrInvalidKeyPair", err)
	}
	if got := es.Ciphertext(escratch); got.C.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("even modulus: the refused sum reads %v, want 1", got.C)
	}
}

// FuzzSum folds a run of residues under a 256-bit key and checks the read-
// out against the Mul+Mod chain, with an out-of-range value refused in the
// middle of the run.
func FuzzSum(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(0))
	f.Add(int64(2), uint16(64), uint16(3))
	f.Add(int64(3), uint16(65), uint16(64))
	f.Add(int64(4), uint16(300), uint16(299))
	f.Fuzz(func(t *testing.T, seed int64, k, bad uint16) {
		pk := &foldKey().PublicKey
		n := 1 + int(k)%512
		cts := residues(testRNG(seed), pk, n)
		s, scratch := &pk.NewSums(1)[0], pk.SumScratch()
		for i, c := range cts {
			if i == int(bad)%n {
				out := &Ciphertext{C: new(big.Int).Add(pk.N2, c.C)}
				if err := s.Add(out, scratch); !errors.Is(err, ErrWrongKey) {
					t.Fatalf("Add of n² + c: %v, want ErrWrongKey", err)
				}
			}
			if err := s.Add(c, scratch); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := s.Ciphertext(scratch), mulModChain(pk, cts); got.C.Cmp(want) != 0 {
			t.Fatalf("%d residues: Sum %v, chain %v", n, got.C, want)
		}
	})
}

// BenchmarkPaillierSum times one fold of a 64-ciphertext run, a relay
// batch, at 512 and 2048 bits: Sum (one Montgomery product per Add, the
// read-out's correction spread over the run) against the Mul+Mod chain.
func BenchmarkPaillierSum(b *testing.B) {
	for _, bits := range []int{512, 2048} {
		key, err := GenerateKey(testRNG(int64(bits)), bits)
		if err != nil {
			b.Fatal(err)
		}
		pk := key.Public()
		cts := residues(testRNG(1), pk, 64)
		b.Run(fmt.Sprintf("%d/sum", bits), func(b *testing.B) {
			scratch := pk.SumScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := &pk.NewSums(1)[0]
				for _, c := range cts {
					if err := s.Add(c, scratch); err != nil {
						b.Fatal(err)
					}
				}
				sink = s.Ciphertext(scratch).C
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cts))/1e3, "µs/fold")
		})
		b.Run(fmt.Sprintf("%d/mulmod", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = mulModChain(pk, cts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cts))/1e3, "µs/fold")
		})
	}
}

// sink keeps the benchmarks' results alive.
var sink *big.Int
