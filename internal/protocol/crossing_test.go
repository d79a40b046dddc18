package protocol

import (
	"context"
	"errors"
	"math/big"
	"slices"
	"testing"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/perm"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// crossLayoutHolds is the layout property behind every crossing: the largest
// and the smallest value that can cross — every user's share at the per-slot
// bound with three maximal kappa-bit masks on top, and every share at the
// negative bound with none — sit next to each other in every order and read
// back exactly, i.e. the offset keeps the smallest non-negative, the width
// holds the largest, and nothing carries between slots.
func crossLayoutHolds(t *testing.T, cfg Config) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	layout := cfg.crossLayout()
	if layout.Slots*layout.Width > cfg.PaillierBits-2 {
		t.Fatalf("users=%d kappa=%d: %d slots of %d bits exceed %d-bit plaintexts", cfg.Users, cfg.Kappa, layout.Slots, layout.Width, cfg.PaillierBits)
	}
	if got, want := cfg.crossLen(2), 2*((cfg.Classes+layout.Slots-1)/layout.Slots); got != want {
		t.Fatalf("users=%d kappa=%d: two sequences cross in %d ciphertexts, want %d (never a shared one)", cfg.Users, cfg.Kappa, got, want)
	}
	share := new(big.Int).Lsh(big.NewInt(1), uint(cfg.packedBiasBits()))
	share.Sub(share, big.NewInt(1)) // packedSlotBound() < 2^biasBits
	lo := new(big.Int).Mul(big.NewInt(int64(-cfg.Users)), share)
	mask := new(big.Int).Lsh(big.NewInt(1), uint(cfg.Kappa))
	mask.Sub(mask, big.NewInt(1))
	hi := new(big.Int).Neg(lo)
	hi.Add(hi, new(big.Int).Mul(big.NewInt(3), mask))
	for phase := 0; phase < 2; phase++ {
		values := make([]*big.Int, layout.Count)
		for j := range values {
			values[j] = []*big.Int{lo, hi}[(j+phase)%2]
		}
		packed, err := layout.Pack(values)
		if err != nil {
			t.Fatalf("users=%d kappa=%d: extreme values leave their slots: %v", cfg.Users, cfg.Kappa, err)
		}
		slots, err := layout.Split(packed)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range slots {
			if v.Sub(v, layout.Bias).Cmp(values[j]) != 0 {
				t.Fatalf("users=%d kappa=%d: slot %d reads %v, want %v (carry between slots)", cfg.Users, cfg.Kappa, j, v, values[j])
			}
		}
	}
}

// The crossing layout never carries at either kappa bound of the test and
// bench shapes, on both sides of a slot-width step and at the capacity
// edges: 512-bit keys hold exactly K = 10 slots at 10 users and one fewer at
// 120, so the sequence spills into a second ciphertext.
func TestCrossLayoutNeverCarries(t *testing.T) {
	for _, kappa := range []int{8, 40} {
		for _, bits := range []int{512, 2048} {
			for _, users := range []int{1, 10, 15, 16, 120, 8191, 8192} {
				cfg := layoutConfig(10, users, bits)
				cfg.Kappa = kappa
				crossLayoutHolds(t, cfg)
			}
		}
	}
	// The numbers the docs quote, at kappa = 40: a crossing slot is 49/52
	// bits at 10/120 users against the packed submission's 88/91.
	for _, c := range []struct{ users, bits, width, slots, perSeq int }{
		{10, 2048, 49, 41, 1}, {120, 2048, 52, 39, 1}, {10, 512, 49, 10, 1}, {120, 512, 52, 9, 2},
	} {
		cfg := layoutConfig(10, c.users, c.bits)
		l := cfg.crossLayout()
		if l.Width != c.width || l.Slots != c.slots || cfg.crossLen(1) != c.perSeq || l.Width != cfg.packedSumBits()+2 {
			t.Fatalf("users=%d bits=%d: width/slots/ciphertexts = %d/%d/%d, want %d/%d/%d", c.users, c.bits, l.Width, l.Slots, cfg.crossLen(1), c.width, c.slots, c.perSeq)
		}
	}
	// Packing off, or a modulus with room for one slot only: one ciphertext
	// per class carrying the signed residue, the paper's frames.
	for _, cfg := range []Config{testConfig(3), DefaultConfig(10), func() Config { c := layoutConfig(10, 10, 2048); c.Packing = false; return c }()} {
		if l := cfg.crossLayout(); l.Slots != 1 || l.Bias.Sign() != 0 || cfg.crossLen(2) != 2*cfg.Classes {
			t.Fatalf("%+v: lone-slot layout expected, got %+v", cfg, l)
		}
	}
}

// sentConn records the values of every frame its owner sends.
type sentConn struct {
	transport.Conn
	sent [][]*big.Int
}

func (c *sentConn) Send(ctx context.Context, msg *transport.Message) error {
	c.sent = append(c.sent, slices.Clone(msg.Values))
	return c.Conn.Send(ctx, msg)
}

// blindingFactor is what a key owner can compute from any ciphertext under
// its key: decrypt to m and divide g^m out, c·(1+n)^(-m) = c·(1-mn) mod n²,
// leaving the n-th residue the ciphertext was blinded with.
func blindingFactor(t *testing.T, sk *paillier.PrivateKey, c *big.Int) *big.Int {
	t.Helper()
	m, err := sk.Decrypt(&paillier.Ciphertext{C: c})
	if err != nil {
		t.Fatal(err)
	}
	f := m.Mul(m, sk.N)
	f.Sub(big.NewInt(1), f)
	f.Mul(f, c)
	return f.Mod(f, sk.N2)
}

// assertUnlinkable fails if the blinding factor of any ciphertext the owner
// received for one sequence is a product the owner can form from the factors
// it knows went in (one per class, in some order): for a received ciphertext
// holding m slots, the Horner fold of any m of the known factors in any
// order — at m = 1 simply any known factor. Exactly that would tell the
// owner which of its ciphertexts sits in which slot, i.e. the sender's
// permutation share.
func assertUnlinkable(t *testing.T, what string, cfg Config, sk *paillier.PrivateKey, received, known []*big.Int) {
	t.Helper()
	layout := cfg.crossLayout()
	if len(received) != layout.Plaintexts() || len(known) != cfg.Classes {
		t.Fatalf("%s: %d ciphertexts received for %d known factors, want %d for %d", what, len(received), len(known), layout.Plaintexts(), cfg.Classes)
	}
	shift := new(big.Int).Lsh(big.NewInt(1), uint(layout.Width))
	for i, c := range received {
		got := blindingFactor(t, sk, c)
		m := min(layout.Slots, cfg.Classes-i*layout.Slots)
		orders := 0
		var try func(acc *big.Int, used []bool, depth int)
		try = func(acc *big.Int, used []bool, depth int) {
			if depth == m {
				orders++
				if acc.Cmp(got) == 0 {
					t.Errorf("%s: ciphertext %d carries no randomness of the sender's: its blinding factor is a fold of the owner's known factors", what, i)
				}
				return
			}
			for j, f := range known {
				if used[j] {
					continue
				}
				// Top slot first, as the fold runs: acc^(2^W)·f.
				next := new(big.Int).Set(f)
				if depth > 0 {
					next.Exp(acc, shift, sk.N2)
					next.Mod(next.Mul(next, f), sk.N2)
				}
				used[j] = true
				try(next, used, depth+1)
				used[j] = false
			}
		}
		try(nil, make([]bool, len(known)), 0)
		if m == cfg.Classes && cfg.Classes == 4 && orders != 24 {
			t.Fatalf("%s: enumerated %d slot orders, want all 24", what, orders)
		}
	}
}

// TestCrossingsAreUnlinkable pins the defect the fold removes. Wherever a
// server hands the key owner's own ciphertexts back permuted with nothing
// but plaintext additions on top, the owner divides out the plaintext it
// decrypts and matches what is left against the nonces on its own random
// tape. The test plays that owner at all four crossings of Blind-and-Permute
// and Restoration, with Packing on (whole sequences folded, all 24 slot
// orders tried) and off (one ciphertext per class), treating as known every
// factor the owner drew itself — including, as after a packed unpack, the
// factors of S2's input ciphertexts, which S1 produced — and the factor of
// any ciphertext the peer is known to add on top (E[r1]).
func TestCrossingsAreUnlinkable(t *testing.T) {
	for name, cfg := range map[string]Config{"packing on": packedTestConfig(3), "packing off": testConfig(3)} {
		t.Run(name, func(t *testing.T) {
			keys, err := GenerateKeys(testRNG(70), cfg)
			if err != nil {
				t.Fatal(err)
			}
			k, sk1, sk2 := cfg.Classes, keys.S1Paillier, keys.S2Paillier
			factors := func(sk *paillier.PrivateKey, cts []*big.Int, times *big.Int) []*big.Int {
				out := make([]*big.Int, len(cts))
				for i, c := range cts {
					out[i] = blindingFactor(t, sk, c)
					out[i].Mod(out[i].Mul(out[i], times), sk.N2)
				}
				return out
			}
			one := big.NewInt(1)

			// Blind-and-Permute over two sequences.
			aSeqs := [][]int64{{10, -20, 30, 5}, {100, 200, -300, 7}}
			encA, encB := encryptShares(t, keys, aSeqs, [][]int64{{1, 2, 3, 4}, {-50, 60, 70, 80}})
			if cfg.Packing {
				encA = packedS1Group(t, cfg, keys, aSeqs)
			}
			rawA, rawB := transport.Pair()
			connA, connB := &sentConn{Conn: rawA}, &sentConn{Conn: rawB}
			runBlindPermuteOn(t, cfg, keys, connA, connB, encA, encB)
			rawA.Close()
			rawB.Close()
			if len(connA.sent) != 3 || len(connB.sent) != 2 {
				t.Fatalf("B&P: S1 sent %d frames, S2 %d, want 3 and 2", len(connA.sent), len(connB.sent))
			}
			encR1, step5 := connA.sent[1], connA.sent[2]
			step4 := connB.sent[1]
			p := cfg.crossLen(1)
			for s := range encB {
				in := make([]*big.Int, k)
				for i, c := range encB[s] {
					in[i] = c.C
				}
				// Step 4, read by S1: its own E[b] with its own E[r1] on top.
				assertUnlinkable(t, "B&P step 4", cfg, sk1, step4[s*p:(s+1)*p],
					factors(sk1, in, blindingFactor(t, sk1, encR1[s])))
				// Step 5, read by S2: its own E[-r3], permuted by pi1.
				negR3 := step4[2*p:][s*k : (s+1)*k]
				assertUnlinkable(t, "B&P step 5", cfg, sk2, step5[s*p:(s+1)*p], factors(sk2, negR3, one))
			}

			// Restoration.
			pi1, err := perm.New(testRNG(71), k)
			if err != nil {
				t.Fatal(err)
			}
			pi2, err := perm.New(testRNG(72), k)
			if err != nil {
				t.Fatal(err)
			}
			rawA, rawB = transport.Pair()
			connA, connB = &sentConn{Conn: rawA}, &sentConn{Conn: rawB}
			runRestoration(t, cfg, keys, connA, connB, pi1, pi2, 1)
			rawA.Close()
			rawB.Close()
			if len(connA.sent) != 3 || len(connB.sent) != 4 {
				t.Fatalf("restoration: S1 sent %d frames, S2 %d, want 3 and 4", len(connA.sent), len(connB.sent))
			}
			// Step 2, read by S2: its own one-hot encryptions, un-permuted by pi1.
			assertUnlinkable(t, "restoration step 2", cfg, sk2, connA.sent[0], factors(sk2, connB.sent[0], one))
			// Step 5, read by S1: its own re-encryptions, un-permuted by pi2.
			assertUnlinkable(t, "restoration step 5", cfg, sk1, connB.sent[2], factors(sk1, connA.sent[1], one))
		})
	}
}

// packedS1Group is S1's input to a packed Blind-and-Permute: the sequences in
// one slot stream under pk2, every slot carrying the Users-fold aggregate bias.
func packedS1Group(t *testing.T, cfg Config, keys *Keys, aSeqs [][]int64) []*paillier.Ciphertext {
	t.Helper()
	layout := cfg.packedLayout(len(aSeqs))
	bias := new(big.Int).Mul(big.NewInt(int64(cfg.Users)), layout.Bias)
	var stream []*big.Int
	for _, seq := range aSeqs {
		for _, v := range seq {
			stream = append(stream, new(big.Int).Add(big.NewInt(v), bias))
		}
	}
	packed, err := layout.PackRaw(stream)
	if err != nil {
		t.Fatal(err)
	}
	out, err := keys.S2Paillier.PublicKey.EncryptVector(testRNG(75), packed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A folded plaintext no honest sender produces is the peer's fault.
func TestOpenCrossingRefusesOverflow(t *testing.T) {
	cfg := packedTestConfig(3)
	keys, err := GenerateKeys(testRNG(73), cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := cfg.crossLayout()
	over, err := keys.S1Paillier.PublicKey.Encrypt(testRNG(74), new(big.Int).Lsh(big.NewInt(1), uint(cfg.Classes*layout.Width)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openCrossing(cfg, keys.S1Paillier, []*big.Int{over.C}, 1); !errors.Is(err, ErrPeerMismatch) {
		t.Fatalf("overflowing fold: %v, want ErrPeerMismatch", err)
	}
	if _, err := openCrossing(cfg, keys.S1Paillier, []*big.Int{over.C, over.C}, 1); !errors.Is(err, ErrPeerMismatch) {
		t.Fatalf("wrong ciphertext count: %v, want ErrPeerMismatch", err)
	}
}
