package protocol

import (
	"context"
	"math/big"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/perm"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// encryptSeq encrypts a signed sequence under pk.
func encryptSeq(t *testing.T, pk *paillier.PublicKey, vals []int64) []*paillier.Ciphertext {
	t.Helper()
	seq := make([]*big.Int, len(vals))
	for i, v := range vals {
		seq[i] = big.NewInt(v)
	}
	out, err := pk.EncryptSignedVector(testRNG(55), seq)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// encryptShares encrypts the plaintext share sequences as the servers hold
// them entering Alg. 2: S1 holds E_pk2[a], the sequences back to back, S2
// holds E_pk1[b] per sequence.
func encryptShares(t *testing.T, keys *Keys, aSeqs, bSeqs [][]int64) ([]*paillier.Ciphertext, [][]*paillier.Ciphertext) {
	t.Helper()
	var encA []*paillier.Ciphertext
	for _, vals := range aSeqs {
		encA = append(encA, encryptSeq(t, keys.S2Paillier.Public(), vals)...)
	}
	encB := make([][]*paillier.Ciphertext, len(bSeqs))
	for s, vals := range bSeqs {
		encB[s] = encryptSeq(t, keys.S1Paillier.Public(), vals)
	}
	return encA, encB
}

// runBlindPermute executes Alg. 2 directly over an in-memory pair for the
// given plaintext share sequences, returning both results.
func runBlindPermute(t *testing.T, cfg Config, keys *Keys, aSeqs, bSeqs [][]int64) (*bpResult, *bpResult) {
	t.Helper()
	encA, encB := encryptShares(t, keys, aSeqs, bSeqs)
	connA, connB := transport.Pair()
	defer connA.Close()
	defer connB.Close()
	return runBlindPermuteOn(t, cfg, keys, connA, connB, encA, encB)
}

// runBlindPermuteOn executes Alg. 2 over the given link ends.
func runBlindPermuteOn(t *testing.T, cfg Config, keys *Keys, connA, connB transport.Conn,
	encA []*paillier.Ciphertext, encB [][]*paillier.Ciphertext) (*bpResult, *bpResult) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type s1res struct {
		r   *bpResult
		err error
	}
	ch := make(chan s1res, 1)
	go func() {
		r, err := blindPermuteS1(ctx, &lockedReader{r: testRNG(56)}, cfg, keys.ForS1(), connA, encA, len(encB))
		ch <- s1res{r, err}
	}()
	r2, err := blindPermuteS2(ctx, &lockedReader{r: testRNG(57)}, cfg, keys.ForS2(), connB, encB, cfg.Users)
	if err != nil {
		t.Fatalf("blindPermuteS2: %v", err)
	}
	r1 := <-ch
	if r1.err != nil {
		t.Fatalf("blindPermuteS1: %v", r1.err)
	}
	return r1.r, r2
}

// Blind-and-Permute correctness: undoing the combined permutation and the
// common bias must recover the original share sums, and both output pairs
// must share the same permutation and bias.
func TestBlindPermuteIdentity(t *testing.T) {
	cfg := testConfig(3)
	keys, err := GenerateKeys(testRNG(50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two sequence pairs, as in Alg. 5 step 3. c = a + b per class.
	aSeqs := [][]int64{{10, -20, 30, 5}, {100, 200, -300, 7}}
	bSeqs := [][]int64{{1, 2, 3, 4}, {-50, 60, 70, 80}}

	r1, r2 := runBlindPermute(t, cfg, keys, aSeqs, bSeqs)
	if len(r1.Plain) != 2 || len(r2.Plain) != 2 {
		t.Fatalf("expected 2 output sequences each, got %d/%d", len(r1.Plain), len(r2.Plain))
	}

	pi, err := r1.Pi.Compose(r2.Pi)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		// Sum the two servers' outputs: pi(a + r) + pi(b + r) = pi(c + 2r).
		summed := make([]*big.Int, cfg.Classes)
		for p := 0; p < cfg.Classes; p++ {
			summed[p] = new(big.Int).Add(r1.Plain[s][p], r2.Plain[s][p])
		}
		unpermuted, err := pi.ApplyInverse(summed)
		if err != nil {
			t.Fatal(err)
		}
		// The bias 2r is constant across the sequence: subtract it via
		// position 0 and compare against c.
		c0 := aSeqs[s][0] + bSeqs[s][0]
		bias := new(big.Int).Sub(unpermuted[0], big.NewInt(c0))
		if bias.Sign() < 0 {
			t.Fatalf("sequence %d: negative bias %v (masks must be non-negative)", s, bias)
		}
		for i := 0; i < cfg.Classes; i++ {
			want := new(big.Int).Add(big.NewInt(aSeqs[s][i]+bSeqs[s][i]), bias)
			if unpermuted[i].Cmp(want) != 0 {
				t.Errorf("sequence %d class %d: got %v, want %v", s, i, unpermuted[i], want)
			}
		}
	}

	// Pairwise differences on each server's own output must equal the
	// true share differences (the property the DGK comparison relies on).
	for s := 0; s < 2; s++ {
		for p := 0; p < cfg.Classes; p++ {
			for q := 0; q < cfg.Classes; q++ {
				i, err := pi.Preimage(p)
				if err != nil {
					t.Fatal(err)
				}
				j, err := pi.Preimage(q)
				if err != nil {
					t.Fatal(err)
				}
				d1 := new(big.Int).Sub(r1.Plain[s][p], r1.Plain[s][q])
				if d1.Cmp(big.NewInt(aSeqs[s][i]-aSeqs[s][j])) != 0 {
					t.Fatalf("S1 difference (%d,%d) does not cancel the bias", p, q)
				}
				d2 := new(big.Int).Sub(r2.Plain[s][p], r2.Plain[s][q])
				if d2.Cmp(big.NewInt(bSeqs[s][i]-bSeqs[s][j])) != 0 {
					t.Fatalf("S2 difference (%d,%d) does not cancel the bias", p, q)
				}
			}
		}
	}
}

func TestBlindPermuteRejectsBadLengths(t *testing.T) {
	cfg := testConfig(2)
	keys, err := GenerateKeys(testRNG(51), cfg)
	if err != nil {
		t.Fatal(err)
	}
	connA, _ := transport.Pair()
	defer connA.Close()
	short := encryptSeq(t, keys.S2Paillier.Public(), []int64{1})
	if _, err := blindPermuteS1(context.Background(), testRNG(52), cfg, keys.ForS1(), connA, short, 1); err == nil {
		t.Fatal("expected length error")
	}
}

// Restoration correctness: for every permuted index, Alg. 3 recovers the
// original class index at both servers.
func TestRestorationRoundTrip(t *testing.T) {
	cfg := testConfig(3)
	keys, err := GenerateKeys(testRNG(53), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pi1, err := perm.New(testRNG(54), cfg.Classes)
	if err != nil {
		t.Fatal(err)
	}
	pi2, err := perm.New(testRNG(58), cfg.Classes)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := pi1.Compose(pi2)
	if err != nil {
		t.Fatal(err)
	}

	for label := 0; label < cfg.Classes; label++ {
		permutedIdx, err := pi.Image(label)
		if err != nil {
			t.Fatal(err)
		}
		connA, connB := transport.Pair()
		got1, got2 := runRestoration(t, cfg, keys, connA, connB, pi1, pi2, permutedIdx)
		connA.Close()
		connB.Close()
		if got2 != label || got1 != label {
			t.Errorf("restoration of label %d: S1=%d S2=%d", label, got1, got2)
		}
	}
}

// runRestoration executes Alg. 3 over the given link ends for the permuted
// winning position, returning the label each server restored.
func runRestoration(t *testing.T, cfg Config, keys *Keys, connA, connB transport.Conn,
	pi1, pi2 perm.Permutation, permutedIdx int) (int, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type res struct {
		label int
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		l, err := restoreS1(ctx, &lockedReader{r: testRNG(59)}, cfg, keys.ForS1(), connA, pi1)
		ch <- res{l, err}
	}()
	got2, err := restoreS2(ctx, &lockedReader{r: testRNG(60)}, cfg, keys.ForS2(), connB, pi2, permutedIdx)
	if err != nil {
		t.Fatalf("restoreS2(position %d): %v", permutedIdx, err)
	}
	r1 := <-ch
	if r1.err != nil {
		t.Fatalf("restoreS1(position %d): %v", permutedIdx, r1.err)
	}
	return r1.label, got2
}

func TestRestorationRejectsBadIndex(t *testing.T) {
	cfg := testConfig(2)
	keys, err := GenerateKeys(testRNG(61), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, connB := transport.Pair()
	defer connB.Close()
	pi2 := perm.Identity(cfg.Classes)
	if _, err := restoreS2(context.Background(), testRNG(62), cfg, keys.ForS2(), connB, pi2, cfg.Classes); err == nil {
		t.Fatal("expected index range error")
	}
	if _, err := restoreS2(context.Background(), testRNG(63), cfg, keys.ForS2(), connB, pi2, -1); err == nil {
		t.Fatal("expected index range error")
	}
}

// The full protocol also runs over real TCP sockets.
func TestFullProtocolOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP protocol run is slow in -short mode")
	}
	cfg := testConfig(3)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.5
	keys, err := GenerateKeys(testRNG(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 1),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 65)
	s1Subs := make([]SubmissionHalf, len(subs))
	s2Subs := make([]SubmissionHalf, len(subs))
	for i, s := range subs {
		s1Subs[i] = s.ToS1
		s2Subs[i] = s.ToS2
	}

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type res struct {
		out *Outcome
		err error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		defer conn.Close()
		out, err := RunS1(ctx, testRNG(66), cfg, keys.ForS1(), conn, s1Subs, nil)
		ch <- res{out, err}
	}()

	conn, err := transport.Dial(ctx, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out2, err := RunS2(ctx, testRNG(67), cfg, keys.ForS2(), conn, s2Subs, nil)
	if err != nil {
		t.Fatalf("RunS2 over TCP: %v", err)
	}
	r1 := <-ch
	if r1.err != nil {
		t.Fatalf("RunS1 over TCP: %v", r1.err)
	}
	if *r1.out != *out2 {
		t.Fatalf("servers disagree over TCP: %+v vs %+v", r1.out, out2)
	}
	if !out2.Consensus || out2.Label != 3 {
		t.Fatalf("TCP outcome %+v, want consensus on 3", out2)
	}
}
