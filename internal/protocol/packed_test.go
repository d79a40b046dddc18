package protocol

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/pate"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// packedTestConfig returns a packing-feasible test configuration: the
// 64-bit toy Paillier keys of testConfig cannot hold even one slot, so
// packed tests run with 256-bit keys.
func packedTestConfig(users int) Config {
	cfg := testConfig(users)
	cfg.PaillierBits = 256
	cfg.Packing = true
	return cfg
}

func TestPackedConfigValidation(t *testing.T) {
	cfg := DefaultConfig(5) // kappa=40: slot width ~87 bits
	cfg.Packing = true      // cannot fit a single slot in 64-bit keys
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted packing with 64-bit Paillier keys")
	}
	cfg = packedTestConfig(5)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected feasible packed config: %v", err)
	}
	if s := cfg.packedSlotsPerPlaintext(); s < 2 {
		t.Fatalf("packedSlotsPerPlaintext = %d, want >= 2 at 256 bits", s)
	}
	if p := cfg.PackedCiphertexts(); p >= cfg.Classes {
		t.Fatalf("PackedCiphertexts = %d, want < Classes %d", p, cfg.Classes)
	}
	// Slot width must cover the worst-case blinded sum: sum bits plus
	// kappa blinding bits plus a carry guard.
	if w := cfg.PackedWidth(); w != cfg.packedSumBits()+cfg.Kappa+1 {
		t.Fatalf("PackedWidth = %d, want sumBits+kappa+1 = %d", w, cfg.packedSumBits()+cfg.Kappa+1)
	}
}

func TestPackedBuildSubmissionShape(t *testing.T) {
	cfg := packedTestConfig(5)
	keys, err := GenerateKeys(testRNG(70), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := BuildSubmission(testRNG(71), testRNG(72), cfg, 0,
		oneHotVotes(cfg.Classes, 1), keys.S1Paillier.Public(), keys.S2Paillier.Public())
	if err != nil {
		t.Fatalf("BuildSubmission: %v", err)
	}
	p := cfg.PackedCiphertexts()
	for name, vec := range map[string][]int{
		"ToS1": {len(sub.ToS1.Votes), len(sub.ToS1.Thresh), len(sub.ToS1.Noisy)},
		"ToS2": {len(sub.ToS2.Votes), len(sub.ToS2.Thresh), len(sub.ToS2.Noisy)},
	} {
		for i, n := range vec {
			if n != p {
				t.Fatalf("%s vector %d has %d ciphertexts, want %d", name, i, n, p)
			}
		}
	}
	// Hostile inputs are rejected before any packing happens.
	bad := oneHotVotes(cfg.Classes, 1)
	bad[0] = big.NewInt(VoteScale + 1)
	if _, _, err := BuildSubmission(testRNG(73), testRNG(74), cfg, 0, bad,
		keys.S1Paillier.Public(), keys.S2Paillier.Public()); err == nil {
		t.Fatal("BuildSubmission accepted out-of-range vote in packed mode")
	}
}

func TestPackedProtocolConsensusNoNoise(t *testing.T) {
	cfg := packedTestConfig(5)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.6
	keys, err := GenerateKeys(testRNG(75), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 0),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 76)
	out1, out2 := runInstance(t, cfg, keys, subs, nil)
	if *out1 != *out2 {
		t.Fatalf("servers disagree: %+v vs %+v", out1, out2)
	}
	if !out1.Consensus || out1.Label != 2 {
		t.Fatalf("outcome = %+v, want consensus on label 2", out1)
	}
}

// Differential: identical vote/noise draws must yield identical outcomes
// packed and unpacked (at the same key size, so only packing differs).
func TestPackedMatchesUnpackedOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs are slow in -short mode")
	}
	for trial := 0; trial < 3; trial++ {
		base := packedTestConfig(4)
		base.Sigma1, base.Sigma2 = 2.0, 1.5
		base.ThresholdFrac = 0.5
		keys, err := GenerateKeys(testRNG(int64(80+trial)), base)
		if err != nil {
			t.Fatal(err)
		}
		votes := make([][]*big.Int, base.Users)
		voteRng := rand.New(rand.NewSource(int64(90 + trial)))
		for u := range votes {
			votes[u] = oneHotVotes(base.Classes, voteRng.Intn(base.Classes))
		}

		packedCfg := base
		plainCfg := base
		plainCfg.Packing = false

		// Same build seeds: the share splits and noise draws happen before
		// encryption, so both modes carry identical plaintext contributions.
		packedSubs, discs := buildAll(t, packedCfg, keys, votes, int64(100+trial))
		plainSubs, _ := buildAll(t, plainCfg, keys, votes, int64(100+trial))

		aggVotes, _, z2, err := AggregateDisclosures(discs)
		if err != nil {
			t.Fatal(err)
		}
		// Skip draws whose noisy maxima tie: permuted tie-breaking then
		// legitimately differs between the two runs' permutations.
		noisy := make([]*big.Int, base.Classes)
		for i := range noisy {
			noisy[i] = new(big.Int).Add(aggVotes[i], new(big.Int).Lsh(z2[i], 1))
		}
		iStar := argmaxBig(noisy)
		unique := true
		for i, v := range noisy {
			if i != iStar && v.Cmp(noisy[iStar]) == 0 {
				unique = false
			}
		}
		vStar := argmaxBig(aggVotes)
		for i, v := range aggVotes {
			if i != vStar && v.Cmp(aggVotes[vStar]) == 0 {
				unique = false
			}
		}
		if !unique {
			continue
		}

		packedOut1, packedOut2 := runInstance(t, packedCfg, keys, packedSubs, nil)
		plainOut1, plainOut2 := runInstance(t, plainCfg, keys, plainSubs, nil)
		if *packedOut1 != *packedOut2 {
			t.Fatalf("trial %d: packed servers disagree: %+v vs %+v", trial, packedOut1, packedOut2)
		}
		if *plainOut1 != *plainOut2 {
			t.Fatalf("trial %d: unpacked servers disagree: %+v vs %+v", trial, plainOut1, plainOut2)
		}
		if *packedOut1 != *plainOut1 {
			t.Fatalf("trial %d: packed outcome %+v != unpacked outcome %+v", trial, packedOut1, plainOut1)
		}
	}
}

// Packing × partial participation: quorum-miss subsets (with the δ
// threshold correction they trigger) decide identically packed and
// unpacked.
func TestPackedPartialParticipationMatchesUnpacked(t *testing.T) {
	base := packedTestConfig(6)
	base.Sigma1, base.Sigma2 = 0, 0
	base.ThresholdFrac = 0.6
	keys, err := GenerateKeys(testRNG(110), base)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{
		oneHotVotes(base.Classes, 1),
		oneHotVotes(base.Classes, 3), // dropped
		oneHotVotes(base.Classes, 1),
		oneHotVotes(base.Classes, 1),
		oneHotVotes(base.Classes, 3), // dropped
		oneHotVotes(base.Classes, 0),
	}
	plainCfg := base
	plainCfg.Packing = false
	packedSubs, _ := buildAll(t, base, keys, votes, 111)
	plainSubs, _ := buildAll(t, plainCfg, keys, votes, 111)

	for _, participants := range [][]int{{0, 2, 3, 5}, {0, 2, 3}, {2, 5}} {
		packedOut, packedOut2 := runInstance(t, base, keys, maskSubmissions(packedSubs, participants), nil)
		plainOut, _ := runInstance(t, plainCfg, keys, maskSubmissions(plainSubs, participants), nil)
		if *packedOut != *packedOut2 {
			t.Fatalf("participants %v: packed servers disagree: %+v vs %+v", participants, packedOut, packedOut2)
		}
		if *packedOut != *plainOut {
			t.Fatalf("participants %v: packed %+v != unpacked %+v", participants, packedOut, plainOut)
		}
		if packedOut.Participants != len(participants) {
			t.Fatalf("participants %v: recorded %d", participants, packedOut.Participants)
		}
	}
}

// At the paper's C=10 with production-size keys, packing must cut the
// per-user upload by >= 4x and the encryption count by >= 2x.
func TestPackedSubmissionSizeReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-bit key generation is slow in -short mode")
	}
	cfg := DefaultConfig(10)
	cfg.PaillierBits = 1024
	cfg.Packing = true
	plainCfg := cfg
	plainCfg.Packing = false
	keys, err := GenerateKeys(testRNG(120), cfg)
	if err != nil {
		t.Fatal(err)
	}
	packedSub, _, err := BuildSubmission(testRNG(121), testRNG(122), cfg, 0,
		oneHotVotes(cfg.Classes, 1), keys.S1Paillier.Public(), keys.S2Paillier.Public())
	if err != nil {
		t.Fatal(err)
	}
	plainSub, _, err := BuildSubmission(testRNG(121), testRNG(122), plainCfg, 0,
		oneHotVotes(cfg.Classes, 1), keys.S1Paillier.Public(), keys.S2Paillier.Public())
	if err != nil {
		t.Fatal(err)
	}
	packedBytes := SubmissionBytes(packedSub.ToS1) + SubmissionBytes(packedSub.ToS2)
	plainBytes := SubmissionBytes(plainSub.ToS1) + SubmissionBytes(plainSub.ToS2)
	if packedBytes*4 > plainBytes {
		t.Fatalf("packed upload %d bytes, unpacked %d: less than 4x smaller", packedBytes, plainBytes)
	}
	packedCts := len(packedSub.ToS1.Votes) + len(packedSub.ToS1.Thresh) + len(packedSub.ToS1.Noisy) +
		len(packedSub.ToS2.Votes) + len(packedSub.ToS2.Thresh) + len(packedSub.ToS2.Noisy)
	plainCts := 6 * cfg.Classes
	if packedCts*2 > plainCts {
		t.Fatalf("packed submission uses %d encryptions, unpacked %d: less than 2x fewer", packedCts, plainCts)
	}
}

// The fused Blind-and-Permute step 1 adds r1 < 2^kappa to every slot of a
// packed aggregate. At every participant count — in particular on both
// sides of each step of packedSumBits, where the slot width changes — the
// worst case (every user at the per-slot maximum, r1 at its maximum, all
// neighbours equally full) must stay inside its slot.
func TestPackedFusedMaskNeverCarries(t *testing.T) {
	for _, users := range []int{1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 1000} {
		cfg := packedTestConfig(users)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("users=%d: %v", users, err)
		}
		layout := cfg.packedLayout()
		top := make([]*big.Int, cfg.Classes) // largest value Pack accepts
		for j := range top {
			top[j] = new(big.Int).Sub(layout.Bias, big.NewInt(1))
		}
		packed, err := layout.Pack(top)
		if err != nil {
			t.Fatalf("users=%d: Pack: %v", users, err)
		}
		r1 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(cfg.Kappa)), big.NewInt(1))
		masks, err := r1Masks(cfg, r1)
		if err != nil {
			t.Fatalf("users=%d: r1Masks: %v", users, err)
		}
		for i := range packed {
			packed[i].Mul(packed[i], big.NewInt(int64(users))) // sum of `users` identical plaintexts
			packed[i].Add(packed[i], masks[i])
			if packed[i].BitLen() > cfg.PaillierBits-2 {
				t.Fatalf("users=%d: masked aggregate needs %d bits, plaintext space has %d", users, packed[i].BitLen(), cfg.PaillierBits-2)
			}
		}
		slots, err := layout.Split(packed)
		if err != nil {
			t.Fatalf("users=%d: Split: %v", users, err)
		}
		want := new(big.Int).Sub(layout.Max, big.NewInt(1))
		want.Mul(want, big.NewInt(int64(users)))
		want.Add(want, r1)
		for j, v := range slots {
			if v.Cmp(want) != 0 {
				t.Fatalf("users=%d: slot %d = %v after masking, want %v (carry between slots)", users, j, v, want)
			}
		}
	}
}

// Seeded outcome parity of the packed path — fused Blind-and-Permute step 1
// plus the two-frame unpack of S2's half — against pate's plaintext rule
// (Alg. 1), with zero noise so the rule is the expected answer. Covers
// participant subsets (rescaled threshold and the delta correction), tied
// maxima (any tied class may win: the crypto path breaks ties by permuted
// position), votes exactly at the threshold, and user counts on both sides
// of a slot-width step.
func TestPackedFusedMatchesPlaintextRule(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs are slow in -short mode")
	}
	for _, users := range []int{4, 7, 8} {
		cfg := packedTestConfig(users)
		cfg.Sigma1, cfg.Sigma2 = 0, 0
		cfg.ThresholdFrac = 0.5 // exact in binary: the float rule and the integer threshold agree at equality
		keys, err := GenerateKeys(testRNG(int64(200+users)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(300 + users)))
		for trial := 0; trial < 5; trial++ {
			// Trial 0 splits everyone over two labels (at even user counts
			// a tie sitting exactly on the threshold), trial 1 spreads them
			// over all four (no consensus); the rest draw three live labels
			// and a random participant subset.
			labels := make([]int, users)
			for u := range labels {
				switch trial {
				case 0:
					labels[u] = u % 2
				case 1:
					labels[u] = u % cfg.Classes
				default:
					labels[u] = rng.Intn(3)
				}
			}
			var participants []int
			for u := 0; u < users; u++ {
				if trial < 2 || rng.Intn(4) > 0 {
					participants = append(participants, u)
				}
			}
			if len(participants) == 0 {
				participants = []int{0}
			}
			votes := make([][]*big.Int, users)
			for u := range votes {
				votes[u] = oneHotVotes(cfg.Classes, labels[u])
			}
			counts := make([]float64, cfg.Classes)
			for _, u := range participants {
				counts[labels[u]]++
			}
			wantLabel, wantOK := pate.PlainLabeler{Threshold: cfg.ThresholdFrac * float64(len(participants))}.Label(nil, counts)

			subs, _ := buildAll(t, cfg, keys, votes, int64(400+10*users+trial))
			out1, out2 := runInstance(t, cfg, keys, maskSubmissions(subs, participants), nil)
			t.Logf("users=%d participants=%v counts=%v: %+v", users, participants, counts, out1)
			if *out1 != *out2 {
				t.Fatalf("users=%d trial=%d: servers disagree: %+v vs %+v", users, trial, out1, out2)
			}
			if out1.Consensus != wantOK || out1.Participants != len(participants) {
				t.Fatalf("users=%d trial=%d counts=%v participants=%v: outcome %+v, plaintext rule says consensus=%v",
					users, trial, counts, participants, out1, wantOK)
			}
			if wantOK && counts[out1.Label] != counts[wantLabel] {
				t.Fatalf("users=%d trial=%d counts=%v: released label %d is not a maximum (plaintext rule: %d)",
					users, trial, counts, out1.Label, wantLabel)
			}
		}
	}
}

// runHalves plays an S1-side and an S2-side function against each other
// over an in-memory pair, closing a side's conn when it fails so the peer
// unblocks, and returns both errors.
func runHalves(t *testing.T, s1, s2 func(ctx context.Context, conn transport.Conn) error) (err1, err2 error) {
	t.Helper()
	connA, connB := transport.Pair()
	defer connA.Close()
	defer connB.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch := make(chan error, 1)
	go func() {
		err := s1(ctx, connA)
		if err != nil {
			connA.Close()
		}
		ch <- err
	}()
	err2 = s2(ctx, connB)
	if err2 != nil {
		connB.Close()
	}
	return <-ch, err2
}

// A pair where only one side speaks the packed grammar must fail on the
// first frame — ErrPeerMismatch on the shape check or the transport's
// wrong-kind error — and never reach an output.
func TestPackedGrammarMismatchFails(t *testing.T) {
	packedCfg := packedTestConfig(3)
	plainCfg := packedCfg
	plainCfg.Packing = false
	keys, err := GenerateKeys(testRNG(130), packedCfg)
	if err != nil {
		t.Fatal(err)
	}
	pk1, pk2 := keys.S1Paillier.Public(), keys.S2Paillier.Public()
	perClass := func(pk *paillier.PublicKey) [][]*paillier.Ciphertext {
		return [][]*paillier.Ciphertext{encryptSeq(t, pk, []int64{5, 6, 7, 8})}
	}
	packedSeq := func(pk *paillier.PublicKey) [][]*paillier.Ciphertext {
		zero := make([]*big.Int, packedCfg.Classes)
		for j := range zero {
			zero[j] = new(big.Int)
		}
		plain, err := packedCfg.packedLayout().Pack(zero)
		if err != nil {
			t.Fatal(err)
		}
		cts, err := pk.EncryptVector(testRNG(131), plain)
		if err != nil {
			t.Fatal(err)
		}
		return [][]*paillier.Ciphertext{cts}
	}
	bpS1 := func(cfg Config, seqs [][]*paillier.Ciphertext) func(context.Context, transport.Conn) error {
		return func(ctx context.Context, conn transport.Conn) error {
			_, err := blindPermuteS1(ctx, &lockedReader{r: testRNG(132)}, cfg, keys.ForS1(), conn, seqs)
			return err
		}
	}
	bpS2 := func(cfg Config) func(context.Context, transport.Conn) error {
		return func(ctx context.Context, conn transport.Conn) error {
			_, err := blindPermuteS2(ctx, &lockedReader{r: testRNG(133)}, cfg, keys.ForS2(), conn, perClass(pk1), 1)
			return err
		}
	}

	// Packed S1 (P ciphertexts per sequence) against an unpacked S2.
	err1, err2 := runHalves(t, bpS1(packedCfg, packedSeq(pk2)), bpS2(plainCfg))
	if err1 == nil || !errors.Is(err2, ErrPeerMismatch) {
		t.Fatalf("packed S1 vs unpacked S2: err1 = %v, err2 = %v, want failure and ErrPeerMismatch", err1, err2)
	}
	// Unpacked S1 (K ciphertexts) against a packed S2.
	err1, err2 = runHalves(t, bpS1(plainCfg, perClass(pk2)), bpS2(packedCfg))
	if err1 == nil || !errors.Is(err2, ErrPeerMismatch) {
		t.Fatalf("unpacked S1 vs packed S2: err1 = %v, err2 = %v, want failure and ErrPeerMismatch", err1, err2)
	}
	// S2 opens the unpack round while S1, unpacked, is already in
	// Blind-and-Permute: S1 sees a ciphertext frame where step 2's
	// plaintexts belong, S2 a flagged batch where the re-encryptions belong.
	err1, err2 = runHalves(t, bpS1(plainCfg, perClass(pk2)),
		func(ctx context.Context, conn transport.Conn) error {
			_, err := unpackS2(ctx, testRNG(134), packedCfg, keys.ForS2(), conn, packedSeq(pk1), 1)
			return err
		})
	var wrongKind *transport.FatalError
	if !errors.As(err1, &wrongKind) || !errors.Is(err2, ErrPeerMismatch) {
		t.Fatalf("unpacked S1 vs unpacking S2: err1 = %v, err2 = %v, want wrong-kind and ErrPeerMismatch", err1, err2)
	}
}
