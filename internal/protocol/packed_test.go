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
	if s := cfg.PackedSlotsPerPlaintext(); s < 2 {
		t.Fatalf("PackedSlotsPerPlaintext = %d, want >= 2 at 256 bits", s)
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
	// 256-bit keys hold S=4 slots: the joint Votes‖Thresh group (2K=8
	// slots) spans two ciphertexts, Noisy one; Thresh travels inside Votes.
	want := [3]int{2, 0, 1}
	if got := cfg.HalfLens(); got != want {
		t.Fatalf("HalfLens = %v, want %v", got, want)
	}
	for name, h := range map[string]SubmissionHalf{"ToS1": sub.ToS1, "ToS2": sub.ToS2} {
		if h.Lens() != want {
			t.Fatalf("%s has %v ciphertexts, want %v", name, h.Lens(), want)
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
	out := runInstance(t, cfg, keys, subs, nil)
	if !out.Consensus || out.Label != 2 {
		t.Fatalf("outcome = %+v, want consensus on label 2", out)
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

		aggVotes, _, z2, err := aggregateDisclosures(discs)
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

		packedOut := runInstance(t, packedCfg, keys, packedSubs, nil)
		plainOut := runInstance(t, plainCfg, keys, plainSubs, nil)
		if *packedOut != *plainOut {
			t.Fatalf("trial %d: packed outcome %+v != unpacked outcome %+v", trial, packedOut, plainOut)
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
		packedOut := runInstance(t, base, keys, maskSubmissions(packedSubs, participants), nil)
		plainOut := runInstance(t, plainCfg, keys, maskSubmissions(plainSubs, participants), nil)
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

// jointLayoutHolds is the layout property behind both packed groups: for a
// group of nSeq sequences, the worst case — every user at the per-slot
// maximum, every neighbour equally full, and a distinct maximal-width mask
// per sequence added on top (r1 < 2^kappa in Blind-and-Permute step 1) —
// must round-trip through Pack / PackRaw / Split with every slot reading
// exactly users*max + mask of its own sequence, i.e. nothing carried.
func jointLayoutHolds(t testing.TB, cfg Config, nSeq int) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	k, users := cfg.Classes, cfg.Users
	layout := cfg.packedLayout(nSeq)
	if got, want := layout.Plaintexts(), cfg.packedGroup(nSeq); got != want {
		t.Fatalf("K=%d users=%d nSeq=%d: layout needs %d plaintexts, config says %d", k, users, nSeq, got, want)
	}
	top := make([]*big.Int, nSeq*k) // largest value Pack accepts
	masks := make([]*big.Int, nSeq*k)
	for j := range top {
		top[j] = new(big.Int).Sub(layout.Bias, big.NewInt(1))
		// Sequence s's mask: the largest kappa-bit value, minus s so a
		// mask written into the wrong sequence's slots is caught.
		masks[j] = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(cfg.Kappa)), big.NewInt(int64(1+j/k)))
	}
	packed, err := layout.Pack(top)
	if err != nil {
		t.Fatalf("K=%d users=%d nSeq=%d: Pack: %v", k, users, nSeq, err)
	}
	if back, err := layout.Split(packed); err != nil || back[len(back)-1].Cmp(new(big.Int).Sub(layout.Max, big.NewInt(1))) != 0 {
		t.Fatalf("K=%d users=%d nSeq=%d: single Pack/Split round trip: %v %v", k, users, nSeq, back, err)
	}
	raw, err := layout.PackRaw(masks)
	if err != nil {
		t.Fatalf("K=%d users=%d nSeq=%d: PackRaw: %v", k, users, nSeq, err)
	}
	for i := range packed {
		packed[i].Mul(packed[i], big.NewInt(int64(users))) // sum of `users` identical plaintexts
		packed[i].Add(packed[i], raw[i])
		if packed[i].BitLen() > cfg.PaillierBits-2 {
			t.Fatalf("K=%d users=%d nSeq=%d: masked aggregate needs %d bits, plaintext space has %d",
				k, users, nSeq, packed[i].BitLen(), cfg.PaillierBits-2)
		}
	}
	slots, err := layout.Split(packed)
	if err != nil {
		t.Fatalf("K=%d users=%d nSeq=%d: Split: %v", k, users, nSeq, err)
	}
	for j, v := range slots {
		want := new(big.Int).Sub(layout.Max, big.NewInt(1))
		want.Mul(want, big.NewInt(int64(users)))
		want.Add(want, masks[j])
		if v.Cmp(want) != 0 {
			t.Fatalf("K=%d users=%d nSeq=%d: slot %d = %v after masking, want %v (carry between slots)", k, users, nSeq, j, v, want)
		}
	}
}

// layoutConfig is a packed configuration at deployable kappa for the layout
// property: only the shape matters, no keys are generated.
func layoutConfig(classes, users, bits int) Config {
	cfg := DefaultConfig(users)
	cfg.Classes, cfg.PaillierBits, cfg.Packing = classes, bits, true
	cfg.DGK.L = 62 // room for 8,192 users; DGK plays no part in the layout
	return cfg
}

// The joint Votes‖Thresh group (Count = 2K) and the Noisy group (Count = K)
// never carry between slots: at every participant count — on both sides of
// each step of packedSumBits, where the slot width changes, up to the
// 8,191-user edge of the 97-bit slot — for K from 2 to 32, at 2048-bit keys
// (one ciphertext holds the whole group at K=10) and at key sizes where
// S < 2K, so the group spans several ciphertexts and Thresh starts mid-way.
func TestPackedFusedMaskNeverCarries(t *testing.T) {
	for _, users := range []int{1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 1000} {
		for nSeq := 1; nSeq <= 2; nSeq++ {
			jointLayoutHolds(t, packedTestConfig(users), nSeq)
		}
	}
	for _, bits := range []int{256, 1024, 2048} {
		for _, k := range []int{2, 4, 10, 32} {
			for _, users := range []int{1, 10, 120, 8000, 8191, 8192} {
				cfg := layoutConfig(k, users, bits)
				for nSeq := 1; nSeq <= 2; nSeq++ {
					jointLayoutHolds(t, cfg, nSeq)
				}
				if j, p := cfg.packedGroup(2), cfg.packedGroup(1); j < p || j > 2*p {
					t.Fatalf("bits=%d K=%d users=%d: joint group costs %d ciphertexts, outside [P, 2P] = [%d, %d]", bits, k, users, j, p, 2*p)
				}
			}
		}
	}
	// The numbers the docs quote: at kappa=40 and 2048-bit keys a slot is
	// 88/91/97 bits at 10/120/8,000 users, 23/22/21 of them fit, and the
	// C=10 joint group is one ciphertext — 4 per user instead of 6. At
	// 1024 bits only 11 slots fit and the joint group still costs two.
	for _, c := range []struct{ users, bits, width, slots, joint int }{
		{10, 2048, 88, 23, 1}, {120, 2048, 91, 22, 1}, {8000, 2048, 97, 21, 1}, {10, 1024, 88, 11, 2},
	} {
		cfg := layoutConfig(10, c.users, c.bits)
		if w, s, j := cfg.PackedWidth(), cfg.PackedSlotsPerPlaintext(), cfg.HalfLens()[0]; w != c.width || s != c.slots || j != c.joint {
			t.Fatalf("users=%d bits=%d: width/slots/joint = %d/%d/%d, want %d/%d/%d", c.users, c.bits, w, s, j, c.width, c.slots, c.joint)
		}
	}
}

// FuzzPackedJointLayout drives the same property from arbitrary shapes.
func FuzzPackedJointLayout(f *testing.F) {
	f.Add(uint8(10), uint16(120), uint16(2048), uint8(40))
	f.Add(uint8(4), uint16(5), uint16(256), uint8(24))
	f.Add(uint8(32), uint16(8191), uint16(1024), uint8(40))
	f.Fuzz(func(t *testing.T, classes uint8, users, bits uint16, kappa uint8) {
		cfg := layoutConfig(int(classes), int(users), int(bits))
		cfg.Kappa = int(kappa)
		if cfg.Validate() != nil {
			t.Skip() // infeasible shape: rejected up front, never laid out
		}
		for nSeq := 1; nSeq <= 2; nSeq++ {
			jointLayoutHolds(t, cfg, nSeq)
		}
	})
}

// Seeded outcome parity of the packed path — the joint Votes‖Thresh group
// through the fused Blind-and-Permute step 1 and the two-frame unpack of S2's
// half — against pate's plaintext rule (Alg. 1), with zero noise so the rule
// is the expected answer. Covers participant subsets (rescaled threshold and
// the delta correction), tied maxima (any tied class may win: the crypto
// path breaks ties by permuted position), votes exactly at the threshold
// with delta = 0, user counts on both sides of a slot-width step, and the
// three ways the joint
// group can sit in its plaintexts: one sequence per ciphertext (K=4, S=4),
// both in one (512-bit keys, S=9) and Thresh starting mid-ciphertext (K=3).
func TestPackedFusedMatchesPlaintextRule(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs are slow in -short mode")
	}
	for si, shape := range []struct{ users, classes, bits, joint int }{
		{4, 4, 256, 2}, {7, 4, 256, 2}, {8, 4, 256, 2}, {6, 4, 512, 1}, {8, 3, 256, 2},
	} {
		users := shape.users
		base := packedTestConfig(users)
		base.Classes, base.PaillierBits = shape.classes, shape.bits
		base.Sigma1, base.Sigma2 = 0, 0
		base.ThresholdFrac = 0.5 // exact in binary: the float rule and the integer threshold agree at equality
		if got := base.HalfLens(); got != [3]int{shape.joint, 0, 1} {
			t.Fatalf("shape %+v: HalfLens = %v", shape, got)
		}
		keys, err := GenerateKeys(testRNG(int64(200+si)), base)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(300 + si)))
		for trial := 0; trial < 5; trial++ {
			// Trial 0 splits everyone over two labels (at even user counts
			// a tie sitting exactly on the threshold), trial 1 spreads them
			// over all labels (no consensus); trials 2-4 draw three live
			// labels and a random participant subset.
			cfg := base
			labels := make([]int, users)
			for u := range labels {
				switch {
				case trial == 0:
					labels[u] = u % 2
				case trial == 1:
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

			subs, _ := buildAll(t, cfg, keys, votes, int64(400+10*si+trial))
			out := runInstance(t, cfg, keys, maskSubmissions(subs, participants), nil)
			t.Logf("shape=%+v participants=%v counts=%v: %+v", shape, participants, counts, out)
			if out.Consensus != wantOK || out.Participants != len(participants) {
				t.Fatalf("shape %+v trial=%d counts=%v participants=%v: outcome %+v, plaintext rule says consensus=%v",
					shape, trial, counts, participants, out, wantOK)
			}
			if wantOK && counts[out.Label] != counts[wantLabel] {
				t.Fatalf("shape %+v trial=%d counts=%v: released label %d is not a maximum (plaintext rule: %d)",
					shape, trial, counts, out.Label, wantLabel)
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

// A pair where only one side speaks the packed grammar, or one side still
// counts ciphertexts per sequence, must fail on the first frame —
// ErrPeerMismatch on the shape check or the transport's wrong-kind error —
// and never reach an output.
func TestPackedGrammarMismatchFails(t *testing.T) {
	packedCfg := packedTestConfig(3)
	plainCfg := packedCfg
	plainCfg.Packing = false
	keys, err := GenerateKeys(testRNG(130), packedCfg)
	if err != nil {
		t.Fatal(err)
	}
	pk1, pk2 := keys.S1Paillier.Public(), keys.S2Paillier.Public()
	perClass := func(pk *paillier.PublicKey) []*paillier.Ciphertext {
		return encryptSeq(t, pk, []int64{5, 6, 7, 8})
	}
	// packedGroup encrypts an all-zero group of nSeq sequences in n
	// ciphertexts: the layout's own count, or a peer's idea of it.
	packedGroup := func(pk *paillier.PublicKey, nSeq, n int) []*paillier.Ciphertext {
		zero := make([]*big.Int, nSeq*packedCfg.Classes)
		for j := range zero {
			zero[j] = new(big.Int)
		}
		plain, err := packedCfg.packedLayout(nSeq).Pack(zero)
		if err != nil {
			t.Fatal(err)
		}
		for len(plain) < n {
			plain = append(plain, new(big.Int))
		}
		cts, err := pk.EncryptVector(testRNG(131), plain[:n])
		if err != nil {
			t.Fatal(err)
		}
		return cts
	}
	bpS1 := func(cfg Config, group []*paillier.Ciphertext, nSeq int) func(context.Context, transport.Conn) error {
		return func(ctx context.Context, conn transport.Conn) error {
			_, err := blindPermuteS1(ctx, &lockedReader{r: testRNG(132)}, cfg, keys.ForS1(), conn, group, nSeq)
			return err
		}
	}
	bpS2 := func(cfg Config, nSeq int) func(context.Context, transport.Conn) error {
		return func(ctx context.Context, conn transport.Conn) error {
			seqs := make([][]*paillier.Ciphertext, nSeq)
			for s := range seqs {
				seqs[s] = perClass(pk1)
			}
			_, err := blindPermuteS2(ctx, &lockedReader{r: testRNG(133)}, cfg, keys.ForS2(), conn, seqs, 1)
			return err
		}
	}

	// Packed S1 (one packed group) against an unpacked S2.
	err1, err2 := runHalves(t, bpS1(packedCfg, packedGroup(pk2, 1, 1), 1), bpS2(plainCfg, 1))
	if err1 == nil || !errors.Is(err2, ErrPeerMismatch) {
		t.Fatalf("packed S1 vs unpacked S2: err1 = %v, err2 = %v, want failure and ErrPeerMismatch", err1, err2)
	}
	// Unpacked S1 (K ciphertexts) against a packed S2.
	err1, err2 = runHalves(t, bpS1(plainCfg, perClass(pk2), 1), bpS2(packedCfg, 1))
	if err1 == nil || !errors.Is(err2, ErrPeerMismatch) {
		t.Fatalf("unpacked S1 vs packed S2: err1 = %v, err2 = %v, want failure and ErrPeerMismatch", err1, err2)
	}
	// S2 opens the unpack round while S1, unpacked, is already in
	// Blind-and-Permute: S1 sees a ciphertext frame where step 2's
	// plaintexts belong, S2 a flagged batch where the re-encryptions belong.
	err1, err2 = runHalves(t, bpS1(plainCfg, perClass(pk2), 1),
		func(ctx context.Context, conn transport.Conn) error {
			_, err := unpackS2(ctx, testRNG(134), packedCfg, keys.ForS2(), conn, packedGroup(pk1, 1, 1), 1, 1)
			return err
		})
	var wrongKind *transport.FatalError
	if !errors.As(err1, &wrongKind) || !errors.Is(err2, ErrPeerMismatch) {
		t.Fatalf("unpacked S1 vs unpacking S2: err1 = %v, err2 = %v, want wrong-kind and ErrPeerMismatch", err1, err2)
	}

	// A peer still on the per-sequence layout sends 2P ciphertexts for the
	// Votes‖Thresh pair where the joint group has ⌈2K/S⌉. With 512-bit keys
	// (S=9 >= 2K) the two counts differ — 2 against 1 — and both places the
	// count crosses the wire refuse it typed: Blind-and-Permute step 1 at S2
	// and unpack step 1 at S1. Neither side reaches an output.
	wideCfg := packedCfg
	wideCfg.PaillierBits = 512
	if old, joint := 2*wideCfg.PackedCiphertexts(), wideCfg.HalfLens()[0]; old != 2 || joint != 1 {
		t.Fatalf("512-bit shape: old count %d, joint count %d, want 2 and 1", old, joint)
	}
	wideKeys, err := GenerateKeys(testRNG(135), wideCfg)
	if err != nil {
		t.Fatal(err)
	}
	keys, packedCfg = wideKeys, wideCfg
	pk1, pk2 = keys.S1Paillier.Public(), keys.S2Paillier.Public()
	oldStep1 := func(ctx context.Context, conn transport.Conn) error {
		vals := []*big.Int{packedGroup(pk2, 1, 1)[0].C, packedGroup(pk2, 1, 1)[0].C}
		if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: vals, Flags: []int64{2}}); err != nil {
			return err
		}
		_, err := transport.ExpectKind(ctx, conn, transport.KindPlainSeq)
		return err
	}
	err1, err2 = runHalves(t, oldStep1, bpS2(wideCfg, 2))
	if err1 == nil || !errors.Is(err2, ErrPeerMismatch) {
		t.Fatalf("old-layout S1 vs joint S2 in B&P: err1 = %v, err2 = %v, want failure and ErrPeerMismatch", err1, err2)
	}
	err1, err2 = runHalves(t,
		func(ctx context.Context, conn transport.Conn) error {
			return unpackS1(ctx, testRNG(136), wideCfg, keys.ForS1(), conn, 2)
		},
		func(ctx context.Context, conn transport.Conn) error {
			// An S2 whose secure sum produced the old 2P ciphertexts cannot
			// even start: the group does not fit the joint layout.
			if _, err := unpackS2(ctx, testRNG(137), wideCfg, keys.ForS2(), conn, packedGroup(pk1, 2, 2), 2, 1); err == nil {
				t.Error("unpackS2 accepted a 2P-ciphertext group")
			}
			vals := []*big.Int{packedGroup(pk1, 1, 1)[0].C, packedGroup(pk1, 1, 1)[0].C}
			if err := conn.Send(ctx, &transport.Message{Kind: transport.KindCipherSeq, Values: vals, Flags: []int64{2}}); err != nil {
				return err
			}
			_, err := transport.ExpectKind(ctx, conn, transport.KindCipherSeq)
			return err
		})
	if !errors.Is(err1, ErrPeerMismatch) || err2 == nil {
		t.Fatalf("joint S1 vs old-layout S2 in unpack: err1 = %v, err2 = %v, want ErrPeerMismatch and failure", err1, err2)
	}
}
