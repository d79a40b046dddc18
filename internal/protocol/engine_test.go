package protocol

import (
	"context"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/transport"
)

// runInstance executes one full Alg. 5 run through RunPair and returns the
// outcome both servers agreed on. meter (may be nil) sees S1's side.
func runInstance(t *testing.T, cfg Config, keys *Keys, subs []*Submission, meter *transport.Meter) *Outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, err := RunPair(ctx, cfg, keys.ForS1(), keys.ForS2(), testRNG(101), testRNG(102), subs, meter)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// setWorkers runs the rest of the test with GOMAXPROCS — the crypto worker
// bound — at n, restoring the old value when the test ends.
func setWorkers(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// buildAll constructs submissions + disclosures for a set of user votes.
func buildAll(t *testing.T, cfg Config, keys *Keys, votes [][]*big.Int, seed int64) ([]*Submission, []*Disclosure) {
	t.Helper()
	rng := testRNG(seed)
	noise := testRNG(seed + 1000)
	subs := make([]*Submission, len(votes))
	discs := make([]*Disclosure, len(votes))
	for u, v := range votes {
		sub, disc, err := BuildSubmission(rng, noise, cfg, u, v, keys.S1Paillier.Public(), keys.S2Paillier.Public())
		if err != nil {
			t.Fatalf("BuildSubmission user %d: %v", u, err)
		}
		subs[u] = sub
		discs[u] = disc
	}
	return subs, discs
}

func TestFullProtocolConsensusNoNoise(t *testing.T) {
	cfg := testConfig(5)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.6 // need >= 3 of 5 votes
	keys, err := GenerateKeys(testRNG(20), cfg)
	if err != nil {
		t.Fatalf("GenerateKeys: %v", err)
	}

	// 4 of 5 users vote class 2: consensus with label 2.
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 0),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 21)
	out := runInstance(t, cfg, keys, subs, nil)
	if !out.Consensus || out.Label != 2 {
		t.Fatalf("outcome = %+v, want consensus on label 2", out)
	}
}

func TestFullProtocolNoConsensusNoNoise(t *testing.T) {
	cfg := testConfig(5)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.6
	keys, err := GenerateKeys(testRNG(22), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Votes split 2/2/1: max is 2 < 3 required.
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 0),
		oneHotVotes(cfg.Classes, 0),
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 3),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 23)
	out := runInstance(t, cfg, keys, subs, nil)
	if out.Consensus || out.Label != -1 {
		t.Fatalf("outcome = %+v, want no consensus", out)
	}
}

// The crypto path must reproduce the plaintext reference decision exactly
// for identical noise draws.
func TestFullProtocolMatchesPlainReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs are slow in -short mode")
	}
	for trial := 0; trial < 3; trial++ {
		cfg := testConfig(4)
		cfg.Sigma1, cfg.Sigma2 = 2.0, 1.5
		cfg.ThresholdFrac = 0.5
		keys, err := GenerateKeys(testRNG(int64(30+trial)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		votes := make([][]*big.Int, cfg.Users)
		voteRng := rand.New(rand.NewSource(int64(40 + trial)))
		for u := range votes {
			votes[u] = oneHotVotes(cfg.Classes, voteRng.Intn(cfg.Classes))
		}
		subs, discs := buildAll(t, cfg, keys, votes, int64(50+trial))

		aggVotes, z1, z2, err := aggregateDisclosures(discs)
		if err != nil {
			t.Fatal(err)
		}
		wantOK, wantLabel, err := PlainOutcome(aggVotes, z1, z2, cfg.ThresholdUnits())
		if err != nil {
			t.Fatal(err)
		}

		out := runInstance(t, cfg, keys, subs, nil)
		// Exact agreement with the plaintext reference is only guaranteed
		// for a unique maximum (tied maxima carry different z1 noise
		// depending on which tied class the permuted argmax selects).
		iStar := argmaxBig(aggVotes)
		uniqueMax := true
		for i, v := range aggVotes {
			if i != iStar && v.Cmp(aggVotes[iStar]) == 0 {
				uniqueMax = false
				break
			}
		}
		if !uniqueMax {
			continue
		}
		if out.Consensus != wantOK {
			t.Fatalf("trial %d: consensus = %v, plaintext reference = %v", trial, out.Consensus, wantOK)
		}
		if !wantOK {
			continue
		}
		// With ties, the crypto path may break them differently; check
		// the label is a maximizer of the noisy votes.
		noisy := make([]*big.Int, cfg.Classes)
		for i := range noisy {
			noisy[i] = new(big.Int).Add(aggVotes[i], new(big.Int).Lsh(z2[i], 1))
		}
		maxVal := noisy[argmaxBig(noisy)]
		if noisy[out.Label].Cmp(maxVal) != 0 {
			t.Fatalf("trial %d: crypto label %d (value %v) is not a maximizer (max %v, plain label %d)",
				trial, out.Label, noisy[out.Label], maxVal, wantLabel)
		}
	}
}

func TestFullProtocolSoftmaxVotes(t *testing.T) {
	cfg := testConfig(3)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.4
	keys, err := GenerateKeys(testRNG(60), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilistic votes in vote units (each sums to VoteScale).
	mk := func(ps ...float64) []*big.Int {
		out := make([]*big.Int, len(ps))
		for i, p := range ps {
			out[i] = big.NewInt(int64(p * VoteScale))
		}
		return out
	}
	votes := [][]*big.Int{
		mk(0.7, 0.1, 0.1, 0.1),
		mk(0.6, 0.2, 0.1, 0.1),
		mk(0.1, 0.3, 0.3, 0.3),
	}
	subs, discs := buildAll(t, cfg, keys, votes, 61)
	aggVotes, z1, z2, err := aggregateDisclosures(discs)
	if err != nil {
		t.Fatal(err)
	}
	wantOK, wantLabel, err := PlainOutcome(aggVotes, z1, z2, cfg.ThresholdUnits())
	if err != nil {
		t.Fatal(err)
	}
	out := runInstance(t, cfg, keys, subs, nil)
	if out.Consensus != wantOK || (wantOK && out.Label != wantLabel) {
		t.Fatalf("softmax outcome %+v, want ok=%v label=%d", out, wantOK, wantLabel)
	}
	if !out.Consensus || out.Label != 0 {
		t.Fatalf("expected consensus on class 0, got %+v", out)
	}
}

func TestFullProtocolMeterRecordsSteps(t *testing.T) {
	cfg := testConfig(3)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.5
	keys, err := GenerateKeys(testRNG(70), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 0),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 71)
	meter := transport.NewMeter()
	out := runInstance(t, cfg, keys, subs, meter)
	if !out.Consensus {
		t.Fatalf("expected consensus, got %+v", out)
	}
	for _, step := range []string{
		StepBlindPerm1, StepCompare1, StepThreshold,
		StepBlindPerm2, StepCompare2, StepRestoration,
	} {
		s, ok := meter.Step(step)
		if !ok {
			t.Errorf("step %q not recorded", step)
			continue
		}
		if s.BytesSent == 0 && s.BytesReceived == 0 {
			t.Errorf("step %q recorded no traffic", step)
		}
	}
	// Comparison traffic must dominate blind-and-permute traffic, the
	// paper's Table II shape.
	cmp, _ := meter.Step(StepCompare1)
	bp, _ := meter.Step(StepBlindPerm1)
	if cmp.BytesSent+cmp.BytesReceived <= bp.BytesSent+bp.BytesReceived {
		t.Errorf("expected comparison traffic (%d) to exceed blind-and-permute traffic (%d)",
			cmp.BytesSent+cmp.BytesReceived, bp.BytesSent+bp.BytesReceived)
	}
}

// The binary (K=2) case — each CelebA attribute vote — must work end to
// end: the all-pairs comparison degenerates to a single DGK run.
func TestFullProtocolBinaryClasses(t *testing.T) {
	cfg := testConfig(5)
	cfg.Classes = 2
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.6
	keys, err := GenerateKeys(testRNG(130), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{
		oneHotVotes(2, 1), oneHotVotes(2, 1), oneHotVotes(2, 1),
		oneHotVotes(2, 1), oneHotVotes(2, 0),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 131)
	out := runInstance(t, cfg, keys, subs, nil)
	if !out.Consensus || out.Label != 1 {
		t.Fatalf("binary outcome %+v, want consensus on 1", out)
	}
}

// A single user is a degenerate but valid deployment (the paper's
// adversarial-aggregator discussion: querying one user).
func TestFullProtocolSingleUser(t *testing.T) {
	cfg := testConfig(1)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 1.0
	keys, err := GenerateKeys(testRNG(132), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{oneHotVotes(cfg.Classes, 2)}
	subs, _ := buildAll(t, cfg, keys, votes, 133)
	out := runInstance(t, cfg, keys, subs, nil)
	if !out.Consensus || out.Label != 2 {
		t.Fatalf("single-user outcome %+v, want consensus on 2", out)
	}
}

// Single-position threshold mode (ThresholdAllPositions=false) must reach
// the same decision with less comparison traffic.
func TestFullProtocolSinglePositionThreshold(t *testing.T) {
	cfg := testConfig(4)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.5
	cfg.ThresholdAllPositions = false
	keys, err := GenerateKeys(testRNG(120), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 0),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 121)
	meter := transport.NewMeter()
	out := runInstance(t, cfg, keys, subs, meter)
	if !out.Consensus || out.Label != 3 {
		t.Fatalf("single-position outcome %+v, want consensus on 3", out)
	}
	// One threshold comparison instead of Classes of them.
	thr, ok := meter.Step(StepThreshold)
	if !ok {
		t.Fatal("threshold step not metered")
	}
	cmp, _ := meter.Step(StepCompare1)
	comparisons := cfg.Classes - 1 // tournament bracket comparisons in phase 4
	perComparison := float64(cmp.BytesSent) / float64(comparisons)
	if float64(thr.BytesSent) > 1.5*perComparison {
		t.Errorf("single-position threshold used %d bytes, expected ~%0.f (one comparison)",
			thr.BytesSent, perComparison)
	}
}

func TestRunRejectsWrongSubmissionCount(t *testing.T) {
	cfg := testConfig(3)
	keys, err := GenerateKeys(testRNG(80), cfg)
	if err != nil {
		t.Fatal(err)
	}
	connA, _ := transport.Pair()
	defer connA.Close()
	_, err = RunS1(context.Background(), testRNG(81), cfg, keys.ForS1(), connA, nil, nil)
	if err == nil {
		t.Fatal("expected submission-count error")
	}
}

func TestRunFailsOnClosedTransport(t *testing.T) {
	cfg := testConfig(2)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	keys, err := GenerateKeys(testRNG(90), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{oneHotVotes(cfg.Classes, 0), oneHotVotes(cfg.Classes, 0)}
	subs, _ := buildAll(t, cfg, keys, votes, 91)
	s1Subs := []SubmissionHalf{subs[0].ToS1, subs[1].ToS1}

	connA, connB := transport.Pair()
	connB.Close() // peer gone before the protocol starts
	defer connA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := RunS1(ctx, testRNG(92), cfg, keys.ForS1(), connA, s1Subs, nil); err == nil {
		t.Fatal("expected transport error")
	}
}

// RunPair names the side that failed first: a malformed half at S2 fails
// S2 before any frame, and S1's closed link must not take the blame.
func TestRunPairNamesFailingSide(t *testing.T) {
	cfg := testConfig(2)
	keys, err := GenerateKeys(testRNG(93), cfg)
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := buildAll(t, cfg, keys, [][]*big.Int{oneHotVotes(cfg.Classes, 0), oneHotVotes(cfg.Classes, 0)}, 94)
	subs[1].ToS2.Votes = subs[1].ToS2.Votes[:1]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = RunPair(ctx, cfg, keys.ForS1(), keys.ForS2(), testRNG(95), testRNG(96), subs, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "protocol: S2: ") {
		t.Fatalf("err = %v, want S2 named as the failing side", err)
	}
}

func TestWinsMatrix(t *testing.T) {
	m := newWinsMatrix(3)
	// values: v0=5, v1=9, v2=9 -> pairwise: (0,1) false, (0,2) false, (1,2) tie -> true.
	m.set(0, 1, false)
	m.set(0, 2, false)
	m.set(1, 2, true)
	w, err := m.winner()
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 {
		t.Errorf("winner = %d, want 1 (tie broken to lower position)", w)
	}

	// Inconsistent outcomes (a cycle) must be detected.
	c := newWinsMatrix(3)
	c.set(0, 1, true)
	c.set(1, 2, true)
	c.set(0, 2, false)
	if _, err := c.winner(); err == nil {
		t.Error("expected inconsistency error for a comparison cycle")
	}
}

func TestCheckPositions(t *testing.T) {
	cfg := testConfig(2)
	cfg.ThresholdAllPositions = true
	if got := checkPositions(cfg, 2); len(got) != cfg.Classes {
		t.Errorf("all-positions mode returned %d positions", len(got))
	}
	cfg.ThresholdAllPositions = false
	got := checkPositions(cfg, 2)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("single-position mode returned %v", got)
	}
}
