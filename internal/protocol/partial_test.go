package protocol

import (
	"math/big"
	"testing"

	"github.com/privconsensus/privconsensus/internal/paillier"
)

// maskSubmissions zeroes the submissions of every user not in keep, the
// deploy-layer representation of dropped users.
func maskSubmissions(subs []*Submission, keep []int) []*Submission {
	keepSet := make(map[int]bool, len(keep))
	for _, u := range keep {
		keepSet[u] = true
	}
	out := make([]*Submission, len(subs))
	for u, s := range subs {
		if keepSet[u] {
			out[u] = s
		} else {
			out[u] = &Submission{}
		}
	}
	return out
}

// Fraction mode: with 4 of 6 users present and 3 of them voting class 1,
// the threshold re-scales to 0.6*4 = 2.4 votes, so consensus is reached.
func TestPartialParticipationFractionMode(t *testing.T) {
	cfg := testConfig(6)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.6
	keys, err := GenerateKeys(testRNG(30), cfg)
	if err != nil {
		t.Fatalf("GenerateKeys: %v", err)
	}
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 3), // dropped
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 3), // dropped
		oneHotVotes(cfg.Classes, 0),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 31)
	participants := []int{0, 2, 3, 5}
	out := runInstance(t, cfg, keys, maskSubmissions(subs, participants), nil)
	if !out.Consensus || out.Label != 1 {
		t.Fatalf("outcome = %+v, want consensus on label 1", out)
	}
	if out.Participants != len(participants) {
		t.Fatalf("Participants = %d, want %d", out.Participants, len(participants))
	}
}

// Absolute mode: the same 3-of-4 subset fails the full-population threshold
// 0.6*6 = 3.6 votes.
func TestPartialParticipationAbsoluteMode(t *testing.T) {
	cfg := testConfig(6)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.6
	cfg.AbsoluteThreshold = true
	keys, err := GenerateKeys(testRNG(32), cfg)
	if err != nil {
		t.Fatalf("GenerateKeys: %v", err)
	}
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 3), // dropped
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 3), // dropped
		oneHotVotes(cfg.Classes, 0),
	}
	subs, _ := buildAll(t, cfg, keys, votes, 33)
	out := runInstance(t, cfg, keys, maskSubmissions(subs, []int{0, 2, 3, 5}), nil)
	if out.Consensus {
		t.Fatalf("outcome = %+v, want no consensus under absolute threshold", out)
	}
	if out.Participants != 4 {
		t.Fatalf("Participants = %d, want 4", out.Participants)
	}
}

// The crypto path over a subset must match the plaintext reference over the
// same subset with the participant-scaled threshold, including noise.
func TestPartialParticipationMatchesPlainReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs are slow in -short mode")
	}
	cfg := testConfig(7)
	cfg.ThresholdFrac = 0.5
	keys, err := GenerateKeys(testRNG(40), cfg)
	if err != nil {
		t.Fatalf("GenerateKeys: %v", err)
	}
	for trial, participants := range [][]int{
		{0, 1, 2, 3, 4, 5, 6}, // full participation: delta must be zero
		{1, 2, 4, 5, 6},
		{0, 3, 6},
	} {
		votes := make([][]*big.Int, cfg.Users)
		for u := range votes {
			votes[u] = oneHotVotes(cfg.Classes, (u*3+trial)%cfg.Classes)
		}
		subs, discs := buildAll(t, cfg, keys, votes, int64(41+trial))
		kept := make([]*Disclosure, 0, len(participants))
		for _, u := range participants {
			kept = append(kept, discs[u])
		}
		aggVotes, z1, z2, err := aggregateDisclosures(kept)
		if err != nil {
			t.Fatalf("trial %d: aggregateDisclosures: %v", trial, err)
		}
		wantCons, wantLabel, err := PlainOutcome(aggVotes, z1, z2, cfg.ParticipantThresholdUnits(len(participants)))
		if err != nil {
			t.Fatalf("trial %d: PlainOutcome: %v", trial, err)
		}
		out := runInstance(t, cfg, keys, maskSubmissions(subs, participants), nil)
		if out.Consensus != wantCons {
			t.Fatalf("trial %d: consensus = %v, want %v", trial, out.Consensus, wantCons)
		}
		if wantCons && out.Label != wantLabel {
			t.Fatalf("trial %d: label = %d, want %d", trial, out.Label, wantLabel)
		}
	}
}

// ParticipantThresholdUnits at full participation equals ThresholdUnits in
// both modes, so the adjustment delta is zero and the wire is untouched.
func TestThresholdAdjustmentZeroAtFullParticipation(t *testing.T) {
	for _, abs := range []bool{false, true} {
		cfg := testConfig(9)
		cfg.ThresholdFrac = 0.61
		cfg.AbsoluteThreshold = abs
		all := make([]int, cfg.Users)
		for i := range all {
			all[i] = i
		}
		delta, err := cfg.thresholdAdjustment(all)
		if err != nil {
			t.Fatalf("abs=%v: %v", abs, err)
		}
		if delta.Sign() != 0 {
			t.Fatalf("abs=%v: delta = %v at full participation, want 0", abs, delta)
		}
	}
}

func TestParticipantIndices(t *testing.T) {
	subs := make([]SubmissionHalf, 4)
	subs[0].Votes = []*paillier.Ciphertext{{}}
	subs[3].Votes = []*paillier.Ciphertext{{}}
	for u, h := range subs {
		if want := u == 0 || u == 3; h.Present() != want {
			t.Fatalf("user %d: Present = %v, want %v", u, h.Present(), want)
		}
	}
}

// TestQuorumCountResolution covers the fraction/absolute/clamping rules and
// each caller's meaning of unset: every user (engine) or any one (deploy).
func TestQuorumCountResolution(t *testing.T) {
	cases := []struct {
		quorum       float64
		users, unset int
		want         int
	}{
		{0, 10, 1, 1},     // deploy: any participation
		{0, 10, 10, 10},   // engine: every user
		{-1, 10, 10, 10},  // negative is unset
		{0.5, 10, 1, 5},   // fraction
		{0.51, 10, 10, 6}, // fraction rounds up
		{0.05, 10, 1, 1},  // tiny fraction still needs someone
		{1, 10, 10, 1},    // absolute one
		{7, 10, 1, 7},     // absolute count
		{25, 10, 1, 10},   // clamped to users
		{0.9999, 3, 1, 3}, // fraction ceil hits users
		{2.4, 10, 1, 2},   // absolute rounds
	}
	for _, c := range cases {
		if got := QuorumCount(c.quorum, c.users, c.unset); got != c.want {
			t.Errorf("QuorumCount(%g, %d users, unset %d) = %d, want %d", c.quorum, c.users, c.unset, got, c.want)
		}
	}
}
