package protocol

import (
	"context"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

func TestTournamentRounds(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 10: 4, 16: 4, 17: 5, 32: 5}
	for k, want := range cases {
		if got := tournamentRounds(k); got != want {
			t.Errorf("tournamentRounds(%d) = %d, want %d", k, got, want)
		}
	}
}

// localTournament runs tournamentArgmax with comparisons evaluated locally
// on plaintext values, returning the winner plus the exact comparison and
// round counts.
func localTournament(t *testing.T, cfg Config, values []int64) (winner, comparisons, rounds int) {
	t.Helper()
	seq := make([]*big.Int, len(values))
	for i, v := range values {
		seq[i] = big.NewInt(v)
	}
	local := comparer{batch: func(_ context.Context, diffs []*big.Int) ([]bool, error) {
		rounds++
		comparisons += len(diffs)
		out := make([]bool, len(diffs))
		for i, d := range diffs {
			out[i] = d.Sign() >= 0
		}
		return out, nil
	}}
	w, err := tournamentArgmax(context.Background(), cfg, local, seq)
	if err != nil {
		t.Fatalf("tournamentArgmax: %v", err)
	}
	return w, comparisons, rounds
}

// The bracket must use exactly C-1 comparisons in exactly ceil(log2(C))
// rounds — the tentpole's complexity claim, asserted tightly.
func TestTournamentComparisonAndRoundCounts(t *testing.T) {
	for _, classes := range []int{2, 3, 4, 5, 7, 8, 10, 16, 32, 33} {
		cfg := testConfig(2)
		cfg.Classes = classes
		values := make([]int64, classes)
		for i := range values {
			values[i] = int64((i * 7919) % 1000)
		}
		_, comparisons, rounds := localTournament(t, cfg, values)
		if comparisons != classes-1 {
			t.Errorf("C=%d: %d comparisons, want %d", classes, comparisons, classes-1)
		}
		wantRounds := bits.Len(uint(classes - 1))
		if rounds != wantRounds {
			t.Errorf("C=%d: %d rounds, want %d", classes, rounds, wantRounds)
		}
	}
}

// allPairsWinner evaluates the all-pairs schedule locally: the same >= bits
// the all-pairs schedule of argmaxPermuted would release, folded through
// winsMatrix.
func allPairsWinner(t *testing.T, cfg Config, values []int64) int {
	t.Helper()
	wins := newWinsMatrix(cfg.Classes)
	for p := 0; p < cfg.Classes; p++ {
		for q := p + 1; q < cfg.Classes; q++ {
			wins.set(p, q, values[p] >= values[q])
		}
	}
	w, err := wins.winner()
	if err != nil {
		t.Fatalf("all-pairs winner: %v", err)
	}
	return w
}

// Selection-layer parity: on identical sequences — ties included — the
// tournament champion must equal the all-pairs winner, since both resolve
// ties to the lowest position. This is what makes the released label
// strategy-independent.
func TestTournamentMatchesAllPairsWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, classes := range []int{2, 3, 4, 5, 8, 10, 17} {
		cfg := testConfig(2)
		cfg.Classes = classes
		for trial := 0; trial < 50; trial++ {
			values := make([]int64, classes)
			for i := range values {
				// Draw from a small range so tied maxima are common.
				values[i] = int64(rng.Intn(4))
			}
			tw, _, _ := localTournament(t, cfg, values)
			aw := allPairsWinner(t, cfg, values)
			if tw != aw {
				t.Fatalf("C=%d values=%v: tournament winner %d != all-pairs winner %d",
					classes, values, tw, aw)
			}
		}
	}
}

// Full-protocol parity: both strategies must release the same label for the
// same inputs and noise draws, at sequential and concurrent parallelism.
// Vote vectors are randomized per trial; aggregated maxima are unique by
// construction (distinct per-class base votes), since with a tied maximum
// each strategy legitimately resolves the tie through its own permutation
// draw.
func TestFullProtocolStrategyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs are slow in -short mode")
	}
	cfg := testConfig(5)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.5
	keys, err := GenerateKeys(testRNG(500), cfg)
	if err != nil {
		t.Fatal(err)
	}
	voteRng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 2; trial++ {
		lead := voteRng.Intn(cfg.Classes)
		votes := make([][]*big.Int, cfg.Users)
		for u := range votes {
			if u < 3 { // majority class
				votes[u] = oneHotVotes(cfg.Classes, lead)
			} else {
				votes[u] = oneHotVotes(cfg.Classes, voteRng.Intn(cfg.Classes))
			}
		}
		for _, par := range []int{1, 4} {
			var labels [2]int
			var consensus [2]bool
			for si, strategy := range []string{StrategyTournament, StrategyAllPairs} {
				scfg := cfg
				scfg.ArgmaxStrategy = strategy
				setWorkers(t, par)
				subs, _ := buildAll(t, scfg, keys, votes, int64(510+trial))
				out := runInstance(t, scfg, keys, subs, nil)
				labels[si] = out.Label
				consensus[si] = out.Consensus
			}
			if labels[0] != labels[1] || consensus[0] != consensus[1] {
				t.Fatalf("trial %d par %d: tournament released (%v, %d), all-pairs (%v, %d)",
					trial, par, consensus[0], labels[0], consensus[1], labels[1])
			}
			if consensus[0] && labels[0] != lead {
				t.Fatalf("trial %d par %d: released label %d, want majority class %d",
					trial, par, labels[0], lead)
			}
		}
	}
}

// Tied vote vectors through the full crypto path: each strategy must still
// agree across servers and release a label from the tied maximal set.
func TestFullProtocolTiedVotesBothStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs are slow in -short mode")
	}
	cfg := testConfig(4)
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.4
	keys, err := GenerateKeys(testRNG(520), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Classes 1 and 2 tie at two votes each.
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 2),
		oneHotVotes(cfg.Classes, 2),
	}
	for _, strategy := range []string{StrategyTournament, StrategyAllPairs} {
		scfg := cfg
		scfg.ArgmaxStrategy = strategy
		subs, _ := buildAll(t, scfg, keys, votes, 521)
		out := runInstance(t, scfg, keys, subs, nil)
		if !out.Consensus || (out.Label != 1 && out.Label != 2) {
			t.Fatalf("%s: tied outcome %+v, want consensus on class 1 or 2", strategy, out)
		}
	}
}

func TestConfigValidateArgmaxStrategy(t *testing.T) {
	cfg := testConfig(3)
	for _, ok := range []string{"", StrategyTournament, StrategyAllPairs} {
		cfg.ArgmaxStrategy = ok
		if err := cfg.Validate(); err != nil {
			t.Errorf("strategy %q rejected: %v", ok, err)
		}
	}
	cfg.ArgmaxStrategy = "bubble"
	if err := cfg.Validate(); err == nil {
		t.Error("expected validation error for unknown strategy")
	}
	cfg.ArgmaxStrategy = ""
	if got := cfg.ResolvedArgmaxStrategy(); got != StrategyTournament {
		t.Errorf("default strategy = %q, want tournament", got)
	}
}
