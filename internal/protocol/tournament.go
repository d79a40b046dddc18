package protocol

import (
	"context"
	"fmt"
	"math/big"
)

// Tournament argmax: a blinded single-elimination bracket over the permuted
// sequence. Each level pairs the surviving positions in ascending order and
// runs all of the level's DGK comparisons as one batched three-frame
// exchange, so a phase costs K-1 comparisons in ceil(log2(K)) round trips
// instead of the all-pairs K(K-1)/2 comparisons in as many exchanges.
//
// The bracket runs entirely under the Blind-and-Permute cover: positions are
// permuted indices, values are blinded, and the comparison outcomes released
// per level are exactly the pairwise >= bits the all-pairs schedule also
// releases (a strict subset of them), so no new information leaks.
//
// Tie handling matches the all-pairs winner exactly: survivor lists stay
// ascending, every pair compares (lower, higher) position, and >= awards the
// tie to the lower position — so the champion is the lowest permuted
// position attaining the maximum, the same position winsMatrix.winner
// returns. The parity tests assert this on tied inputs.

// tournamentLevelPairs pairs one level's ascending survivor list: (s[0],
// s[1]), (s[2], s[3]), ... An odd trailing survivor sits the level out (a
// bye) and is re-appended after the winners, which preserves ascending
// order because every winner precedes it.
func tournamentLevelPairs(survivors []int) [][2]int {
	pairs := make([][2]int, 0, len(survivors)/2)
	for j := 0; j+1 < len(survivors); j += 2 {
		pairs = append(pairs, [2]int{survivors[j], survivors[j+1]})
	}
	return pairs
}

// tournamentArgmax runs the bracket and returns the winning permuted
// position. Both servers call it with identical cfg and survivor evolution;
// the per-pair >= bits are the protocol's shared outcome, so both fold to
// the same champion. The DGK "B" party flips the difference direction (see
// comparer.diff).
func tournamentArgmax(ctx context.Context, cfg Config, cmp comparer, seq []*big.Int) (int, error) {
	if len(seq) != cfg.Classes {
		return -1, fmt.Errorf("protocol: tournament over %d values, want %d", len(seq), cfg.Classes)
	}
	survivors := make([]int, cfg.Classes)
	for i := range survivors {
		survivors[i] = i
	}
	for len(survivors) > 1 {
		pairs := tournamentLevelPairs(survivors)
		diffs := make([]*big.Int, len(pairs))
		for i, pq := range pairs {
			diffs[i] = cmp.diff(seq, pq[0], pq[1])
		}
		geqs, err := cmp.batch(ctx, diffs)
		if err != nil {
			return -1, fmt.Errorf("tournament level of %d: %w", len(survivors), err)
		}
		if len(geqs) != len(pairs) {
			return -1, fmt.Errorf("protocol: tournament level returned %d outcomes for %d pairs",
				len(geqs), len(pairs))
		}
		cmpJobsTotal.Add(int64(len(pairs)))
		strategyComparisons(cfg).Add(int64(len(pairs)))
		next := make([]int, 0, (len(survivors)+1)/2)
		for i, pq := range pairs {
			if geqs[i] {
				next = append(next, pq[0]) // >= keeps the lower position
			} else {
				next = append(next, pq[1])
			}
		}
		if len(survivors)%2 == 1 {
			next = append(next, survivors[len(survivors)-1])
		}
		survivors = next
	}
	return survivors[0], nil
}
