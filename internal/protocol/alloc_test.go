package protocol

import (
	"context"
	"math/big"
	"runtime"
	"testing"
)

// TestQueryAllocationBound runs paper64 queries (DefaultConfig(10): 64-bit
// Paillier, 192-bit DGK, C = 10) through RunPair and bounds the mean heap
// allocation per query after warm-up, client submissions built beforehand.
func TestQueryAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := DefaultConfig(10)
	keys, err := GenerateKeys(testRNG(41), cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys.ForS1().Precompute()
	keys.ForS2().Precompute()
	votes := make([][]*big.Int, cfg.Users)
	for u := range votes {
		votes[u] = oneHotVotes(cfg.Classes, u%3)
	}
	subs, _ := buildAll(t, cfg, keys, votes, 42)
	run := func(seed int64) {
		if _, err := RunPair(context.Background(), cfg, keys.ForS1(), keys.ForS2(), testRNG(seed), testRNG(seed+1), subs, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run(int64(100 + 2*i))
	}
	const queries = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		run(int64(200 + 2*i))
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / queries
	objects := float64(after.Mallocs-before.Mallocs) / queries
	t.Logf("per query: %.3f MB in %.0f objects (GC ran %d times over %d queries)",
		bytes/1e6, objects, after.NumGC-before.NumGC, queries)
	if bytes > 0.6e6 || objects > 10e3 {
		t.Errorf("a query allocates %.3f MB in %.0f objects, want ≤ 0.6 MB and ≤ 10k objects", bytes/1e6, objects)
	}
}
