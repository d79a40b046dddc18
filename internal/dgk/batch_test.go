package dgk

import (
	"context"
	"io"
	"math/big"
	"sync"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/transport"
)

// lockedRNG serializes reads so a deterministic test rng can feed the
// concurrent per-item workers of the batch protocol (the protocol layer
// performs the same wrapping when multiplexing).
type lockedRNG struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedRNG) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

func lockRNG(seed int64) io.Reader { return &lockedRNG{r: testRNG(seed)} }

// runBatch drives both sides of a batched signed comparison over an
// in-process pair and returns both parties' outcome vectors.
func runBatch(t *testing.T, key *PrivateKey, aVals, bVals []int64, par int,
	runB func(ctx context.Context, connB transport.Conn, shifted []*big.Int) ([]bool, error)) ([]bool, []bool) {
	t.Helper()
	connA, connB := transport.Pair()
	defer connA.Close()
	defer connB.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	av := bigs(aVals)
	bv := bigs(bVals)
	type res struct {
		geq []bool
		err error
	}
	ch := make(chan res, 1)
	go func() {
		geq, err := key.Public().CompareSignedBatchA(ctx, lockRNG(201), connA, av, par)
		ch <- res{geq, err}
	}()
	geqB, err := runB(ctx, connB, bv)
	if err != nil {
		t.Fatalf("batch B side: %v", err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatalf("batch A side: %v", ra.err)
	}
	return ra.geq, geqB
}

func bigs(vs []int64) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = big.NewInt(v)
	}
	return out
}

func TestCompareSignedBatchMatchesPlain(t *testing.T) {
	key := sharedTestKey(t)
	aVals := []int64{5, 3, -7, -10, 1 << 30, 0, 42}
	bVals := []int64{3, 5, -7, 4, -(1 << 30), 0, 42}
	want := []bool{true, false, true, false, true, true, true}

	for _, par := range []int{1, 4} {
		geqA, geqB := runBatch(t, key, aVals, bVals, par,
			func(ctx context.Context, connB transport.Conn, shifted []*big.Int) ([]bool, error) {
				return key.CompareSignedBatchB(ctx, lockRNG(202), connB, shifted, par)
			})
		for i := range want {
			if geqA[i] != want[i] || geqB[i] != want[i] {
				t.Errorf("par %d item %d: compare(%d, %d) = A:%v B:%v, want %v",
					par, i, aVals[i], bVals[i], geqA[i], geqB[i], want[i])
			}
		}
	}
}

func TestCompareBatchRejects(t *testing.T) {
	key := sharedTestKey(t)
	ctx := context.Background()
	connA, connB := transport.Pair()
	defer connA.Close()
	defer connB.Close()

	if _, err := key.Public().CompareSignedBatchA(ctx, testRNG(203), connA, nil, 1); err == nil {
		t.Error("expected empty-batch error on A side")
	}
	if _, err := key.CompareSignedBatchB(ctx, testRNG(203), connB, nil, 1); err == nil {
		t.Error("expected empty-batch error on B side")
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 60)
	if _, err := key.Public().CompareSignedBatchA(ctx, testRNG(203), connA, []*big.Int{huge}, 1); err == nil {
		t.Error("expected range error on A side")
	}
	if _, err := key.CompareSignedBatchB(ctx, testRNG(203), connB, []*big.Int{huge}, 1); err == nil {
		t.Error("expected range error on B side")
	}
}
