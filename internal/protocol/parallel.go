package protocol

import (
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"github.com/privconsensus/privconsensus/internal/paillier"
)

// Config.Parallelism is a pure CPU worker bound: homomorphic aggregation,
// Paillier re-randomization and decryption loops and the per-item compute of
// a batched comparison exchange fan out over parallelFor. It has no effect
// on the wire, so two servers need not agree on it.

// parallelFor runs fn(0) .. fn(n-1). With par <= 1 the calls happen inline
// and in index order (preserving deterministic rng consumption at
// Parallelism 1); otherwise up to par workers pull indices until done or
// until the first error, which is returned. fn must be safe for concurrent
// invocation when par > 1.
func parallelFor(par, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						stop.Store(true)
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// decryptSignedAll decrypts every value as a signed residue across the
// configured workers (decryption draws no randomness).
func decryptSignedAll(cfg Config, sk *paillier.PrivateKey, values []*big.Int) ([]*big.Int, error) {
	out := make([]*big.Int, len(values))
	err := parallelFor(cfg.parallelism(), len(values), func(i int) error {
		v, err := sk.DecryptSigned(&paillier.Ciphertext{C: values[i]})
		if err != nil {
			return fmt.Errorf("decrypt element %d: %w", i, err)
		}
		out[i] = v
		return nil
	})
	return out, err
}

// lockedReader serializes Read calls so a math/rand source can safely feed
// concurrent workers. Draw order across workers is scheduling-dependent,
// which only perturbs blinding randomness, never protocol outcomes.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}
