package protocol

import (
	"fmt"
	"io"
	"math/big"
	"sync"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/paillier"
)

// decryptSignedAll decrypts every value as a signed residue across the
// configured workers (decryption draws no randomness).
func decryptSignedAll(cfg Config, sk *paillier.PrivateKey, values []*big.Int) ([]*big.Int, error) {
	out := make([]*big.Int, len(values))
	err := mathutil.ParallelFor(cfg.parallelism(), len(values), func(i int) error {
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
