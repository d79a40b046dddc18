package protocol

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Concurrency support for the protocol hot path. Two independent levers
// hang off Config.Parallelism:
//
//   - single-party CPU work (homomorphic aggregation, Paillier
//     re-randomization in Blind-and-Permute) fans out over parallelFor;
//   - the interactive DGK comparisons of one phase run concurrently, each
//     on its own transport mux stream (muxSession.runComparisons).
//
// Parallelism == 1 disables both and keeps the original sequential
// single-stream protocol byte for byte.

// parallelFor runs fn(0) .. fn(n-1). With par <= 1 the calls happen inline
// and in index order (preserving deterministic rng consumption for the
// sequential mode); otherwise up to par workers pull indices until done or
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

// muxSession wraps the peer connection for one protocol run. With muxing
// disabled (Parallelism == 1) it is a transparent pass-through; otherwise
// the whole session is multiplexed: the lock-step steps travel on stream 0
// and each concurrent comparison of a phase gets its own stream. Stream
// IDs are assigned from a counter that advances identically on both
// servers, so the pair→stream mapping is deterministic.
type muxSession struct {
	// seq carries the sequential (lock-step) protocol steps: the raw conn
	// when muxing is disabled, stream 0 otherwise.
	seq transport.Conn
	mux *transport.Mux // nil when muxing is disabled
	par int            // worker bound for comparison phases
	// next is the first unassigned stream ID. Both servers reserve phase
	// streams in the same order, keeping assignments in lock step.
	next int64
}

// newMuxSession prepares the peer link according to cfg.Parallelism.
func newMuxSession(cfg Config, conn transport.Conn, meter *transport.Meter) *muxSession {
	if !cfg.muxEnabled() {
		return &muxSession{seq: conn, par: 1}
	}
	muxMeter := meter
	if _, ok := conn.(stepSetter); ok {
		// The caller already wrapped the conn in its own metering layer;
		// let that layer keep accounting to avoid double counting.
		muxMeter = nil
	}
	m := transport.NewMux(conn, muxMeter)
	return &muxSession{seq: m.Stream(0), mux: m, par: cfg.parallelism(), next: 1}
}

// batchPar bounds the CPU workers a batched comparison exchange may use: 1
// in the sequential mode (Parallelism == 1, preserving deterministic rng
// draw order), the session worker bound otherwise. Batched frames travel on
// the sequential conn either way — the wire format never depends on the
// worker count.
func (s *muxSession) batchPar() int {
	if s.mux == nil {
		return 1
	}
	return s.par
}

// cmpJob is one secure comparison of a concurrent phase.
type cmpJob struct {
	// tag labels the comparison in errors, e.g. "compare pair (2,5)".
	tag string
	// diff is this party's comparison input.
	diff *big.Int
}

// runComparisons executes one phase of DGK comparisons and returns the
// per-job >= bits in job order. Without a mux the jobs run sequentially,
// in order, over the session conn — the original wire behavior. With a mux
// they run over a bounded worker pool, job i of the phase on stream
// base+i; both servers build the job list in the same order and advance
// the same stream counter, so outcome i always pairs the same two values
// regardless of scheduling.
func (s *muxSession) runComparisons(ctx context.Context, step string, jobs []cmpJob,
	compare func(ctx context.Context, conn transport.Conn, diff *big.Int) (bool, error)) ([]bool, error) {
	out := make([]bool, len(jobs))
	if s.mux == nil {
		for i, job := range jobs {
			geq, err := compare(ctx, s.seq, job.diff)
			cmpJobsTotal.Inc()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", job.tag, err)
			}
			out[i] = geq
		}
		return out, nil
	}

	base := s.next
	s.next += int64(len(jobs))
	workers := s.par
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	cmpWorkersHist.Observe(float64(workers))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(jobs) || wctx.Err() != nil {
					return
				}
				stream := s.mux.Stream(base + int64(i))
				stream.SetStep(step)
				cmpInflight.Add(1)
				geq, err := compare(wctx, stream, jobs[i].diff)
				cmpInflight.Add(-1)
				cmpJobsTotal.Inc()
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("%s: %w", jobs[i].tag, err)
						cancel()
					})
					return
				}
				out[i] = geq
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
