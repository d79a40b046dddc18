package mathutil

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(w, 0) .. fn(w, n-1), w being the index in [0, par)
// of the worker that runs the call, so a caller can hand each worker its
// own scratch: no two calls with the same w overlap. With par <= 1 the
// calls happen inline, with w = 0 and in index order (so rng draws inside
// fn keep a deterministic order); otherwise up to par workers pull indices
// until done or until the first error, which is returned. fn must be safe
// for concurrent invocation when par > 1. It is the one CPU fan-out of the
// crypto layers: a worker bound never changes a frame, so two servers need
// not agree on it.
func ParallelFor(par, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
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
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						stop.Store(true)
					})
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
