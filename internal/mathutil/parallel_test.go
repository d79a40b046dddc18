package mathutil

import (
	"errors"
	"sync"
	"testing"
)

func TestParallelForSequentialOrder(t *testing.T) {
	var order []int
	if err := ParallelFor(1, 5, func(_, i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order = %v, want 0..4 in order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("visited %d indices, want 5", len(order))
	}
}

func TestParallelForError(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 4} {
		err := ParallelFor(par, 100, func(_, i int) error {
			if i == 7 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("par=%d: err = %v, want boom", par, err)
		}
	}
}

func TestParallelForConcurrent(t *testing.T) {
	const n = 1000
	var mu sync.Mutex
	seen := make(map[int]int)
	if err := ParallelFor(8, n, func(_, i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("visited %d distinct indices, want %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	if err := ParallelFor(4, 0, func(_, _ int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for n=0")
	}
}
