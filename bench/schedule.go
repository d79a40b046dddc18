package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Query kinds of the serve schedule.
const (
	kindUnanimous = "unanimous" // every user votes one class: consensus
	kindMajority  = "majority"  // 80/20 split: consensus on the majority class
	kindBottom    = "bottom"    // 40/30/30 split: no consensus, steps 7-9 skipped
)

// blockKinds is one schedule block. A quarter of the queries end without
// consensus, so the median stays inside the consensus mode while the
// short path is still exercised and checked.
var blockKinds = [4]string{kindUnanimous, kindUnanimous, kindMajority, kindBottom}

// Query is one scheduled query: what every user votes.
type Query struct {
	Index  int
	Kind   string
	Counts []int // votes per class
	Labels []int // class each user votes
}

// Votes renders the query as one-hot vote vectors, one per user.
func (q Query) Votes() [][]float64 {
	out := make([][]float64, len(q.Labels))
	for u, c := range q.Labels {
		v := make([]float64, len(q.Counts))
		v[c] = 1
		out[u] = v
	}
	return out
}

// Schedule is a seeded, unbounded stream of queries in blocks of four. The
// same (seed, users, classes) always yields the same stream.
type Schedule struct {
	users, classes int
	rng            *rand.Rand
	block          []string
	next           int
}

// NewSchedule starts a stream. users must be at least 10 so the 40/30/30
// split keeps whole-vote margins.
func NewSchedule(seed int64, users, classes int) (*Schedule, error) {
	if users < 10 || classes < 3 {
		return nil, fmt.Errorf("schedule needs at least 10 users and 3 classes, got %d and %d", users, classes)
	}
	return &Schedule{users: users, classes: classes, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next returns the next query of the stream.
func (s *Schedule) Next() Query {
	if len(s.block) == 0 {
		s.block = append(s.block, blockKinds[:]...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	cls := s.rng.Perm(s.classes)[:3]
	var shares []int // users per chosen class, largest first
	switch kind {
	case kindUnanimous:
		shares = []int{s.users}
	case kindMajority:
		major := s.users * 8 / 10
		shares = []int{major, s.users - major}
	default:
		top := s.users * 4 / 10
		rest := s.users - top
		shares = []int{top, rest - rest/2, rest / 2}
	}
	q := Query{Index: s.next, Kind: kind, Counts: make([]int, s.classes), Labels: make([]int, 0, s.users)}
	s.next++
	for i, n := range shares {
		q.Counts[cls[i]] = n
		for j := 0; j < n; j++ {
			q.Labels = append(q.Labels, cls[i])
		}
	}
	s.rng.Shuffle(len(q.Labels), func(i, j int) { q.Labels[i], q.Labels[j] = q.Labels[j], q.Labels[i] })
	return q
}

// Render prints the next n queries of the stream, for comparing schedules.
func (s *Schedule) Render(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		q := s.Next()
		fmt.Fprintf(&b, "%d %s %v %v\n", q.Index, q.Kind, q.Counts, q.Labels)
	}
	return b.String()
}
