package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
)

// minMarginVotes is the distance every scheduled query keeps from the
// consensus threshold and, on a consensus, between the two largest classes.
// At sigma = 0.25 votes it is 8 sigma, so noise cannot flip an outcome and
// the zero-noise plaintext rule is the expected answer.
const minMarginVotes = 2.0

// Expected is the outcome the plaintext rule gives a scheduled query.
type Expected struct {
	Consensus bool
	Label     int // -1 without consensus
}

// Expect applies the plaintext rule with zero noise to q and asserts the
// margins that make the answer independent of the noise draw.
func Expect(dep *Deployment, q Query) (Expected, error) {
	consensus, label, err := dep.PlainOutcome(q.Counts)
	if err != nil {
		return Expected{}, err
	}
	sorted := append([]int(nil), q.Counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	threshold := dep.ThresholdFrac() * float64(dep.Users())
	if m := math.Abs(float64(sorted[0]) - threshold); m < minMarginVotes {
		return Expected{}, fmt.Errorf("query %d (%s): top class is %.1f votes from the threshold, want >= %.0f",
			q.Index, q.Kind, m, minMarginVotes)
	}
	if consensus && float64(sorted[0]-sorted[1]) < minMarginVotes {
		return Expected{}, fmt.Errorf("query %d (%s): top two classes are %d votes apart, want >= %.0f",
			q.Index, q.Kind, sorted[0]-sorted[1], minMarginVotes)
	}
	if want := q.Kind != kindBottom; consensus != want {
		return Expected{}, fmt.Errorf("query %d (%s): plaintext rule gives consensus=%v", q.Index, q.Kind, consensus)
	}
	return Expected{Consensus: consensus, Label: label}, nil
}

// Check compares a served result with the expectation.
func (e Expected) Check(got QueryResult) error {
	if got.Consensus != e.Consensus {
		return fmt.Errorf("consensus=%v, plaintext rule says %v", got.Consensus, e.Consensus)
	}
	if got.Label != e.Label {
		return fmt.Errorf("label %d, plaintext rule says %d", got.Label, e.Label)
	}
	return nil
}

// tally counts, per tenant, the queries that returned a result and how many
// of those released a label.
type tally struct {
	queries, releases, failed int
}

// checkLedger asserts the durable ledger's per-tenant svt_count and
// rnm_count. A query that returned a result was committed exactly once; a
// failed one may or may not have been, so failures widen the accepted range.
func checkLedger(path string, want map[int64]tally) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	var st struct {
		Tenants map[string]struct {
			SVT int `json:"svt_count"`
			RNM int `json:"rnm_count"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("ledger %s: %w", path, err)
	}
	for tenant, w := range want {
		got := st.Tenants[strconv.FormatInt(tenant, 10)]
		if got.SVT < w.queries || got.SVT > w.queries+w.failed {
			return fmt.Errorf("ledger tenant %d: svt_count %d, want %d (+%d failed)", tenant, got.SVT, w.queries, w.failed)
		}
		if got.RNM < w.releases || got.RNM > w.releases+w.failed {
			return fmt.Errorf("ledger tenant %d: rnm_count %d, want %d (+%d failed)", tenant, got.RNM, w.releases, w.failed)
		}
	}
	return nil
}

// checkJournals verifies both hash chains and returns the record total.
func checkJournals(paths ...string) (int, error) {
	total := 0
	for _, p := range paths {
		n, err := JournalRecords(p)
		if err != nil {
			return 0, fmt.Errorf("journal %s: %w", p, err)
		}
		total += n
	}
	return total, nil
}

// checkCoverage asserts both ingest sinks covered exactly the population.
func checkCoverage(res *IngestResult, users int) error {
	for i, c := range res.Covered {
		if c != users {
			return fmt.Errorf("sink s%d covered %d of %d users", i+1, c, users)
		}
	}
	return nil
}
