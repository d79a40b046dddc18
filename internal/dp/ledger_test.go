package dp

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/privconsensus/privconsensus/internal/fsx"
)

// epsAfter computes the (ε, δ)-DP spend of n worst-case queries at the
// given cost coefficient, the quantity the ledger projects at admission.
func epsAfter(t *testing.T, cost float64, n int, delta float64) float64 {
	t.Helper()
	a := NewAccountant()
	if err := a.AddLinear(cost * float64(n)); err != nil {
		t.Fatal(err)
	}
	eps, _, err := a.Epsilon(delta)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

func TestLedgerQuotaRefusesAtProjection(t *testing.T) {
	const (
		sigma1, sigma2 = 4.0, 2.0
		delta          = 1e-6
	)
	cost := QueryCost(sigma1, sigma2)
	if want := 9/(2*sigma1*sigma1) + 1/(sigma2*sigma2); math.Abs(cost-want) > 1e-15 {
		t.Fatalf("queryCost = %g, want %g", cost, want)
	}
	// A quota between one and two queries' spend admits exactly one.
	quota := (epsAfter(t, cost, 1, delta) + epsAfter(t, cost, 2, delta)) / 2
	b, err := OpenLedger("", map[int64]float64{9: quota}, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(9, cost); err != nil {
		t.Fatalf("first reservation refused: %v", err)
	}
	if err := b.Reserve(9, cost); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second reservation: got %v, want ErrBudgetExhausted", err)
	}
	// Reservations count: the first query has not committed yet, but its
	// worst-case spend is already held against the quota.
	b.Unreserve(9, cost)
	if err := b.Reserve(9, cost); err != nil {
		t.Fatalf("reservation after unreserve refused: %v", err)
	}
	if _, err := b.Commit(9, cost, sigma1, sigma2, true); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(9, cost); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-commit reservation: got %v, want ErrBudgetExhausted", err)
	}
	// An unlisted tenant under an unlimited default is never refused.
	if err := b.Reserve(1, cost); err != nil {
		t.Fatalf("unlimited tenant refused: %v", err)
	}
}

func TestLedgerCommitMatchesAccountant(t *testing.T) {
	const sigma1, sigma2, delta = 4.0, 2.0, 1e-6
	cost := QueryCost(sigma1, sigma2)
	b, err := OpenLedger("", nil, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	// Three queries, two of which released a label.
	for i, released := range []bool{true, false, true} {
		if err := b.Reserve(7, cost); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		if _, err := b.Commit(7, cost, sigma1, sigma2, released); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	want := NewAccountant()
	for _, released := range []bool{true, false, true} {
		if err := want.AddSVT(sigma1); err != nil {
			t.Fatal(err)
		}
		if released {
			if err := want.AddRNM(sigma2); err != nil {
				t.Fatal(err)
			}
		}
	}
	spends := b.Spends()
	if len(spends) != 1 || spends[0].Tenant != 7 {
		t.Fatalf("spends = %+v, want one entry for tenant 7", spends)
	}
	if spends[0].Coefficient != want.Coefficient() {
		t.Fatalf("ledger coefficient %g != accountant %g", spends[0].Coefficient, want.Coefficient())
	}
	q, r := want.Counts()
	if spends[0].Queries != q || spends[0].Releases != r {
		t.Fatalf("ledger counts (%d, %d) != accountant (%d, %d)", spends[0].Queries, spends[0].Releases, q, r)
	}
	if len(b.reserved) != 0 {
		t.Fatalf("reservations leaked: %v", b.reserved)
	}
}

// A zero sigma makes a query free, not uncounted: the ledger counts every
// committed query and release whatever the sigmas, and the counts survive a
// reload.
func TestLedgerCountsZeroNoiseQueries(t *testing.T) {
	const delta = 1e-6
	path := filepath.Join(t.TempDir(), "ledger.json")
	b, err := OpenLedger(path, nil, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tenant         int64
		sigma1, sigma2 float64
		released       bool
	}{
		{1, 0, 0, true}, {1, 0, 0, false}, // accounting off
		{2, 0, 2, true}, {2, 0, 2, false}, // SVT off
		{3, 4, 0, true}, {3, 4, 0, false}, // RNM off
	} {
		cost := QueryCost(c.sigma1, c.sigma2)
		if err := b.Reserve(c.tenant, cost); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Commit(c.tenant, cost, c.sigma1, c.sigma2, c.released); err != nil {
			t.Fatal(err)
		}
	}
	want := []TenantSpend{
		{Tenant: 1, Queries: 2, Releases: 1},
		{Tenant: 2, Coefficient: RNMCost(1, 2), Queries: 2, Releases: 1},
		{Tenant: 3, Coefficient: 2 * SVTCost(1, 4), Queries: 2, Releases: 1},
	}
	check := func(l *Ledger, when string) {
		t.Helper()
		got := l.Spends()
		if len(got) != len(want) {
			t.Fatalf("%s: spends %+v, want %d tenants", when, got, len(want))
		}
		for i, w := range want {
			g := got[i]
			g.Epsilon = 0
			if g != w {
				t.Errorf("%s: tenant %d spend %+v, want %+v", when, w.Tenant, got[i], w)
			}
		}
		if got[0].Epsilon != 0 {
			t.Errorf("%s: a run with accounting off spent ε %g", when, got[0].Epsilon)
		}
	}
	check(b, "live")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenLedger(path, nil, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	check(b2, "reloaded")
}

func TestLedgerPersistsAndLocks(t *testing.T) {
	const sigma1, sigma2, delta = 4.0, 2.0, 1e-6
	cost := QueryCost(sigma1, sigma2)
	path := filepath.Join(t.TempDir(), "ledger.json")
	b, err := OpenLedger(path, nil, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(3, cost); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(3, cost, sigma1, sigma2, true); err != nil {
		t.Fatal(err)
	}
	// The state file is exclusively locked while open.
	if _, err := OpenLedger(path, nil, 0, delta); !errors.Is(err, fsx.ErrLocked) {
		t.Fatalf("concurrent open: got %v, want fsx.ErrLocked", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Reload resumes the committed spend exactly.
	b2, err := OpenLedger(path, nil, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	spends := b2.Spends()
	if len(spends) != 1 || spends[0].Tenant != 3 {
		t.Fatalf("reloaded spends = %+v", spends)
	}
	if want := b.Spends()[0]; spends[0] != want {
		t.Fatalf("reloaded spend %+v != original %+v", spends[0], want)
	}
}

func TestLedgerExhaustion(t *testing.T) {
	const sigma1, sigma2, delta = 4.0, 2.0, 1e-6
	cost := QueryCost(sigma1, sigma2)
	quota := (epsAfter(t, cost, 1, delta) + epsAfter(t, cost, 2, delta)) / 2
	b, err := OpenLedger("", map[int64]float64{1: quota, 2: quota}, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	if b.Exhausted(cost) {
		t.Fatal("fresh ledger reports exhaustion")
	}
	for _, tenant := range []int64{1, 2} {
		if err := b.Reserve(tenant, cost); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Commit(tenant, cost, sigma1, sigma2, true); err != nil {
			t.Fatal(err)
		}
	}
	if !b.Exhausted(cost) {
		t.Fatal("ledger with every quota spent does not report exhaustion")
	}
	// An open default quota keeps the service admitting fresh tenants.
	b.defaultQuota = quota
	if b.Exhausted(cost) {
		t.Fatal("ledger with an open default quota reports exhaustion")
	}
}

// copyFixture copies a testdata state file into a fresh directory (opening
// a ledger leaves a lock file beside it, and a spend rewrites it).
func copyFixture(t *testing.T, name string) (path string, raw []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// TestLedgerLoadsParentStateFiles loads the two on-disk shapes as the
// commit before the ledger moved here wrote them: the serve ledger
// (versioned, per tenant) and the root accountant's flat file, which is
// read as tenant 0. The spend must be identical, and a versioned file must
// be written back byte for byte.
func TestLedgerLoadsParentStateFiles(t *testing.T) {
	const sigma1, sigma2, delta = 4.0, 2.0, 1e-6
	// replay returns the spend of the given per-query release flags.
	replay := func(tenant int64, released ...bool) TenantSpend {
		a := NewAccountant()
		for _, r := range released {
			if err := a.AddSVT(sigma1); err != nil {
				t.Fatal(err)
			}
			if r {
				if err := a.AddRNM(sigma2); err != nil {
					t.Fatal(err)
				}
			}
		}
		q, r := a.Counts()
		eps, _, err := a.Epsilon(delta)
		if err != nil {
			t.Fatal(err)
		}
		return TenantSpend{Tenant: tenant, Coefficient: a.Coefficient(), Queries: q, Releases: r, Epsilon: eps}
	}

	path, raw := copyFixture(t, "ledger_pr21.json")
	b, err := OpenLedger(path, nil, 0, delta)
	if err != nil {
		t.Fatalf("parent-written ledger refused: %v", err)
	}
	defer b.Close()
	want := []TenantSpend{replay(1, true, false, true), replay(2, true), replay(17, false)}
	if got := b.Spends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger spends %+v, want %+v", got, want)
	}
	// A zero-noise query spends nothing and rewrites the file in the same
	// format: the parent's bytes with tenant 1's query count one higher.
	if _, err := b.Commit(1, 0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"svt_count": 3`), []byte(`"svt_count": 4`), 1)
	if rewritten, err := os.ReadFile(path); err != nil || !bytes.Equal(rewritten, raw) {
		t.Fatalf("ledger rewritten as\n%s\nwant\n%s (err %v)", rewritten, raw, err)
	}

	// The flat accountant file: three queries, two releases, as tenant 0.
	path, _ = copyFixture(t, "accountant_pr21.json")
	a, err := OpenLedger(path, nil, 0, delta)
	if err != nil {
		t.Fatalf("parent-written accountant file refused: %v", err)
	}
	want = []TenantSpend{replay(0, true, true, false)}
	if got := a.Spends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flat file loaded as %+v, want %+v", got, want)
	}
	// The next spend rewrites it in the versioned shape, which reloads to
	// the same state plus that spend.
	if _, err := a.Commit(0, 0, sigma1, sigma2, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2, err := OpenLedger(path, nil, 0, delta)
	if err != nil {
		t.Fatalf("upgraded accountant file refused: %v", err)
	}
	defer a2.Close()
	want = []TenantSpend{replay(0, true, true, false, false)}
	if got := a2.Spends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("upgraded file reloaded as %+v, want %+v", got, want)
	}
}

// TestLedgerLoadRefusals pins the loader's one-directional rule: a state
// file it cannot account for entry by entry is refused with an error naming
// the path, never loaded with some spend dropped.
func TestLedgerLoadRefusals(t *testing.T) {
	const one = `{"coefficient": 1, "svt_count": 1, "rnm_count": 1}`
	cases := []struct {
		name, state string
		tenants     int // -1: refused
	}{
		{"good file", `{"version": 1, "tenants": {"1": ` + one + `, "-3": ` + one + `}}`, 2},
		{"no tenants yet", `{"version": 1, "tenants": {}}`, 0},
		{"flat accountant", one, 1},
		{"future version", `{"version": 2, "tenants": {"1": ` + one + `}}`, -1},
		{"missing version", `{"tenants": {"1": ` + one + `}}`, -1},
		{"non-canonical key", `{"version": 1, "tenants": {"+1": ` + one + `}}`, -1},
		{"duplicate after normalisation", `{"version": 1, "tenants": {"1": ` + one + `, "01": ` + one + `}}`, -1},
		{"repeated key", `{"version": 1, "tenants": {"1": ` + one + `, "1": ` + one + `}}`, -1},
		{"non-numeric key", `{"version": 1, "tenants": {"alice": ` + one + `}}`, -1},
		{"nil tenant entry", `{"version": 1, "tenants": {"1": null}}`, -1},
		{"negative spend", `{"version": 1, "tenants": {"1": {"coefficient": -1}}}`, -1},
		{"tenants not an object", `{"version": 1, "tenants": [` + one + `]}`, -1},
		{"truncated", `{"version": 1, "tenants": {"1": `, -1},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "ledger.json")
		if err := os.WriteFile(path, []byte(c.state), 0o600); err != nil {
			t.Fatal(err)
		}
		b, err := OpenLedger(path, nil, 0, 1e-6)
		if c.tenants >= 0 {
			if err != nil {
				t.Errorf("%s: refused: %v", c.name, err)
				continue
			}
			if got := len(b.Spends()); got != c.tenants {
				t.Errorf("%s: loaded %d tenants, want %d", c.name, got, c.tenants)
			}
			b.Close()
			continue
		}
		var pe *fs.PathError
		if !errors.As(err, &pe) || pe.Path != path || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: got %v, want an *fs.PathError naming %s", c.name, err, path)
		}
		// A refused file leaves the path unlocked.
		if lock, err := fsx.Acquire(path); err != nil {
			t.Errorf("%s: refusal kept the state lock: %v", c.name, err)
		} else {
			lock.Unlock()
		}
	}
}
