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
	a.Add(Spend{Coefficient: cost * float64(n)})
	eps, _, err := a.Epsilon(delta)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// spendOf prices one query through QuerySpend.
func spendOf(t *testing.T, sigma1, sigma2 float64, consensus, released bool) Spend {
	t.Helper()
	s, err := QuerySpend(sigma1, sigma2, consensus, released)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLedgerQuotaRefusesAtProjection(t *testing.T) {
	const (
		sigma1, sigma2 = 4.0, 2.0
		delta          = 1e-6
	)
	cost := spendOf(t, sigma1, sigma2, true, true)
	if want := 9/(2*sigma1*sigma1) + 1/(sigma2*sigma2); math.Abs(cost.Coefficient-want) > 1e-15 {
		t.Fatalf("worst-case coefficient = %g, want %g", cost.Coefficient, want)
	}
	// A quota between one and two queries' spend admits exactly one.
	quota := (epsAfter(t, cost.Coefficient, 1, delta) + epsAfter(t, cost.Coefficient, 2, delta)) / 2
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
	if _, err := b.Commit(9, cost, cost); err != nil {
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
	cost := spendOf(t, sigma1, sigma2, true, true)
	b, err := OpenLedger("", nil, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	// Three queries, two of which released a label.
	for i, released := range []bool{true, false, true} {
		if err := b.Reserve(7, cost); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		if _, err := b.Commit(7, cost, spendOf(t, sigma1, sigma2, true, released)); err != nil {
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

// A zero sigma the mechanism uses makes a query non-private, not free: the
// ledger counts every committed query and release, keeps the coefficient of
// the noised terms, reads ε = +Inf from the first non-private spend on, and
// the state survives a reload. Under a finite quota such a query is refused
// before it reserves anything. (The root TestEpsilonZeroSigmaRule holds
// every path that prices a query to the same rule.)
func TestLedgerCountsZeroNoiseQueries(t *testing.T) {
	const delta = 1e-6
	path := filepath.Join(t.TempDir(), "ledger.json")
	b, err := OpenLedger(path, map[int64]float64{4: 100}, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tenant         int64
		sigma1, sigma2 float64
		released       bool
	}{
		{1, 0, 0, true}, {1, 0, 0, false}, // no noise at all
		{2, 0, 2, true}, {2, 0, 2, false}, // no SVT noise
		{3, 4, 0, false}, {3, 4, 0, true}, // no RNM noise: private until a release
	} {
		spend := spendOf(t, c.sigma1, c.sigma2, true, c.released)
		if err := b.Reserve(c.tenant, spendOf(t, c.sigma1, c.sigma2, true, true)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Commit(c.tenant, spendOf(t, c.sigma1, c.sigma2, true, true), spend); err != nil {
			t.Fatal(err)
		}
		if c.tenant == 3 && !c.released {
			if got := b.Spends()[2].Epsilon; math.IsInf(got, 1) || got <= 0 {
				t.Errorf("a threshold check at σ1 = 4 with no release spent ε %g, want finite", got)
			}
		}
	}
	inf := math.Inf(1)
	want := []TenantSpend{
		{Tenant: 1, Queries: 2, Releases: 1, Epsilon: inf},
		{Tenant: 2, Coefficient: 1.0 / 4, Queries: 2, Releases: 1, Epsilon: inf},
		{Tenant: 3, Coefficient: 2 * 9.0 / 32, Queries: 2, Releases: 1, Epsilon: inf},
	}
	check := func(l *Ledger, when string) {
		t.Helper()
		if got := l.Spends(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: spends %+v, want %+v", when, got, want)
		}
	}
	check(b, "live")
	// A finite quota refuses a non-private query outright.
	if err := b.Reserve(4, spendOf(t, 0, 2, true, true)); !errors.Is(err, ErrBudgetExhausted) || !strings.Contains(err.Error(), "non-private") {
		t.Errorf("non-private reservation under a quota: got %v, want a non-private ErrBudgetExhausted", err)
	}
	if len(b.reserved) != 0 {
		t.Errorf("reservations left behind: %v", b.reserved)
	}
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
	cost := spendOf(t, sigma1, sigma2, true, true)
	path := filepath.Join(t.TempDir(), "ledger.json")
	b, err := OpenLedger(path, nil, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(3, cost); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(3, cost, cost); err != nil {
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
	cost := spendOf(t, sigma1, sigma2, true, true)
	quota := (epsAfter(t, cost.Coefficient, 1, delta) + epsAfter(t, cost.Coefficient, 2, delta)) / 2
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
		if _, err := b.Commit(tenant, cost, cost); err != nil {
			t.Fatal(err)
		}
	}
	if !b.Exhausted(cost) {
		t.Fatal("ledger with every quota spent does not report exhaustion")
	}
	// An open default quota keeps the service admitting fresh tenants...
	b.defaultQuota = quota
	if b.Exhausted(cost) {
		t.Fatal("ledger with an open default quota reports exhaustion")
	}
	// ...unless the query is non-private, which no quota affords.
	if nonPrivate := spendOf(t, 0, sigma2, true, true); !b.Exhausted(nonPrivate) {
		t.Fatal("a default quota does not report exhaustion for a non-private query")
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
	// A zero-noise query rewrites the file in the same layout at version 2:
	// the parent's bytes with tenant 1's query count one higher and its
	// non-private count, which a version-1 reader would not know, set.
	if _, err := b.Commit(1, Spend{}, spendOf(t, 0, 0, true, false)); err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"version": 1`), []byte(`"version": 2`), 1)
	raw = bytes.Replace(raw, []byte("\"svt_count\": 3,\n      \"rnm_count\": 2\n"),
		[]byte("\"svt_count\": 4,\n      \"rnm_count\": 2,\n      \"non_private_count\": 1\n"), 1)
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
	if _, err := a.Commit(0, Spend{}, spendOf(t, sigma1, sigma2, true, false)); err != nil {
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
		{"version 2", `{"version": 2, "tenants": {"1": {"coefficient": 1, "svt_count": 1, "rnm_count": 1, "non_private_count": 1}}}`, 1},
		{"future version", `{"version": 3, "tenants": {"1": ` + one + `}}`, -1},
		{"missing version", `{"tenants": {"1": ` + one + `}}`, -1},
		{"non-canonical key", `{"version": 1, "tenants": {"+1": ` + one + `}}`, -1},
		{"duplicate after normalisation", `{"version": 1, "tenants": {"1": ` + one + `, "01": ` + one + `}}`, -1},
		{"repeated key", `{"version": 1, "tenants": {"1": ` + one + `, "1": ` + one + `}}`, -1},
		{"non-numeric key", `{"version": 1, "tenants": {"alice": ` + one + `}}`, -1},
		{"nil tenant entry", `{"version": 1, "tenants": {"1": null}}`, -1},
		{"negative spend", `{"version": 1, "tenants": {"1": {"coefficient": -1}}}`, -1},
		{"negative non-private count", `{"version": 2, "tenants": {"1": {"coefficient": 1, "non_private_count": -1}}}`, -1},
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
