package dp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"

	"github.com/privconsensus/privconsensus/internal/fsx"
)

// ErrBudgetExhausted reports that admitting a query would push the
// tenant's cumulative (ε, δ)-DP spend past its quota.
var ErrBudgetExhausted = errors.New("dp: tenant privacy budget exhausted")

// Ledger is the durable per-tenant privacy accountant — the one place ε is
// stored. Admission reserves the worst-case spend of one query (a released
// label) against the tenant's quota; completion commits the actual spend and
// releases the reservation. With a path the committed state is rewritten
// after every commit (write-temp-fsync-rename-fsync) and the path is held
// under an exclusive lock file until Close, so two processes cannot
// interleave — and under-count — spends. Reservations are in-memory only: a
// crash forgets them but never committed spend. Safe for concurrent use.
type Ledger struct {
	mu           sync.Mutex
	path         string
	lock         *fsx.Lock
	tenants      map[int64]*Accountant
	reserved     map[int64]float64 // coefficient reserved by in-flight queries
	quotas       map[int64]float64
	defaultQuota float64
	delta        float64
}

// ledgerVersion is the state-file version this build writes; it also reads
// version 1, whose readers would load a non-private count as private.
const ledgerVersion = 2

// ledgerState is the persisted JSON shape; encoding/json writes the tenant
// keys as decimal strings, sorted as strings.
type ledgerState struct {
	Version int                   `json:"version"`
	Tenants map[int64]*Accountant `json:"tenants"`
}

// OpenLedger builds the ledger, reloading and locking the state file when
// path is non-empty. quotas are per-tenant ε quotas at delta, defaultQuota
// applies to unlisted tenants; 0 is unlimited. A state file that cannot be
// accounted for entry by entry is refused with an *fs.PathError naming it:
// loading it could silently drop recorded spend.
func OpenLedger(path string, quotas map[int64]float64, defaultQuota, delta float64) (*Ledger, error) {
	l := &Ledger{
		path:         path,
		tenants:      make(map[int64]*Accountant),
		reserved:     make(map[int64]float64),
		quotas:       quotas,
		defaultQuota: defaultQuota,
		delta:        delta,
	}
	if path == "" {
		return l, nil
	}
	lock, err := fsx.Acquire(path)
	if err != nil {
		return nil, fmt.Errorf("dp: lock ledger: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err == nil {
		l.tenants, err = parseLedgerState(raw)
	}
	// A missing file is a first run: it appears on the first committed spend.
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		lock.Unlock()
		return nil, &fs.PathError{Op: "dp: load ledger", Path: path, Err: err}
	}
	l.lock = lock
	return l, nil
}

// parseLedgerState decodes a state file. Two shapes load: the versioned
// per-tenant one this package writes, and the flat single-accountant one
// ({"coefficient", "svt_count", "rnm_count"}) the root Accountant used to
// write, read as tenant 0. Anything that could under-count is refused: a
// version other than 1 or ledgerVersion, and a tenant key that is not the
// canonical decimal of its value or appears twice — "1" and "01" would
// otherwise collapse into one tenant, the later entry replacing the
// earlier one's spend.
func parseLedgerState(raw []byte) (map[int64]*Accountant, error) {
	var st struct {
		Version int             `json:"version"`
		Tenants json.RawMessage `json:"tenants"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	tenants := make(map[int64]*Accountant)
	if st.Version == 0 && st.Tenants == nil {
		acct := new(Accountant)
		if err := json.Unmarshal(raw, acct); err != nil {
			return nil, err
		}
		tenants[0] = acct
		return tenants, nil
	}
	if st.Version != 1 && st.Version != ledgerVersion {
		return nil, fmt.Errorf("state version %d, this build reads only versions 1 and %d", st.Version, ledgerVersion)
	}
	// Walk the tenants object token by token: decoding into a Go map would
	// let a repeated key overwrite the earlier entry unnoticed.
	dec := json.NewDecoder(bytes.NewReader(st.Tenants))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return nil, errors.New("tenants is not an object")
	}
	for dec.More() {
		tok, _ := dec.Token() // json.Unmarshal above vouched for the syntax
		key, _ := tok.(string)
		id, err := strconv.ParseInt(key, 10, 64)
		if err != nil || strconv.FormatInt(id, 10) != key {
			return nil, fmt.Errorf("tenant key %q is not a canonical decimal tenant ID", key)
		}
		if _, dup := tenants[id]; dup {
			return nil, fmt.Errorf("tenant %d appears twice", id)
		}
		var acct *Accountant
		if err := dec.Decode(&acct); err != nil {
			return nil, fmt.Errorf("tenant %d: %w", id, err)
		}
		if acct == nil {
			return nil, fmt.Errorf("tenant %d has no state", id)
		}
		tenants[id] = acct
	}
	return tenants, nil
}

// Close releases the state lock so another ledger may open the path. The
// in-memory view stays readable; further commits are refused. Idempotent,
// and a no-op for in-memory ledgers.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lock == nil {
		return nil
	}
	lock := l.lock
	l.lock = nil
	return lock.Unlock()
}

// quota returns tenant's ε quota (0 = unlimited).
func (l *Ledger) quota(tenant int64) float64 {
	if q, ok := l.quotas[tenant]; ok {
		return q
	}
	return l.defaultQuota
}

// projectedLocked returns the ε at δ tenant would have spent if cost were
// committed on top of its committed and reserved spend (only a tenant with
// no quota reserves a non-private spend). Callers hold mu.
func (l *Ledger) projectedLocked(tenant int64, cost Spend) (float64, error) {
	var projected Accountant
	if acct := l.tenants[tenant]; acct != nil {
		projected = *acct
	}
	projected.Add(Spend{Coefficient: l.reserved[tenant]})
	projected.Add(cost)
	eps, _, err := projected.Epsilon(l.delta)
	return eps, err
}

// Reserve admits cost against tenant's quota: it fails with
// ErrBudgetExhausted when the committed + already-reserved + new spend
// would exceed the quota at δ — always, under a finite quota, for a
// non-private spend — otherwise it records the reservation.
func (l *Ledger) Reserve(tenant int64, cost Spend) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if quota := l.quota(tenant); quota > 0 {
		eps, err := l.projectedLocked(tenant, cost)
		if err != nil {
			return fmt.Errorf("dp: project tenant %d spend: %w", tenant, err)
		}
		if math.IsInf(eps, 1) {
			return fmt.Errorf("%w: tenant %d: non-private spend (a σ the mechanism uses is 0) projects eps +Inf > quota %.4g",
				ErrBudgetExhausted, tenant, quota)
		}
		if eps > quota {
			return fmt.Errorf("%w: tenant %d projected eps %.4g > quota %.4g (delta %g)",
				ErrBudgetExhausted, tenant, eps, quota, l.delta)
		}
	}
	l.reserved[tenant] += cost.Coefficient
	return nil
}

// Unreserve releases a reservation without committing spend (the
// admission was rolled back before the query registered).
func (l *Ledger) Unreserve(tenant int64, cost Spend) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.releaseLocked(tenant, cost.Coefficient)
}

func (l *Ledger) releaseLocked(tenant int64, cost float64) {
	if r := l.reserved[tenant] - cost; r > 1e-12 {
		l.reserved[tenant] = r
	} else {
		delete(l.reserved, tenant)
	}
}

// Commit records one finished query's spend, releases its reservation of
// cost, persists the ledger and returns the tenant's committed ε at the
// ledger's δ. A closed durable ledger refuses the spend (it would race
// whichever ledger now owns the path); otherwise the spend is recorded in
// memory even when persistence fails, so the live view only ever
// over-counts the durable state.
func (l *Ledger) Commit(tenant int64, cost, spent Spend) (float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	acct := l.tenants[tenant]
	if acct == nil {
		acct = NewAccountant()
	}
	var err error
	if l.path != "" && l.lock == nil {
		err = fmt.Errorf("dp: ledger %s is closed", l.path)
	} else {
		l.tenants[tenant] = acct
		acct.Add(spent)
		l.releaseLocked(tenant, cost.Coefficient)
		err = l.persistLocked()
	}
	eps, _, _ := acct.Epsilon(l.delta)
	return eps, err
}

// persistLocked rewrites the state file (fsync + atomic rename). Callers
// hold mu and have checked the ledger is open.
func (l *Ledger) persistLocked() error {
	if l.path == "" {
		return nil
	}
	raw, err := json.MarshalIndent(ledgerState{Version: ledgerVersion, Tenants: l.tenants}, "", "  ")
	if err != nil {
		return fmt.Errorf("dp: encode ledger: %w", err)
	}
	if err := fsx.WriteFileSync(l.path, append(raw, '\n'), 0o600); err != nil {
		return fmt.Errorf("dp: persist ledger: %w", err)
	}
	return nil
}

// Exhausted reports whether every tenant with a finite quota can no
// longer afford one more query of the given cost — the healthz
// budget-exhausted readiness condition. With no finite quotas it is
// always false.
func (l *Ledger) Exhausted(cost Spend) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	finite := l.defaultQuota > 0
	if finite && !cost.NonPrivate {
		// Unlisted tenants admit under the default quota, so the service
		// as a whole is exhausted for fresh tenants only by a query no
		// quota affords.
		return false
	}
	for tenant, quota := range l.quotas {
		if quota <= 0 {
			continue
		}
		finite = true
		if eps, err := l.projectedLocked(tenant, cost); err != nil || eps <= quota {
			return false
		}
	}
	return finite
}

// TenantSpend is one tenant's committed ledger state, exported for
// reports and the soak's journal-replay assertion.
type TenantSpend struct {
	Tenant      int64   `json:"tenant"`
	Coefficient float64 `json:"coefficient"`
	Queries     int     `json:"queries"`
	Releases    int     `json:"releases"`
	Epsilon     float64 `json:"epsilon"`
}

// Spends returns the committed per-tenant state, sorted by tenant ID.
func (l *Ledger) Spends() []TenantSpend {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TenantSpend, 0, len(l.tenants))
	for id, acct := range l.tenants {
		q, r := acct.Counts()
		ts := TenantSpend{Tenant: id, Coefficient: acct.Coefficient(), Queries: q, Releases: r}
		if eps, _, err := acct.Epsilon(l.delta); err == nil {
			ts.Epsilon = eps
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
