package dp

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// FuzzLedgerLoad feeds arbitrary bytes to the one ε state loader. It must
// never panic; whatever it accepts must survive a persist and reload with
// identical spend; and it may never load fewer tenants than the file names
// with distinct canonical keys — the loader errs towards refusing, never
// towards dropping spend.
func FuzzLedgerLoad(f *testing.F) {
	for _, name := range []string{"ledger_pr21.json", "accountant_pr21.json"} {
		seed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"version": 1, "tenants": {"1": {"coefficient": 1}, "01": {"coefficient": 2}}}`))
	f.Add([]byte(`{"version": 2, "tenants": {}}`))
	f.Add([]byte(`{"version": 2, "tenants": {"3": {"coefficient": 0.5, "svt_count": 2, "rnm_count": 1, "non_private_count": 1}}}`))
	f.Add([]byte(`{"version": 2, "tenants": {"3": {"coefficient": 0.5, "svt_count": 2, "non_private_count": -1}}}`))
	f.Add([]byte(`{"version": 3, "tenants": {}}`))
	f.Add([]byte(`{"version": 1, "tenants": {"7": null}}`))
	f.Fuzz(func(t *testing.T, state []byte) {
		// The parser is the only code that reads the bytes; what it refuses
		// needs no file.
		tenants, err := parseLedgerState(state)
		if err != nil {
			return
		}
		for id, acct := range tenants {
			if acct.nonPrivate < 0 {
				t.Fatalf("tenant %d loaded with non-private count %d", id, acct.nonPrivate)
			}
		}
		path := filepath.Join(t.TempDir(), "ledger.json")
		if err := os.WriteFile(path, state, 0o600); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLedger(path, nil, 0, 1e-6)
		if err != nil {
			t.Fatalf("parsed state refused as a file: %v", err)
		}
		defer l.Close()
		loaded := l.Spends()

		var named struct {
			Tenants map[string]json.RawMessage `json:"tenants"`
		}
		canonical := 0
		if json.Unmarshal(state, &named) == nil {
			for key := range named.Tenants {
				if id, err := strconv.ParseInt(key, 10, 64); err == nil && strconv.FormatInt(id, 10) == key {
					canonical++
				}
			}
		}
		if len(loaded) < canonical {
			t.Fatalf("loaded %d tenants from a file naming %d canonical ones", len(loaded), canonical)
		}
		if len(loaded) == 0 {
			return
		}
		// A zero-noise query adds no coefficient and rewrites the file; it
		// counts as one more query of its tenant, whose ε is then +Inf.
		spend, err := QuerySpend(0, 0, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Commit(loaded[0].Tenant, Spend{}, spend); err != nil {
			t.Fatal(err)
		}
		loaded[0].Queries++
		loaded[0].Epsilon = math.Inf(1)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		reloaded, err := OpenLedger(path, nil, 0, 1e-6)
		if err != nil {
			t.Fatalf("own rewrite refused: %v", err)
		}
		defer reloaded.Close()
		if got := reloaded.Spends(); !reflect.DeepEqual(got, loaded) {
			t.Fatalf("reloaded %+v, loaded %+v", got, loaded)
		}
	})
}
