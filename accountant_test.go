package privconsensus

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spendEngine builds a deterministic 4-user engine whose S1 ledger lives at
// path.
func spendEngine(t *testing.T, path string, sigma1, sigma2 float64) *Engine {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Classes = 3
	cfg.Sigma1, cfg.Sigma2 = sigma1, sigma2
	cfg.Seed = 42
	cfg.AccountantPath = path
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// labelAndTrack runs one unanimous query on e and records its spend in
// want, the in-memory reference: SVT always, RNM on a release. It returns
// the batch's reported epsilon next to want's.
func labelAndTrack(t *testing.T, e *Engine, want *Accountant, sigma1, sigma2 float64) (got, wantEps float64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	votes := [][]float64{oneHot(3, 1), oneHot(3, 1), oneHot(3, 1), oneHot(3, 1)}
	res, err := e.LabelBatch(ctx, [][][]float64{votes})
	if err != nil {
		t.Fatalf("LabelBatch: %v", err)
	}
	if err := want.RecordQuery(sigma1); err != nil {
		t.Fatal(err)
	}
	if res.Released == 1 {
		if err := want.RecordRelease(sigma2); err != nil {
			t.Fatal(err)
		}
	}
	wantEps, _, err = want.Epsilon(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return res.Epsilon, wantEps
}

// TestAccountantLoadsParentStateFile points Config.AccountantPath at the
// flat state file the accountant wrote before it became the ledger's
// single-tenant view (internal/dp/testdata, written by that commit: three
// queries at σ₁ = 4, two releases at σ₂ = 2): the engine's batches report
// that spend plus their own, and the upgraded file keeps loading.
func TestAccountantLoadsParentStateFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("internal", "dp", "testdata", "accountant_pr21.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	want := NewAccountant()
	for i := 0; i < 3; i++ {
		if err := want.RecordQuery(4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := want.RecordRelease(2); err != nil {
			t.Fatal(err)
		}
	}
	for _, stage := range []string{"parent-written file", "upgraded file"} {
		if got, wantEps := labelAndTrack(t, spendEngine(t, path, 4, 2), want, 4, 2); got != wantEps {
			t.Fatalf("%s: batch epsilon %g, want %g", stage, got, wantEps)
		}
	}
}

// TestAccountantPersistence holds Config.AccountantPath to its contract:
// the spend accumulates across engines (as across process restarts), a
// malformed row costs nothing and leaves the file byte-identical, and a
// corrupt state file stops the call before any query runs.
func TestAccountantPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	want := NewAccountant()
	for run := 1; run <= 2; run++ {
		if got, wantEps := labelAndTrack(t, spendEngine(t, path, 1.5, 2), want, 1.5, 2); math.Abs(got-wantEps) > 1e-12 {
			t.Fatalf("run %d: batch epsilon %g, want cumulative %g", run, got, wantEps)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{oneHot(3, 1), oneHot(3, 1), {0, 2, 0}, oneHot(3, 1)}
	if _, err := spendEngine(t, path, 1.5, 2).LabelInstance(context.Background(), bad); err == nil {
		t.Fatal("malformed row accepted")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("malformed row changed the ledger (err %v):\n%s\n->\n%s", err, before, after)
	}

	for name, contents := range map[string]string{
		"truncated": `{"coefficient": 1.2`,
		"negative":  `{"coefficient": -1, "svt_count": 0, "rnm_count": 0}`,
		"badcount":  `{"coefficient": 1, "svt_count": -3, "rnm_count": 0}`,
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(contents), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := spendEngine(t, p, 1.5, 2).LabelInstance(context.Background(), [][]float64{
			oneHot(3, 1), oneHot(3, 1), oneHot(3, 1), oneHot(3, 1),
		}); err == nil {
			t.Errorf("%s state file was accepted", name)
		}
	}
}

// TestAccountantPersistFailureFailsCall gives S1's ledger a state file it can
// load but not rewrite: the name is 250 bytes, so the lock file beside it
// (".lock") still fits in the 255-byte name limit but the temporary file of
// the atomic rewrite (".tmp" and a random number) does not, for root too.
// The call must fail instead of reporting a spend the file lacks, and the
// file must be left as it was.
func TestAccountantPersistFailureFailsCall(t *testing.T) {
	dir := t.TempDir()
	labelAndTrack(t, spendEngine(t, filepath.Join(dir, "state.json"), 1.5, 2), NewAccountant(), 1.5, 2)
	before, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.Repeat("s", 250))
	if err := os.WriteFile(path, before, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = spendEngine(t, path, 1.5, 2).LabelInstance(context.Background(), [][]float64{
		oneHot(3, 1), oneHot(3, 1), oneHot(3, 1), oneHot(3, 1),
	})
	if err == nil || !strings.Contains(err.Error(), "ledger did not record") {
		t.Fatalf("LabelInstance with an unwritable ledger: err %v, want the failed spend", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("ledger changed (err %v):\n%s\n->\n%s", err, before, after)
	}
}
