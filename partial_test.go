package privconsensus

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/fsx"
)

// partialEngine builds a deterministic engine with partial participation
// enabled.
func partialEngine(t *testing.T, users, classes int, quorum float64) *Engine {
	t.Helper()
	cfg := DefaultConfig(users)
	cfg.Classes = classes
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.Seed = 42
	cfg.Quorum = quorum
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestEnginePartialParticipation(t *testing.T) {
	e := partialEngine(t, 5, 4, 0.5)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Two absent users (nil rows); the three present all vote class 2, so
	// the fraction threshold 0.6×3 = 1.8 votes is cleared.
	votes := [][]float64{oneHot(4, 2), nil, oneHot(4, 2), nil, oneHot(4, 2)}
	out, err := e.LabelInstance(ctx, votes)
	if err != nil {
		t.Fatalf("LabelInstance: %v", err)
	}
	if !out.Consensus || out.Label != 2 {
		t.Fatalf("outcome %+v, want consensus on 2 over the present subset", out)
	}
	if out.Participants != 3 || out.Dropped != 2 {
		t.Fatalf("participants %d dropped %d, want 3/2", out.Participants, out.Dropped)
	}
}

func TestEngineQuorumNotMet(t *testing.T) {
	e := partialEngine(t, 5, 4, 4)
	ctx := context.Background()
	votes := [][]float64{oneHot(4, 2), nil, oneHot(4, 2), nil, oneHot(4, 2)}
	_, err := e.LabelInstance(ctx, votes)
	if !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("LabelInstance err = %v, want ErrQuorumNotMet", err)
	}
	// Without Quorum set, a nil row stays an input error, not a dropout.
	full := testEngine(t, 3, 4)
	if _, err := full.LabelInstance(ctx, [][]float64{oneHot(4, 1), nil, oneHot(4, 1)}); err == nil {
		t.Fatal("nil row without Quorum should be rejected")
	}
}

func TestEngineAbsoluteThresholdUnderDropout(t *testing.T) {
	// Two of five users vote the same class. Fraction mode scales the
	// threshold to the participants (0.6×2 = 1.2 < 2 → consensus); absolute
	// mode keeps it at 0.6×5 = 3 votes, which two voters cannot clear.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	votes := [][]float64{oneHot(4, 1), nil, oneHot(4, 1), nil, nil}

	frac := partialEngine(t, 5, 4, 0.4)
	out, err := frac.LabelInstance(ctx, votes)
	if err != nil {
		t.Fatalf("fraction mode: %v", err)
	}
	if !out.Consensus || out.Label != 1 {
		t.Fatalf("fraction mode outcome %+v, want consensus on 1", out)
	}

	cfg := frac.Config()
	cfg.AbsoluteThreshold = true
	abs, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine absolute: %v", err)
	}
	out, err = abs.LabelInstance(ctx, votes)
	if err != nil {
		t.Fatalf("absolute mode: %v", err)
	}
	if out.Consensus {
		t.Fatalf("absolute mode outcome %+v, want no consensus at 2 of 5 voters", out)
	}
	if out.Participants != 2 || out.Dropped != 3 {
		t.Fatalf("participants %d dropped %d, want 2/3", out.Participants, out.Dropped)
	}
}

func TestEngineLabelBatchDegraded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accountant.json")
	cfg := DefaultConfig(4)
	cfg.Classes = 3
	// Tiny but non-zero noise: the privacy spend is recorded while the
	// unanimous 4-vs-2.4-vote margin stays deterministic.
	cfg.Sigma1, cfg.Sigma2 = 1e-4, 1e-4
	cfg.Seed = 42
	cfg.Quorum = 2
	cfg.AccountantPath = path
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	batch := [][][]float64{
		{oneHot(3, 1), oneHot(3, 1), oneHot(3, 1), oneHot(3, 1)}, // full participation
		{oneHot(3, 1), nil, nil, nil},                            // 1 < quorum 2
	}
	res, err := e.LabelBatch(ctx, batch)
	if err != nil {
		t.Fatalf("LabelBatch: %v", err)
	}
	if len(res.Failed) != 1 || res.Failed[0].Query != 1 || !errors.Is(res.Failed[0].Err, ErrQuorumNotMet) {
		t.Fatalf("Failed = %+v, want query 1 with ErrQuorumNotMet", res.Failed)
	}
	if !res.Outcomes[0].Consensus || res.Outcomes[0].Label != 1 {
		t.Fatalf("query 0 outcome %+v, want consensus on 1", res.Outcomes[0])
	}
	if res.Outcomes[1].Consensus || res.Outcomes[1].Label != -1 {
		t.Fatalf("query 1 outcome %+v, want failure placeholder", res.Outcomes[1])
	}
	if res.Participants != 4 || res.Dropped != 4 {
		t.Fatalf("batch participants %d dropped %d, want 4/4", res.Participants, res.Dropped)
	}
	// The quorum miss still pays its SVT cost (conservative accounting):
	// two queries recorded, one release.
	q, r := e.Accountant().Counts()
	if q != 2 || r != 1 {
		t.Fatalf("accountant counts %d/%d, want 2 queries / 1 release", q, r)
	}
	if res.Epsilon <= 0 {
		t.Fatalf("Epsilon = %g, want > 0", res.Epsilon)
	}

	// The spend is durable: a fresh engine on the same path resumes from
	// the recorded counts and its batches report cumulative epsilon. The
	// first engine must release its exclusive state lock before the second
	// may open the path.
	if _, err := NewAccountantAt(path); err == nil {
		t.Fatalf("accountant path double-opened while the engine holds the lock")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine reload: %v", err)
	}
	defer e2.Close()
	if q, r := e2.Accountant().Counts(); q != 2 || r != 1 {
		t.Fatalf("reloaded counts %d/%d, want 2/1", q, r)
	}
	eps2, _, err := e2.Accountant().Epsilon(1e-6)
	if err != nil {
		t.Fatalf("Epsilon: %v", err)
	}
	if math.Abs(eps2-res.Epsilon) > 1e-9 {
		t.Fatalf("reloaded epsilon %g != batch epsilon %g", eps2, res.Epsilon)
	}
}

// TestAccountantLoadsParentStateFile loads the flat state file the
// accountant wrote before it became the ledger's single-tenant view
// (internal/dp/testdata, written by that commit: three queries at σ₁ = 4,
// two releases at σ₂ = 2) and requires the identical spend; the next spend
// upgrades the file in place and it keeps loading.
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
	same := func(stage string, got *Accountant) {
		t.Helper()
		gq, gr := got.Counts()
		wq, wr := want.Counts()
		gEps, gAlpha, err := got.Epsilon(1e-6)
		if err != nil {
			t.Fatal(err)
		}
		wEps, wAlpha, _ := want.Epsilon(1e-6)
		if gq != wq || gr != wr || gEps != wEps || gAlpha != wAlpha {
			t.Fatalf("%s: counts %d/%d eps %g alpha %g, want %d/%d eps %g alpha %g",
				stage, gq, gr, gEps, gAlpha, wq, wr, wEps, wAlpha)
		}
	}
	a, err := NewAccountantAt(path)
	if err != nil {
		t.Fatalf("parent-written state file refused: %v", err)
	}
	same("loaded", a)
	if err := a.RecordQuery(4); err != nil {
		t.Fatal(err)
	}
	if err := want.RecordQuery(4); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := NewAccountantAt(path)
	if err != nil {
		t.Fatalf("upgraded state file refused: %v", err)
	}
	defer b.Close()
	same("upgraded and reloaded", b)
}

func TestAccountantPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	a, err := NewAccountantAt(path)
	if err != nil {
		t.Fatalf("NewAccountantAt: %v", err)
	}
	if err := a.RecordQuery(1.5); err != nil {
		t.Fatal(err)
	}
	if err := a.RecordRelease(2.0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("state file not written: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}

	// The exclusive lock rejects a concurrent open of the same state path
	// with a typed error; after Close the path is free again, but the
	// closed accountant refuses further spends.
	if _, err := NewAccountantAt(path); !errors.Is(err, fsx.ErrLocked) {
		t.Fatalf("concurrent open err = %v, want fsx.ErrLocked", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.RecordQuery(1.5); err == nil {
		t.Fatalf("RecordQuery after Close succeeded")
	}
	b, err := NewAccountantAt(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	defer b.Close()
	if q, r := b.Counts(); q != 1 || r != 1 {
		t.Fatalf("reloaded counts %d/%d, want 1/1", q, r)
	}
	epsA, _, err := a.Epsilon(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	epsB, _, err := b.Epsilon(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(epsA-epsB) > 1e-12 {
		t.Fatalf("epsilon changed across reload: %g vs %g", epsA, epsB)
	}

	// Hostile or corrupt state files are rejected up front, not at query
	// time.
	for name, contents := range map[string]string{
		"truncated": `{"coefficient": 1.2`,
		"negative":  `{"coefficient": -1, "svt_count": 0, "rnm_count": 0}`,
		"badcount":  `{"coefficient": 1, "svt_count": -3, "rnm_count": 0}`,
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(contents), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := NewAccountantAt(p); err == nil {
			t.Errorf("%s state file was accepted", name)
		}
	}
}
