package privconsensus

import (
	"context"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/keystore"
)

// testEngine builds a small deterministic engine for tests.
func testEngine(t *testing.T, users, classes int) *Engine {
	t.Helper()
	cfg := DefaultConfig(users)
	cfg.Classes = classes
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.Seed = 42
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// oneHot returns a one-hot vote vector.
func oneHot(classes, label int) []float64 {
	v := make([]float64, classes)
	v[label] = 1
	return v
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("expected error for zero users")
	}
	bad := DefaultConfig(5)
	bad.ThresholdFrac = 2
	if _, err := NewEngine(bad); err == nil {
		t.Error("expected error for threshold > 1")
	}
	bad = DefaultConfig(5)
	bad.PaillierBits = 8
	if _, err := NewEngine(bad); err == nil {
		t.Error("expected error for tiny Paillier key")
	}
}

// TestEngineKeyFileMatchesKeygen holds the engine and cmd/keygen to one key
// shape: for the same sizes, keygen's s1.json and the engine's S1 key file
// embed the same protocol configuration, packing mode included.
func TestEngineKeyFileMatchesKeygen(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool on PATH to build cmd/keygen: %v", err)
	}
	keygen := filepath.Join(t.TempDir(), "keygen")
	build := exec.Command(gotool, "build", "-o", keygen, "./cmd/keygen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build keygen: %v\n%s", err, out)
	}
	for _, size := range []struct {
		paillier, dgk int
		packed        bool
	}{{64, 192, false}, {256, 160, true}} {
		dir := t.TempDir()
		run := exec.Command(keygen, "-out", dir, "-users", "4", "-classes", "3", "-threshold", "0.5",
			"-sigma1", "1", "-sigma2", "2", "-paillier-bits", strconv.Itoa(size.paillier), "-dgk-bits", strconv.Itoa(size.dgk))
		if out, err := run.CombinedOutput(); err != nil {
			t.Fatalf("keygen: %v\n%s", err, out)
		}
		var fromKeygen keystore.S1File
		if err := keystore.Load(filepath.Join(dir, "s1.json"), &fromKeygen); err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(Config{Classes: 3, Users: 4, ThresholdFrac: 0.5, Sigma1: 1, Sigma2: 2,
			PaillierBits: size.paillier, DGKBits: size.dgk, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		fromEngine := e.s1
		if fromEngine.Config != fromKeygen.Config || fromKeygen.Config.Packing != size.packed {
			t.Errorf("%d/%d bits: engine key file config\n%+v\nkeygen's\n%+v\n(want packing %v)",
				size.paillier, size.dgk, fromEngine.Config, fromKeygen.Config, size.packed)
		}
	}
}

func TestEngineLabelInstanceConsensus(t *testing.T) {
	e := testEngine(t, 5, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	votes := [][]float64{
		oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 1),
	}
	out, err := e.LabelInstance(ctx, votes)
	if err != nil {
		t.Fatalf("LabelInstance: %v", err)
	}
	if !out.Consensus || out.Label != 2 {
		t.Fatalf("outcome %+v, want consensus on 2", out)
	}
}

func TestEngineLabelInstanceNoConsensus(t *testing.T) {
	e := testEngine(t, 5, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	votes := [][]float64{
		oneHot(4, 0), oneHot(4, 1), oneHot(4, 2), oneHot(4, 3), oneHot(4, 0),
	}
	out, err := e.LabelInstance(ctx, votes)
	if err != nil {
		t.Fatalf("LabelInstance: %v", err)
	}
	if out.Consensus || out.Label != -1 {
		t.Fatalf("outcome %+v, want no consensus", out)
	}
}

func TestEngineVoteValidation(t *testing.T) {
	e := testEngine(t, 3, 4)
	ctx := context.Background()
	good := oneHot(4, 0)
	for name, row := range map[string][]float64{
		"wrong vote length": {1, 0},
		"vote > 1":          {2, 0, 0, 0},
		"negative vote":     {-0.5, 0, 0, 0},
		"NaN vote":          {math.NaN(), 0, 0, 0},
		"absent user":       nil,
	} {
		if _, err := e.LabelInstance(ctx, [][]float64{good, row, good}); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	if _, err := e.LabelInstance(ctx, [][]float64{good}); err == nil {
		t.Error("expected error for wrong user count")
	}
}

// TestEngineLabelBatch runs two batches on one engine after a call whose
// context was already cancelled: every pair zeroizes its copy of S2's keys
// on exit and shares the engine's kept S1 keys, and each later call must
// still run.
func TestEngineLabelBatch(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Classes = 3
	cfg.Sigma1, cfg.Sigma2 = 0.5, 0.5
	cfg.Seed = 77
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	batch := [][][]float64{
		{oneHot(3, 0), oneHot(3, 0), oneHot(3, 0), oneHot(3, 0)}, // unanimous
		{oneHot(3, 0), oneHot(3, 1), oneHot(3, 2), oneHot(3, 1)}, // split
	}
	cancelled, stop := context.WithCancel(ctx)
	stop()
	if _, err := e.LabelBatch(cancelled, batch); err == nil {
		t.Fatal("LabelBatch on a cancelled context succeeded")
	}
	for call := 1; call <= 2; call++ {
		res, err := e.LabelBatch(ctx, batch)
		if err != nil {
			t.Fatalf("call %d: LabelBatch: %v", call, err)
		}
		if len(res.Outcomes) != 2 || len(res.Failed) != 0 {
			t.Fatalf("call %d: %+v, want 2 outcomes and no failures", call, res)
		}
		if !res.Outcomes[0].Consensus || res.Outcomes[0].Label != 0 {
			t.Errorf("call %d: unanimous batch entry gave %+v, want consensus on 0", call, res.Outcomes[0])
		}
		if res.Released < 1 || res.Epsilon <= 0 {
			t.Errorf("call %d: released %d, epsilon %g: spend not tracked", call, res.Released, res.Epsilon)
		}
	}
	res, err := e.LabelBatch(ctx, nil)
	if err != nil || len(res.Outcomes) != 0 || res.Epsilon != 0 {
		t.Fatalf("empty batch: %+v, %v; want an empty result", res, err)
	}
}

// TestEngineSeedDeterministic holds Config.Seed to its promise: two engines
// with one seed release the same labels for the same noisy batch.
func TestEngineSeedDeterministic(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Classes = 3
	cfg.Sigma1, cfg.Sigma2 = 3, 3
	cfg.Seed = 11
	batch := make([][][]float64, 8)
	for q := range batch {
		batch[q] = [][]float64{oneHot(3, q%3), oneHot(3, q%3), oneHot(3, (q+1)%3), oneHot(3, q%3)}
	}
	var first []Outcome
	for run := 0; run < 2; run++ {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.LabelBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res.Outcomes
		} else if !slices.Equal(first, res.Outcomes) {
			t.Fatalf("same seed, different outcomes:\n%v\n%v", first, res.Outcomes)
		}
	}
}

func TestAccountantFlow(t *testing.T) {
	acc := NewAccountant()
	for i := 0; i < 50; i++ {
		if err := acc.RecordQuery(4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := acc.RecordRelease(4); err != nil {
			t.Fatal(err)
		}
	}
	eps, alpha, err := acc.Epsilon(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 || alpha <= 1 {
		t.Errorf("eps=%g alpha=%g", eps, alpha)
	}
	if err := acc.RecordQuery(0); err == nil {
		t.Error("expected error for sigma 0")
	}
}

func TestQueryEpsilonMatchesPaperForm(t *testing.T) {
	sigma1, sigma2, delta := 5.0, 4.0, 1e-6
	eps, err := QueryEpsilon(sigma1, sigma2, delta)
	if err != nil {
		t.Fatal(err)
	}
	c := 9/(2*sigma1*sigma1) + 1/(sigma2*sigma2)
	want := math.Sqrt(2*(9/(sigma1*sigma1)+2/(sigma2*sigma2))*math.Log(1/delta)) + c
	if math.Abs(eps-want) > 1e-12 {
		t.Errorf("QueryEpsilon = %g, want %g", eps, want)
	}
}

func TestPlanNoise(t *testing.T) {
	m, err := PlanNoise(8.19, 1e-6, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 {
		t.Errorf("multiplier %g", m)
	}
	acc := NewAccountant()
	for i := 0; i < 200; i++ {
		if err := acc.RecordQuery(m); err != nil {
			t.Fatal(err)
		}
		if err := acc.RecordRelease(m); err != nil {
			t.Fatal(err)
		}
	}
	eps, _, err := acc.Epsilon(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if eps > 8.19*1.0001 {
		t.Errorf("planned noise overspends: eps=%g", eps)
	}
}

func TestRunPATEMulticlass(t *testing.T) {
	res, err := RunPATE(PATEConfig{
		Dataset:      "mnist",
		Scale:        0.008,
		Users:        8,
		Division:     "even",
		Queries:      60,
		UseConsensus: true,
		Sigma1:       3,
		Sigma2:       3,
		Seed:         5,
		Epochs:       8,
	})
	if err != nil {
		t.Fatalf("RunPATE: %v", err)
	}
	if res.UserAccMean <= 0.3 {
		t.Errorf("teachers too weak: %+v", res)
	}
	if res.Retention <= 0 || res.Retention > 1 {
		t.Errorf("retention out of range: %+v", res)
	}
	if res.Epsilon <= 0 {
		t.Errorf("epsilon missing: %+v", res)
	}
}

func TestRunPATECelebA(t *testing.T) {
	res, err := RunPATE(PATEConfig{
		Dataset:      "celeba",
		Scale:        0.002,
		Users:        6,
		Division:     "2-8",
		Queries:      20,
		UseConsensus: true,
		Sigma1:       2,
		Sigma2:       2,
		Seed:         6,
		Epochs:       4,
	})
	if err != nil {
		t.Fatalf("RunPATE celeba: %v", err)
	}
	if res.LabelAccuracy <= 0.5 {
		t.Errorf("celeba label accuracy %g", res.LabelAccuracy)
	}
	if res.MajorityAcc == 0 || res.MinorityAcc == 0 {
		t.Errorf("group accuracies missing: %+v", res)
	}
}

// TestPATEEpsilonZeroSigmaRule holds both tasks to one ε rule: consensus
// pays SVT(σ1) on every decision and RNM(σ2) on every released label, the
// baseline RNM(σ2) on every decision and nothing for σ1; a zero σ the
// mechanism uses reports ε = 0.
func TestPATEEpsilonZeroSigmaRule(t *testing.T) {
	const queries = 20
	for _, task := range []struct {
		dataset   string
		decisions int // per query
	}{{"mnist", 1}, {"celeba", 40}} {
		for _, consensus := range []bool{true, false} {
			baseline := map[float64]float64{} // σ2 → the baseline's ε
			for _, sigma1 := range []float64{0, 4} {
				for _, sigma2 := range []float64{0, 4} {
					res, err := RunPATE(PATEConfig{Dataset: task.dataset, Scale: 0.004, Users: 6, Queries: queries,
						UseConsensus: consensus, Sigma1: sigma1, Sigma2: sigma2, Seed: 3, Epochs: 2})
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s consensus=%v σ1=%g σ2=%g", task.dataset, consensus, sigma1, sigma2)
					want := 0.0
					if sigma2 > 0 && (!consensus || sigma1 > 0) {
						decisions := queries * task.decisions
						acc := dp.NewAccountant()
						rnm := decisions
						if consensus {
							for range decisions {
								_ = acc.AddSVT(sigma1)
							}
							rnm = res.Retained
						}
						for range rnm {
							_ = acc.AddRNM(sigma2)
						}
						want, _, _ = acc.Epsilon(1e-6)
					}
					if math.Abs(res.Epsilon-want) > 1e-9*want || (want == 0) != (res.Epsilon == 0) {
						t.Errorf("%s: ε = %v, want %v", name, res.Epsilon, want)
					}
					if consensus {
						continue
					}
					if prev, ok := baseline[sigma2]; ok && prev != res.Epsilon {
						t.Errorf("%s: baseline ε %v depends on σ1 (%v at σ1=0)", name, res.Epsilon, prev)
					}
					baseline[sigma2] = res.Epsilon
				}
			}
		}
	}
}

func TestRunPATEValidation(t *testing.T) {
	if _, err := RunPATE(PATEConfig{Dataset: "bogus", Scale: 0.01, Users: 3, Queries: 10}); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if _, err := RunPATE(PATEConfig{Dataset: "mnist", Scale: 0.01, Users: 3, Queries: 10, Division: "5-5"}); err == nil {
		t.Error("expected error for unknown division")
	}
	if _, err := RunPATE(PATEConfig{Dataset: "mnist", Scale: 0.01, Users: 3, Queries: 10, VoteType: "fuzzy"}); err == nil {
		t.Error("expected error for unknown vote type")
	}
}
