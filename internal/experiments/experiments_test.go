package experiments

import (
	"math/rand"
	"testing"

	"github.com/privconsensus/privconsensus/internal/ml"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

// tinyOptions keeps the accuracy experiments fast in unit tests.
func tinyOptions() Options {
	return Options{
		Scale:   0.008,
		Queries: 60,
		Users:   []int{5, 10},
		Reps:    1,
		Seed:    3,
		Train:   ml.TrainConfig{Epochs: 8, LearnRate: 0.3, L2: 1e-4, BatchSize: 16},
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	if err := FullOptions().Validate(); err != nil {
		t.Errorf("full options invalid: %v", err)
	}
	bad := DefaultOptions()
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero scale")
	}
	bad = DefaultOptions()
	bad.Users = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for no user counts")
	}
}

func TestPrivacyLevelsOrdered(t *testing.T) {
	levels := PrivacyLevels()
	if len(levels) < 2 {
		t.Fatal("need multiple privacy levels")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].Sigma1 <= levels[i-1].Sigma1 {
			t.Error("privacy levels should increase in noise")
		}
	}
}

func TestSpecByName(t *testing.T) {
	if _, err := specByName("mnist"); err != nil {
		t.Error(err)
	}
	if _, err := specByName("bogus"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestProtocolBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto protocol bench is slow in -short mode")
	}
	cfg := ProtocolBenchConfig{Instances: 1, Users: 4, Classes: 4, Seed: 5, ForceConsensus: true}
	res, err := ProtocolBench(cfg)
	if err != nil {
		t.Fatalf("ProtocolBench: %v", err)
	}
	if len(res.Steps) != 6 {
		t.Fatalf("expected 6 step rows, got %d", len(res.Steps))
	}
	if res.UserToServerBytes <= 0 || res.UserToServerBytes2 <= 0 {
		t.Errorf("user-to-server bytes not recorded: %+v", res)
	}
	if res.Overall <= 0 {
		t.Error("overall time not recorded")
	}
	// Table II shape: comparison traffic exceeds blind-and-permute and
	// restoration traffic.
	byStep := map[string]StepRow{}
	for _, s := range res.Steps {
		byStep[s.Step] = s
	}
	cmp := byStep[protocol.StepCompare1].AvgBytesPerParty
	bp := byStep[protocol.StepBlindPerm1].AvgBytesPerParty
	restore := byStep[protocol.StepRestoration].AvgBytesPerParty
	if res.Consensus > 0 {
		if cmp <= bp {
			t.Errorf("comparison bytes %d should exceed blind-and-permute bytes %d", cmp, bp)
		}
		if cmp <= restore {
			t.Errorf("comparison bytes %d should exceed restoration bytes %d", cmp, restore)
		}
	}
	if _, err := ProtocolBench(ProtocolBenchConfig{}); err == nil {
		t.Error("expected error for zero config")
	}
}

func TestTable3Shape(t *testing.T) {
	cells, err := Table3(tinyOptions())
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	// 2 user counts x 3 divisions.
	if len(cells) != 6 {
		t.Fatalf("expected 6 cells, got %d", len(cells))
	}
	for _, c := range cells {
		if c.Retention < 0 || c.Retention > 1 {
			t.Errorf("cell %+v: retention out of range", c)
		}
		if c.LabelAcc < 0 || c.LabelAcc > 1 {
			t.Errorf("cell %+v: label accuracy out of range", c)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	figs, err := Fig2(tinyOptions())
	if err != nil {
		t.Fatalf("Fig2: %v", err)
	}
	if len(figs) != 4 {
		t.Fatalf("expected 4 subfigures, got %d", len(figs))
	}
	if figs[0].ID != "fig2a" || len(figs[0].Series) != 2 {
		t.Errorf("fig2a malformed: %+v", figs[0])
	}
	// Uneven figures carry majority/minority series per dataset.
	if len(figs[1].Series) != 4 {
		t.Errorf("fig2b expected 4 series, got %d", len(figs[1].Series))
	}
	for _, f := range figs {
		for _, s := range f.Series {
			if len(s.X) != len(s.Y) || len(s.X) == 0 {
				t.Errorf("%s series %s malformed", f.ID, s.Name)
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	opts := tinyOptions()
	opts.Users = []int{6}
	figs, err := Fig3(opts)
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if len(figs) != 4 {
		t.Fatalf("expected 4 subfigures, got %d", len(figs))
	}
	// 3 privacy levels x 2 methods.
	if len(figs[0].Series) != 6 {
		t.Errorf("expected 6 series, got %d", len(figs[0].Series))
	}
}

func TestFig4Shape(t *testing.T) {
	opts := tinyOptions()
	opts.Users = []int{6}
	figs, err := Fig4(opts)
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if len(figs) != 4 {
		t.Fatalf("expected 4 subfigures, got %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != len(PrivacyLevels()) {
			t.Errorf("%s: expected %d series, got %d", f.ID, len(PrivacyLevels()), len(f.Series))
		}
	}
}

func TestFig5Shape(t *testing.T) {
	opts := tinyOptions()
	opts.Users = []int{6}
	figs, err := Fig5(opts)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(figs) != 4 {
		t.Fatalf("expected 4 subfigures, got %d", len(figs))
	}
	// Threshold sweeps span the configured thresholds.
	if got := len(figs[0].Series[0].X); got != len(Fig5Thresholds()) {
		t.Errorf("threshold sweep has %d points", got)
	}
}

func TestFig3EpsilonMatched(t *testing.T) {
	opts := tinyOptions()
	opts.Users = []int{8}
	cells, err := Fig3EpsilonMatched(opts)
	if err != nil {
		t.Fatalf("Fig3EpsilonMatched: %v", err)
	}
	if len(cells) != len(PrivacyLevels()) {
		t.Fatalf("expected %d cells, got %d", len(PrivacyLevels()), len(cells))
	}
	for _, c := range cells {
		if c.Epsilon <= 0 || c.BaselineSigma <= 0 {
			t.Errorf("cell %+v: epsilon/sigma not computed", c)
		}
		// The matched baseline uses *less* noise than the consensus RNM
		// (it skips the SVT spend), so its sigma must be smaller than
		// sigma2... relative to the per-query budget. Sanity: positive
		// accuracies.
		if c.ConsensusLabelAcc <= 0 || c.BaselineLabelAcc <= 0 {
			t.Errorf("cell %+v: label accuracies missing", c)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	opts := tinyOptions()
	opts.Users = []int{5}
	opts.Queries = 20
	opts.Scale = 0.003
	figs, err := Fig6(opts)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(figs) != 4 {
		t.Fatalf("expected 4 subfigures, got %d", len(figs))
	}
	if len(figs[2].Series) != 3 {
		t.Errorf("fig6c expected 3 division series, got %d", len(figs[2].Series))
	}
}

// Table II's user-to-server bytes are the exact mean upload over every
// instance and user: summed over the whole run, divided once.
func TestProtocolBenchUserBytesExactMean(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto protocol bench is slow in -short mode")
	}
	cfg := DefaultProtocolBenchConfig()
	pcfg, err := benchProtocolConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Key generation draws a variable number of bytes (crypto/rand.Prime),
	// so the run and the replay share keys and restart one submission stream.
	keys, err := protocol.GenerateKeys(rand.New(rand.NewSource(cfg.Seed)), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := benchWithKeys(cfg, pcfg, keys, rand.New(rand.NewSource(cfg.Seed+1)))
	if err != nil {
		t.Fatalf("ProtocolBench: %v", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var votes, noisy int64
	for inst := 0; inst < cfg.Instances; inst++ {
		subs, err := buildInstance(rng, pcfg, cfg, keys, inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			n := int64(protocol.SubmissionBytes(protocol.SubmissionHalf{Noisy: s.ToS1.Noisy}))
			votes += int64(protocol.SubmissionBytes(s.ToS1)) - n
			noisy += n
		}
	}
	uploads := int64(cfg.Instances * cfg.Users)
	if res.UserToServerBytes != votes/uploads || res.UserToServerBytes2 != noisy/uploads {
		t.Errorf("user-to-server bytes %d / %d, want the exact means %d / %d (%d and %d bytes over %d uploads)",
			res.UserToServerBytes, res.UserToServerBytes2, votes/uploads, noisy/uploads, votes, noisy, uploads)
	}
}
