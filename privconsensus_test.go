package privconsensus

import (
	"context"
	"math"
	"net"
	"testing"
	"time"
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
	if _, err := e.SubmissionFor(0, []float64{1, 0}); err == nil {
		t.Error("expected error for wrong vote length")
	}
	if _, err := e.SubmissionFor(0, []float64{2, 0, 0, 0}); err == nil {
		t.Error("expected error for vote > 1")
	}
	if _, err := e.SubmissionFor(0, []float64{-0.5, 0, 0, 0}); err == nil {
		t.Error("expected error for negative vote")
	}
	ctx := context.Background()
	if _, err := e.LabelInstance(ctx, [][]float64{oneHot(4, 0)}); err == nil {
		t.Error("expected error for wrong user count")
	}
	if _, err := e.RunServer(ctx, RoleS1, nil, []*Submission{nil, nil, nil}); err == nil {
		t.Error("expected error for nil submissions")
	}
}

func TestEngineOverTCP(t *testing.T) {
	e := testEngine(t, 3, 3)
	votes := [][]float64{oneHot(3, 1), oneHot(3, 1), oneHot(3, 0)}
	subs := make([]*Submission, len(votes))
	for u, v := range votes {
		s, err := e.SubmissionFor(u, v)
		if err != nil {
			t.Fatal(err)
		}
		subs[u] = s
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type result struct {
		out *Outcome
		err error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			ch <- result{nil, err}
			return
		}
		defer conn.Close()
		out, err := e.RunServer(ctx, RoleS1, conn, subs)
		ch <- result{out, err}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out2, err := e.RunServer(ctx, RoleS2, conn, subs)
	if err != nil {
		t.Fatalf("S2 over TCP: %v", err)
	}
	r1 := <-ch
	if r1.err != nil {
		t.Fatalf("S1 over TCP: %v", r1.err)
	}
	if *r1.out != *out2 {
		t.Fatalf("servers disagree over TCP: %+v vs %+v", r1.out, out2)
	}
	if !out2.Consensus || out2.Label != 1 {
		t.Fatalf("TCP outcome %+v, want consensus on 1", out2)
	}
}

func TestEngineLabelInstanceMetered(t *testing.T) {
	e := testEngine(t, 4, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	votes := [][]float64{oneHot(3, 2), oneHot(3, 2), oneHot(3, 2), oneHot(3, 0)}
	out, stats, err := e.LabelInstanceMetered(ctx, votes)
	if err != nil {
		t.Fatalf("LabelInstanceMetered: %v", err)
	}
	if !out.Consensus || out.Label != 2 {
		t.Fatalf("outcome %+v, want consensus on 2", out)
	}
	if len(stats) == 0 {
		t.Fatal("no step stats recorded")
	}
	byStep := map[string]StepStats{}
	for _, s := range stats {
		byStep[s.Step] = s
	}
	cmp, ok := byStep["secure-comparison(4)"]
	if !ok || cmp.BytesSent == 0 {
		t.Errorf("comparison step not metered: %+v", stats)
	}
	bp, ok := byStep["blind-and-permute(3)"]
	if !ok {
		t.Error("blind-and-permute step missing")
	}
	if cmp.BytesSent <= bp.BytesSent {
		t.Errorf("Table II shape violated: comparison %d <= B&P %d", cmp.BytesSent, bp.BytesSent)
	}
}

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
	res, err := e.LabelBatch(ctx, batch)
	if err != nil {
		t.Fatalf("LabelBatch: %v", err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("expected 2 outcomes, got %d", len(res.Outcomes))
	}
	if !res.Outcomes[0].Consensus {
		t.Error("unanimous batch entry should reach consensus")
	}
	if res.Epsilon <= 0 {
		t.Errorf("batch epsilon not tracked: %+v", res)
	}
	if res.Released < 1 {
		t.Errorf("released count wrong: %+v", res)
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
