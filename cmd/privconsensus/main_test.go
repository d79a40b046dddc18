package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/privconsensus/privconsensus/internal/dp"
)

func TestRunSmallPipeline(t *testing.T) {
	err := run([]string{
		"-dataset", "mnist", "-scale", "0.005", "-users", "5",
		"-queries", "30", "-sigma1", "1", "-sigma2", "1",
	})
	if err != nil {
		t.Fatalf("small pipeline run: %v", err)
	}
}

func TestRunBaselineAndCelebA(t *testing.T) {
	if err := run([]string{
		"-dataset", "svhn", "-scale", "0.005", "-users", "5",
		"-queries", "30", "-baseline",
	}); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if err := run([]string{
		"-dataset", "celeba", "-scale", "0.001", "-users", "4",
		"-queries", "10", "-division", "2-8",
	}); err != nil {
		t.Fatalf("celeba run: %v", err)
	}
}

func TestRunRejectsBadDataset(t *testing.T) {
	if err := run([]string{"-dataset", "imagenet", "-scale", "0.01", "-users", "3", "-queries", "10"}); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestRunCryptoSample(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto sample is slow in -short mode")
	}
	if err := runCryptoSample(1, 4, 0.5, 0.5, 0.5, 7, ""); err != nil {
		t.Fatalf("crypto sample: %v", err)
	}

	// Two runs on one -accountant-path, starting from an empty path and
	// from a copy of the flat state file an earlier version wrote (three
	// queries at σ₁ = 4, two releases at σ₂ = 2): each run reports the
	// cumulative ε the file holds.
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "dp", "testdata", "accountant_pr21.json"))
	if err != nil {
		t.Fatal(err)
	}
	var legacy dp.Accountant
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	legacyEps, _, err := legacy.Epsilon(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	legacyPath := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacyPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path  string
		prior float64
	}{{filepath.Join(dir, "fresh.json"), 0}, {legacyPath, legacyEps}} {
		prev := c.prior
		for run := 1; run <= 2; run++ {
			out := captureStdout(t, func() error { return runCryptoSample(2, 4, 0.5, 4, 2, 7, c.path) })
			var eps float64
			if _, err := fmt.Sscanf(out[strings.Index(out, "crypto privacy spend:"):], "crypto privacy spend: eps = %f", &eps); err != nil {
				t.Fatalf("%s run %d: no spend line in\n%s", c.path, run, out)
			}
			ledger, err := dp.OpenLedger(c.path, nil, 0, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			held := ledger.Spends()[0].Epsilon
			ledger.Close()
			if eps <= prev || fmt.Sprintf("%.3f", eps) != fmt.Sprintf("%.3f", held) {
				t.Fatalf("%s run %d: reported eps %.3f, want the file's cumulative %.3f, above the previous %.3f",
					c.path, run, eps, held, prev)
			}
			prev = eps
		}
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	out := <-read
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	return out
}
