// Command privconsensus runs the full private-consensus PATE pipeline end
// to end on a synthetic dataset and reports accuracy, retention and privacy
// spend. With -crypto it additionally runs the cryptographic protocol
// (Paillier + DGK + blind-and-permute) on a sample of query instances, on
// a two-server pair the library engine starts on loopback.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	privconsensus "github.com/privconsensus/privconsensus"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "privconsensus:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("privconsensus", flag.ContinueOnError)
	var (
		datasetName = fs.String("dataset", "mnist", "dataset: mnist, svhn or celeba")
		scale       = fs.Float64("scale", 0.05, "dataset scale in (0, 1]")
		users       = fs.Int("users", 25, "number of users (teachers)")
		division    = fs.String("division", "even", "data distribution: even, 2-8, 3-7, 4-6")
		voteType    = fs.String("votes", "one-hot", "vote type: one-hot or softmax")
		queries     = fs.Int("queries", 500, "aggregator query pool size")
		baseline    = fs.Bool("baseline", false, "run the noisy-argmax baseline instead of consensus")
		threshold   = fs.Float64("threshold", 0.6, "consensus threshold as fraction of users")
		sigma1      = fs.Float64("sigma1", 4, "SVT noise deviation (votes)")
		sigma2      = fs.Float64("sigma2", 4, "report-noisy-max deviation (votes)")
		seed        = fs.Int64("seed", 1, "RNG seed")
		crypto      = fs.Int("crypto", 0, "also run the cryptographic protocol on N sample instances")
		acctPath    = fs.String("accountant-path", "", "persist the crypto sample's privacy ledger (S1's) to this file; reloaded on the next run so the (eps, delta) budget accumulates across restarts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := privconsensus.PATEConfig{
		Dataset:       *datasetName,
		Scale:         *scale,
		Users:         *users,
		Division:      *division,
		VoteType:      *voteType,
		Queries:       *queries,
		UseConsensus:  !*baseline,
		ThresholdFrac: *threshold,
		Sigma1:        *sigma1,
		Sigma2:        *sigma2,
		Seed:          *seed,
	}
	start := time.Now()
	res, err := privconsensus.RunPATE(cfg)
	if err != nil {
		return err
	}
	method := "private consensus"
	if *baseline {
		method = "noisy-argmax baseline"
	}
	fmt.Printf("pipeline: %s on %s-like data, %d users, %s distribution, %s votes\n",
		method, *datasetName, *users, *division, *voteType)
	fmt.Printf("  mean user accuracy:   %.4f\n", res.UserAccMean)
	if res.MajorityAcc > 0 || res.MinorityAcc > 0 {
		fmt.Printf("  majority / minority:  %.4f / %.4f\n", res.MajorityAcc, res.MinorityAcc)
	}
	fmt.Printf("  label accuracy:       %.4f\n", res.LabelAccuracy)
	fmt.Printf("  retention:            %.4f (%d labeled pairs)\n", res.Retention, res.Retained)
	fmt.Printf("  aggregator accuracy:  %.4f\n", res.StudentAccuracy)
	fmt.Printf("  privacy spend:        eps = %.3f at delta = 1e-6\n", res.Epsilon)
	fmt.Printf("  wall time:            %v\n", time.Since(start).Round(time.Millisecond))

	if *crypto > 0 {
		if err := runCryptoSample(*crypto, *users, *threshold, *sigma1, *sigma2, *seed, *acctPath); err != nil {
			return fmt.Errorf("crypto sample: %w", err)
		}
	}
	return nil
}

// runCryptoSample runs the real two-server protocol on synthetic one-hot
// votes to demonstrate the cryptographic path. With acctPath set, S1's
// ledger lives there and the reported ε is cumulative across runs.
func runCryptoSample(instances, users int, threshold, sigma1, sigma2 float64, seed int64, acctPath string) error {
	cfg := privconsensus.DefaultConfig(users)
	cfg.ThresholdFrac = threshold
	cfg.Sigma1, cfg.Sigma2 = sigma1, sigma2
	cfg.Seed = seed
	cfg.AccountantPath = acctPath
	engine, err := privconsensus.NewEngine(cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	fmt.Printf("\ncryptographic protocol sample (%d instances, %d users, 10 classes):\n", instances, users)
	batch := make([][][]float64, instances)
	for i := range batch {
		votes := make([][]float64, users)
		winning := i % cfg.Classes
		for u := range votes {
			v := make([]float64, cfg.Classes)
			if u%5 == 4 { // one dissenter in five
				v[(winning+1)%cfg.Classes] = 1
			} else {
				v[winning] = 1
			}
			votes[u] = v
		}
		batch[i] = votes
	}
	start := time.Now()
	res, err := engine.LabelBatch(ctx, batch)
	if err != nil {
		return err
	}
	for i, out := range res.Outcomes {
		fmt.Printf("  instance %d: consensus=%v label=%d\n", i, out.Consensus, out.Label)
	}
	scope := "this run"
	if acctPath != "" {
		scope = "cumulative at " + acctPath
	}
	fmt.Printf("  crypto privacy spend: eps = %.3f at delta = 1e-6 (%s)\n", res.Epsilon, scope)
	fmt.Printf("  crypto wall time:     %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
