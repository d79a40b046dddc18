package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/keystore"
)

// serveClientConfig carries the tuning flags into the serve-client run.
type serveClientConfig struct {
	timeout        time.Duration
	seed           int64
	retries        int
	backoff        time.Duration
	attemptTimeout time.Duration
	faults         string
	logLevel       string
}

// runServeClient streams one query per -votes entry through a serve-mode
// deployment's admission control, printing each query's outcome. The
// process exit distinguishes protocol failures from typed refusals.
func runServeClient(keysPath string, tenant int64, s1Addr, s2Addr, votesArg string, cc serveClientConfig) error {
	if keysPath == "" || s1Addr == "" || s2Addr == "" || votesArg == "" {
		return fmt.Errorf("usage: user -serve -keys public.e0.json,... -tenant N -s1 addr -s2 addr -votes 2,2,7")
	}
	var pubs []*keystore.PublicFile
	for _, path := range strings.Split(keysPath, ",") {
		var pub keystore.PublicFile
		if err := keystore.Load(strings.TrimSpace(path), &pub); err != nil {
			return err
		}
		pubs = append(pubs, &pub)
	}
	cfg := pubs[0].Config
	labels, err := parseVotes(votesArg, cfg.Classes)
	if err != nil {
		return err
	}

	client, err := deploy.NewServeClient(pubs, deploy.ServeClientOptions{
		Tenant: tenant, S1Addr: s1Addr, S2Addr: s2Addr, Seed: cc.seed,
		MaxRetries: cc.retries, Backoff: cc.backoff, AttemptTimeout: cc.attemptTimeout,
		FaultSpec: cc.faults, LogLevel: cc.logLevel,
		Logf: deploy.DefaultLogger(fmt.Sprintf("[tenant%d] ", tenant)),
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cc.timeout)
	defer cancel()
	failures := 0
	for i, label := range labels {
		votes := make([][]float64, cfg.Users)
		for u := range votes {
			votes[u] = label
		}
		res, err := client.Do(ctx, votes)
		switch {
		case errors.Is(err, deploy.ErrBudgetExhausted):
			return fmt.Errorf("query %d refused: %w", i, err)
		case errors.Is(err, deploy.ErrDraining), errors.Is(err, deploy.ErrOverloaded):
			return fmt.Errorf("query %d refused: %w", i, err)
		case err != nil:
			fmt.Printf("query %d: FAILED: %v\n", i, err)
			failures++
		case res.Consensus:
			fmt.Printf("query %d: label %d (qid %d, epoch %d, %d attempts)\n", i, res.Label, res.QID, res.Epoch, res.Attempts)
		default:
			fmt.Printf("query %d: no consensus (qid %d, epoch %d)\n", i, res.QID, res.Epoch)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d queries failed", failures, len(labels))
	}
	return nil
}
