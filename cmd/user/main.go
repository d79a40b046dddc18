// Command user submits one user's encrypted votes to both protocol
// servers. Votes are given as a comma-separated list of winning class
// indices, one per query instance (one-hot voting):
//
//	user -keys keys/public.json -user 3 -s1 host1:9001 -s2 host2:9002 -votes 2,2,7
//
// With -serve the command acts as a tenant streaming whole queries through
// S1's admission control (any server run admits; cmd/server -instances 0
// does nothing else): -keys takes a comma-separated list of per-epoch
// public key files and each -votes entry is the unanimous one-hot label
// for one admitted query:
//
//	user -serve -keys keys/public.e0.json,keys/public.e1.json \
//	    -tenant 1 -s1 host1:9001 -s2 host2:9002 -votes 2,2,7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/keystore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "user:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("user", flag.ContinueOnError)
	var (
		keysPath = fs.String("keys", "", "path to public.json")
		userIdx  = fs.Int("user", -1, "this user's index")
		s1Addr   = fs.String("s1", "", "S1 address")
		s2Addr   = fs.String("s2", "", "S2 address")
		votesArg = fs.String("votes", "", "comma-separated winning class per instance, e.g. 2,2,7")
		probsArg = fs.String("probs", "", "softmax votes: semicolon-separated probability vectors, e.g. 0.7:0.2:0.1;0.1:0.8:0.1")
		timeout  = fs.Duration("timeout", time.Minute, "submission deadline")
		seed     = fs.Int64("seed", 0, "deterministic seed (0 = crypto/rand); must differ per user, or users draw identical masks and noise")
		retries  = fs.Int("max-retries", 0, "upload retry budget on transient I/O failures (0 = one attempt)")
		backoff  = fs.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per retry)")
		faults   = fs.String("fault-spec", "", "inject deterministic connection faults (testing only)")
		journal  = fs.String("journal", "", "append a hash-chained JSONL event journal at this path and join the servers' cross-process trace (see cmd/trace)")
		logLevel = fs.String("log-level", "", "log threshold: debug, info (default), warn or silent")
		serve    = fs.Bool("serve", false, "submit whole queries through S1's admission: -keys becomes a comma-separated per-epoch list, each -votes entry is one query")
		tenant   = fs.Int64("tenant", 0, "tenant ID for serve-mode admission (ε quotas are per tenant)")
		attempt  = fs.Duration("attempt-timeout", 30*time.Second, "per-phase deadline in serve mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serve {
		return runServeClient(*keysPath, *tenant, *s1Addr, *s2Addr, *votesArg, serveClientConfig{
			timeout: *timeout, seed: *seed, retries: *retries, backoff: *backoff,
			attemptTimeout: *attempt, faults: *faults, logLevel: *logLevel,
		})
	}
	if *keysPath == "" || *userIdx < 0 || *s1Addr == "" || *s2Addr == "" {
		return fmt.Errorf("usage: user -keys public.json -user N -s1 addr -s2 addr (-votes 2,2,7 | -probs 0.7:0.2:0.1)")
	}
	if (*votesArg == "") == (*probsArg == "") {
		return fmt.Errorf("exactly one of -votes or -probs is required")
	}

	var pub keystore.PublicFile
	if err := keystore.Load(*keysPath, &pub); err != nil {
		return err
	}
	if err := pub.Validate(); err != nil {
		return err
	}

	var votes [][]float64
	var err error
	if *votesArg != "" {
		votes, err = parseVotes(*votesArg, pub.Config.Classes)
	} else {
		votes, err = parseProbs(*probsArg, pub.Config.Classes)
	}
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := deploy.SubmitVotes(ctx, &pub, deploy.UserOptions{
		User: *userIdx, S1Addr: *s1Addr, S2Addr: *s2Addr, Seed: *seed,
		MaxRetries: *retries, Backoff: *backoff, FaultSpec: *faults,
		JournalPath: *journal, LogLevel: *logLevel,
		Logf: deploy.DefaultLogger(fmt.Sprintf("[user%d] ", *userIdx)),
	}, votes); err != nil {
		return err
	}
	fmt.Printf("user %d submitted %d instances\n", *userIdx, len(votes))
	return nil
}

// parseProbs turns "0.7:0.2:0.1;0.1:0.8:0.1" into softmax vote vectors.
func parseProbs(s string, classes int) ([][]float64, error) {
	instances := strings.Split(s, ";")
	out := make([][]float64, 0, len(instances))
	for i, inst := range instances {
		parts := strings.Split(inst, ":")
		if len(parts) != classes {
			return nil, fmt.Errorf("instance %d: %d probabilities, want %d", i, len(parts), classes)
		}
		v := make([]float64, classes)
		var sum float64
		for c, p := range parts {
			x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || x < 0 || x > 1 {
				return nil, fmt.Errorf("instance %d class %d: invalid probability %q", i, c, p)
			}
			v[c] = x
			sum += x
		}
		if sum < 0.99 || sum > 1.01 {
			return nil, fmt.Errorf("instance %d: probabilities sum to %g, want ~1", i, sum)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseVotes turns "2,2,7" into one-hot vote vectors.
func parseVotes(s string, classes int) ([][]float64, error) {
	parts := strings.Split(s, ",")
	out := make([][]float64, 0, len(parts))
	for i, p := range parts {
		label, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || label < 0 || label >= classes {
			return nil, fmt.Errorf("instance %d: invalid class %q (want 0..%d)", i, p, classes-1)
		}
		v := make([]float64, classes)
		v[label] = 1
		out = append(out, v)
	}
	return out, nil
}
