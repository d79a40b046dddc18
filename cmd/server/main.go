// Command server runs one of the two non-colluding protocol servers as a
// standalone process.
//
// S1 (listens for users and for S2):
//
//	server -role s1 -keys keys/s1.json -listen :9001 -instances 5
//
// S2 (listens for users, dials S1):
//
//	server -role s2 -keys keys/s2.json -listen :9002 -peer host1:9001 -instances 5
//
// Continuous operation (-serve): queries are admitted on demand instead of
// running a fixed instance count, -keys takes a comma-separated list of
// per-epoch key files, and admission enforces per-tenant ε quotas:
//
//	server -role s1 -serve -keys keys/s1.e0.json,keys/s1.e1.json \
//	    -ledger state/ledger.json -tenant-quota 1=2.5,2=1.0 -rotate-after 500
//
// In serve mode the first SIGINT/SIGTERM starts a graceful drain (stop
// admitting, finish in-flight queries, flush the ledger and journal), a
// second signal aborts, and SIGHUP requests an epoch/key rotation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	privconsensus "github.com/privconsensus/privconsensus"
	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/keystore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	var (
		role      = fs.String("role", "", "server role: s1 or s2")
		keysPath  = fs.String("keys", "", "path to this server's key file")
		listen    = fs.String("listen", "127.0.0.1:0", "address to accept users (and, on s1, the peer)")
		peer      = fs.String("peer", "", "S1 address (required for s2)")
		instances = fs.Int("instances", 1, "number of query instances to run")
		timeout   = fs.Duration("timeout", 10*time.Minute, "overall deadline")
		seed      = fs.Int64("seed", 0, "deterministic seed (0 = crypto/rand)")
		par       = fs.Int("parallelism", 0, "CPU worker bound for this server's crypto (0 = key file / NumCPU, 1 = inline); never changes the wire")
		metrics   = fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = disabled)")
		linger    = fs.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the last instance")
		retries   = fs.Int("max-retries", 0, "per-instance retry budget on transient I/O failures (0 = one attempt, a lost peer link is final)")
		backoff   = fs.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per retry)")
		attemptTO = fs.Duration("attempt-timeout", 2*time.Minute, "deadline for each instance attempt and reconnect wait")
		faultSpec = fs.String("fault-spec", "", "inject deterministic connection faults, e.g. seed=7,reset=0.02,stall=0.01,max=20 (testing only)")
		quorum    = fs.Float64("quorum", 0, "minimum participants per query: a fraction of users in (0,1) or an absolute count >= 1 (0 with -submit-deadline unset = wait for everyone; a policy both servers share)")
		deadline  = fs.Duration("submit-deadline", 0, "close the submission window this long after startup once quorum is met (0 with -quorum unset = wait for everyone)")
		journal   = fs.String("journal", "", "append a hash-chained JSONL event journal at this path, stamped with the run's trace ID (see cmd/trace)")
		logLevel  = fs.String("log-level", "", "log threshold: debug, info (default), warn or silent")
		serve     = fs.Bool("serve", false, "continuous operation: admit queries on demand instead of -instances; -keys becomes a comma-separated per-epoch list")
		sf        = serveFlags{
			ledger:       fs.String("ledger", "", "durable ε-accountant ledger path (serve mode, s1 only; empty = in-memory)"),
			tenantQuota:  fs.String("tenant-quota", "", "per-tenant ε quotas as tenant=epsilon,... (serve mode, s1 only)"),
			defaultQuota: fs.Float64("default-quota", 0, "ε quota for tenants not listed in -tenant-quota (0 = unlimited)"),
			budgetDelta:  fs.Float64("budget-delta", 0, "δ at which admission projects the ε spend (0 = 1e-6)"),
			maxInFlight:  fs.Int("max-inflight", 0, "admission window: concurrent in-flight queries (0 = default)"),
			rotateAfter:  fs.Int("rotate-after", 0, "rotate to the next epoch's keys after this many admissions (0 = only on SIGHUP)"),
			drainTimeout: fs.Duration("drain-timeout", 0, "bound on finishing in-flight queries during a graceful drain (0 = default)"),
		}
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keysPath == "" {
		return fmt.Errorf("-keys is required")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if !*serve {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	opts := deploy.ServerOptions{
		ListenAddr:     *listen,
		PeerAddr:       *peer,
		Instances:      *instances,
		Seed:           *seed,
		Parallelism:    *par,
		MetricsAddr:    *metrics,
		MetricsLinger:  *linger,
		MaxRetries:     *retries,
		Backoff:        *backoff,
		AttemptTimeout: *attemptTO,
		FaultSpec:      *faultSpec,
		Quorum:         *quorum,
		SubmitDeadline: *deadline,
		JournalPath:    *journal,
		LogLevel:       *logLevel,
		Logf:           deploy.DefaultLogger("[" + *role + "] "),
	}

	if *serve {
		return runServe(ctx, *role, *keysPath, opts, sf)
	}

	var rep *deploy.Report
	switch *role {
	case "s1":
		var file keystore.S1File
		if err := keystore.Load(*keysPath, &file); err != nil {
			return err
		}
		var err error
		rep, err = deploy.RunS1Report(ctx, &file, opts)
		if err != nil {
			return err
		}
	case "s2":
		var file keystore.S2File
		if err := keystore.Load(*keysPath, &file); err != nil {
			return err
		}
		var err error
		rep, err = deploy.RunS2Report(ctx, &file, opts)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("-role must be s1 or s2, got %q", *role)
	}

	fmt.Printf("%s finished %d instances:\n", *role, len(rep.Results))
	for _, res := range rep.Results {
		part := ""
		if res.Dropped > 0 {
			part = fmt.Sprintf(" (%d of %d users)", res.Participants, res.Participants+res.Dropped)
		}
		switch {
		case errors.Is(res.Err, privconsensus.ErrQuorumNotMet):
			fmt.Printf("  instance %d: quorum not met%s\n", res.Instance, part)
		case res.Err != nil:
			fmt.Printf("  instance %d: FAILED after %d attempts: %v\n", res.Instance, res.Attempts, res.Err)
		case res.Outcome.Consensus:
			fmt.Printf("  instance %d: label %d%s\n", res.Instance, res.Outcome.Label, part)
		default:
			fmt.Printf("  instance %d: no consensus%s\n", res.Instance, part)
		}
	}
	if failed := rep.Failed(); len(failed) > 0 {
		return fmt.Errorf("%d of %d instances failed", len(failed), len(rep.Results))
	}
	return nil
}
