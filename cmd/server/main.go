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
// Both roles start through deploy.ServeS1/ServeS2, whatever the flags: a
// run registers queries 0..instances-1 (ServeOptions.Instances) before it
// accepts a connection (users upload to them with cmd/user) and drains once
// they have resolved. Meanwhile, and forever with -instances 0, S1 admits
// further queries on demand (cmd/user -serve) under per-tenant ε quotas.
// -keys is a comma-separated list of per-epoch key files, the later ones
// used by key rotations:
//
//	server -role s1 -instances 0 -keys keys/s1.e0.json,keys/s1.e1.json \
//	    -ledger state/ledger.json -tenant-quota 1=2.5,2=1.0 -rotate-after 500
//
// The first SIGINT/SIGTERM starts a graceful drain (stop admitting, finish
// in-flight queries, flush the ledger and journal), a second signal aborts,
// and SIGHUP requests an epoch/key rotation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
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
		role         = fs.String("role", "", "server role: s1 or s2")
		keysPath     = fs.String("keys", "", "comma-separated per-epoch key files of this server, epoch 0 first")
		listen       = fs.String("listen", "127.0.0.1:0", "address to accept users (and, on s1, the peer)")
		peer         = fs.String("peer", "", "S1 address (required for s2)")
		instances    = fs.Int("instances", 1, "queries to register up front and drain after (0 = admit on demand until signalled)")
		timeout      = fs.Duration("timeout", 10*time.Minute, "overall deadline")
		seed         = fs.Int64("seed", 0, "deterministic seed (0 = crypto/rand)")
		metrics      = fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = disabled)")
		linger       = fs.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the last query")
		retries      = fs.Int("max-retries", 0, "per-query retry budget on transient I/O failures (0 = one attempt, a lost peer link is final)")
		backoff      = fs.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per retry)")
		attemptTO    = fs.Duration("attempt-timeout", 2*time.Minute, "deadline for each query attempt and reconnect wait")
		faultSpec    = fs.String("fault-spec", "", "inject deterministic connection faults, e.g. seed=7,reset=0.02,stall=0.01,max=20 (testing only)")
		quorum       = fs.Float64("quorum", 0, "minimum participants per query: a fraction of users in (0,1) or an absolute count >= 1 (0 with -submit-deadline unset = wait for everyone; a policy both servers share)")
		deadline     = fs.Duration("submit-deadline", 0, "close a query's submission window this long after it is registered once quorum is met (0 with -quorum unset = wait for everyone)")
		journal      = fs.String("journal", "", "append a hash-chained JSONL event journal at this path, stamped with the run's trace ID (see cmd/trace)")
		logLevel     = fs.String("log-level", "", "log threshold: debug, info (default), warn or silent")
		ledger       = fs.String("ledger", "", "durable ε-accountant ledger path (s1 only; empty = in-memory)")
		tenantQuota  = fs.String("tenant-quota", "", "per-tenant ε quotas as tenant=epsilon,... (s1 only)")
		defaultQuota = fs.Float64("default-quota", 0, "ε quota for tenants not listed in -tenant-quota (0 = unlimited)")
		budgetDelta  = fs.Float64("budget-delta", 0, "δ at which admission projects the ε spend (0 = 1e-6)")
		maxInFlight  = fs.Int("max-inflight", 0, "admission window: concurrent in-flight queries (0 = default)")
		rotateAfter  = fs.Int("rotate-after", 0, "rotate to the next epoch's keys after this many admissions (0 = only on SIGHUP)")
		drainTimeout = fs.Duration("drain-timeout", 0, "bound on finishing in-flight queries during a graceful drain (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keysPath == "" {
		return fmt.Errorf("-keys is required")
	}
	quotas, err := parseQuotas(*tenantQuota)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	drainCh := make(chan struct{})
	rotateCh := make(chan struct{}, 1)
	opts := deploy.ServeOptions{
		ServerOptions: deploy.ServerOptions{
			ListenAddr:     *listen,
			PeerAddr:       *peer,
			Instances:      *instances,
			Seed:           *seed,
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
		},
		Tenants:      quotas,
		DefaultQuota: *defaultQuota,
		Delta:        *budgetDelta,
		LedgerPath:   *ledger,
		MaxInFlight:  *maxInFlight,
		RotateAfter:  *rotateAfter,
		DrainCh:      drainCh,
		RotateCh:     rotateCh,
		DrainTimeout: *drainTimeout,
	}
	stop := handleSignals(ctx, cancel, drainCh, rotateCh)
	defer stop()

	var results []deploy.InstanceResult
	switch *role {
	case "s1":
		files, err := loadEpochFiles[keystore.S1File](*keysPath)
		if err != nil {
			return err
		}
		rep, err := deploy.ServeS1(ctx, files, opts)
		if err != nil {
			return err
		}
		printS1Report(rep)
		results = rep.Results
	case "s2":
		files, err := loadEpochFiles[keystore.S2File](*keysPath)
		if err != nil {
			return err
		}
		rep, err := deploy.ServeS2(ctx, files, opts)
		if err != nil {
			return err
		}
		results = rep.Results
	default:
		return fmt.Errorf("-role must be s1 or s2, got %q", *role)
	}
	return printResults(*role, results)
}

// handleSignals drains the run on the first SIGINT/SIGTERM, aborts it on the
// second and requests a rotation on every SIGHUP, until ctx ends. The
// returned function stops listening.
func handleSignals(ctx context.Context, abort context.CancelFunc, drainCh chan<- struct{}, rotateCh chan<- struct{}) func() {
	sig := make(chan os.Signal, 4)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		drained := false
		for {
			select {
			case <-ctx.Done():
				return
			case s := <-sig:
				switch {
				case s == syscall.SIGHUP:
					select {
					case rotateCh <- struct{}{}:
					default:
					}
				case !drained:
					fmt.Fprintln(os.Stderr, "server: draining (signal again to abort)")
					close(drainCh)
					drained = true
				default:
					fmt.Fprintln(os.Stderr, "server: aborting")
					abort()
				}
			}
		}
	}()
	return func() { signal.Stop(sig) }
}

// parseQuotas parses a "tenant=epsilon,tenant=epsilon" list.
func parseQuotas(spec string) (map[int64]float64, error) {
	if spec == "" {
		return nil, nil
	}
	quotas := make(map[int64]float64)
	for _, field := range strings.Split(spec, ",") {
		tenant, quota, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("quota entry %q is not tenant=epsilon", field)
		}
		id, err := strconv.ParseInt(tenant, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("quota tenant %q: %w", tenant, err)
		}
		eps, err := strconv.ParseFloat(quota, 64)
		if err != nil {
			return nil, fmt.Errorf("quota for tenant %d: %w", id, err)
		}
		if _, dup := quotas[id]; dup {
			return nil, fmt.Errorf("tenant %d listed twice", id)
		}
		quotas[id] = eps
	}
	return quotas, nil
}

// loadEpochFiles loads a comma-separated epoch key file list, in order.
func loadEpochFiles[T any](spec string) ([]*T, error) {
	var files []*T
	for _, path := range strings.Split(spec, ",") {
		file := new(T)
		if err := keystore.Load(strings.TrimSpace(path), file); err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	return files, nil
}

// printS1Report prints what only S1 knows: admissions, rotations and the
// committed per-tenant spend.
func printS1Report(rep *deploy.ServeReport) {
	fmt.Printf("s1: %d rotations, final epoch %d\n", rep.Rotations, rep.Epoch)
	decisions := make([]string, 0, len(rep.Admissions))
	for d := range rep.Admissions {
		decisions = append(decisions, d)
	}
	sort.Strings(decisions)
	for _, d := range decisions {
		fmt.Printf("  admissions %s: %d\n", d, rep.Admissions[d])
	}
	for _, spend := range rep.Tenants {
		fmt.Printf("  tenant %d: epsilon %.6g over %d queries (%d releases)\n",
			spend.Tenant, spend.Epsilon, spend.Queries, spend.Releases)
	}
}

// printResults prints one line per query and fails the command if any
// query failed; a quorum miss is a clean verdict, not a failure.
func printResults(role string, results []deploy.InstanceResult) error {
	fmt.Printf("%s finished %d queries:\n", role, len(results))
	failed := 0
	for _, res := range results {
		part := ""
		if res.Dropped > 0 {
			part = fmt.Sprintf(" (%d of %d users)", res.Participants, res.Participants+res.Dropped)
		}
		switch {
		case errors.Is(res.Err, protocol.ErrQuorumNotMet):
			fmt.Printf("  query %d: quorum not met%s\n", res.Instance, part)
		case res.Err != nil:
			failed++
			fmt.Printf("  query %d: FAILED after %d attempts: %v\n", res.Instance, res.Attempts, res.Err)
		case res.Outcome.Consensus:
			fmt.Printf("  query %d: label %d%s\n", res.Instance, res.Outcome.Label, part)
		default:
			fmt.Printf("  query %d: no consensus%s\n", res.Instance, part)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d queries failed", failed, len(results))
	}
	return nil
}
