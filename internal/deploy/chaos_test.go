package deploy

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
)

// chaosFaultSpec is the seeded schedule for the chaos deployment test:
// small per-operation probabilities of resets, stalls, partial writes and
// delays, with a hard budget so the schedule quiesces and the run is
// guaranteed to converge once the budget is spent.
const chaosFaultSpec = "seed=7,reset=0.01,stall=0.01,partial=0.01,delay=0.03,stall-ms=20,delay-ms=3,max=25"

// TestChaosResilientDeployment runs a full two-server deployment of 20
// query instances through an injected fault schedule. The acceptance bar:
// the run terminates (no hang), every instance either reaches the correct
// consensus label or fails cleanly with a descriptive error, and the
// retry/fault counters are visible on the metrics endpoint.
func TestChaosResilientDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos deployment test is slow in -short mode")
	}
	const (
		users     = 2
		instances = 20
	)
	s1File, s2File, pubFile, cfg := testSetup(t, users)
	// CI sets CHAOS_JOURNAL_DIR to keep the journals as build artifacts
	// (and verifies them again with cmd/trace); locally they are ephemeral.
	journalDir := os.Getenv("CHAOS_JOURNAL_DIR")
	if journalDir == "" {
		journalDir = t.TempDir()
	} else if err := os.MkdirAll(journalDir, 0o755); err != nil {
		t.Fatal(err)
	}
	s1Journal := filepath.Join(journalDir, "s1.jsonl")
	s2Journal := filepath.Join(journalDir, "s2.jsonl")

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// S1 injects faults into every connection it accepts: the S2 peer link
	// and both user uploads all run through the fault layer.
	s1Ready := make(chan string, 1)
	metricsReady := make(chan string, 1)
	s1Done := make(chan s1ServeResult, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr:     "127.0.0.1:0",
			Instances:      instances,
			Seed:           601,
			Ready:          s1Ready,
			MaxRetries:     5,
			Backoff:        5 * time.Millisecond,
			AttemptTimeout: 30 * time.Second,
			FaultSpec:      chaosFaultSpec,
			MetricsAddr:    "127.0.0.1:0",
			MetricsReady:   metricsReady,
			MetricsLinger:  5 * time.Second,
			JournalPath:    s1Journal,
		}})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	metricsAddr := <-metricsReady

	s2Ready := make(chan string, 1)
	s2Done := make(chan s2ServeResult, 1)
	go func() {
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr:     "127.0.0.1:0",
			PeerAddr:       s1Addr,
			Instances:      instances,
			Seed:           602,
			Ready:          s2Ready,
			MaxRetries:     5,
			Backoff:        5 * time.Millisecond,
			AttemptTimeout: 30 * time.Second,
			JournalPath:    s2Journal,
		}})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	// All users vote class 1 unanimously on every instance, so any
	// instance that completes must report consensus on label 1 — a wrong
	// label is a hard failure, not chaos noise.
	votes := make([][]float64, instances)
	for i := range votes {
		votes[i] = oneHot(cfg.Classes, 1)
	}
	userErr := make(chan error, users)
	for u := 0; u < users; u++ {
		go func(u int) {
			userErr <- SubmitVotes(ctx, pubFile, UserOptions{
				User:           u,
				S1Addr:         s1Addr,
				S2Addr:         s2Addr,
				Seed:           int64(700 + u),
				MaxRetries:     10,
				Backoff:        2 * time.Millisecond,
				AttemptTimeout: 30 * time.Second,
			}, votes)
		}(u)
	}
	for u := 0; u < users; u++ {
		if err := <-userErr; err != nil {
			t.Fatalf("user submit under faults: %v", err)
		}
	}

	// S2 returning means S1 has finished (or is in its last reconnect
	// attempts), so the counters are final; scrape while S1's metrics
	// endpoint lingers, before its report is collected — the report is
	// only delivered once the linger window closes.
	r2 := <-s2Done
	assertChaosMetrics(t, metricsAddr)
	r1 := <-s1Done
	if r1.err != nil {
		t.Fatalf("S1 structural failure: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("S2 structural failure: %v", r2.err)
	}
	if got := len(r1.rep.Results); got != instances {
		t.Fatalf("S1 report has %d results, want %d", got, instances)
	}
	if got := len(r2.rep.Results); got != instances {
		t.Fatalf("S2 report has %d results, want %d", got, instances)
	}

	okBoth := checkChaosReport(t, "s1", r1.rep.Results, instances)
	_ = checkChaosReport(t, "s2", r2.rep.Results, instances)
	for i := 0; i < instances; i++ {
		a, b := r1.rep.Results[i], r2.rep.Results[i]
		if a.Err == nil && b.Err == nil && a.Outcome != b.Outcome {
			t.Errorf("instance %d: servers disagree: %+v vs %+v", i, a.Outcome, b.Outcome)
		}
	}
	// The fault budget (25) and retry budget (5) bound how many instances
	// can fail on S1: a failure costs at least MaxRetries+1 faulted
	// attempts, so at most 4 can fail even in the worst schedule.
	if okBoth < instances-5 {
		t.Errorf("only %d/%d S1 instances succeeded under the bounded fault budget", okBoth, instances)
	}

	// Both journals must survive the chaos run with intact hash chains, and
	// the disruptions themselves must be on the record: S1 injected the
	// faults, so its journal carries the fault events, and the schedule is
	// hot enough that at least one retry lands in some journal.
	var faultEvents, retryEvents int
	for _, path := range []string{s1Journal, s2Journal} {
		if n, err := obs.VerifyJournalFile(path); err != nil || n == 0 {
			t.Errorf("%s after chaos: %d records, err %v; the chain must verify", path, n, err)
			continue
		}
		evs, err := obs.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			switch ev.Type {
			case obs.EventFault:
				faultEvents++
			case obs.EventRetry:
				retryEvents++
			}
		}
	}
	if faultEvents == 0 {
		t.Error("no fault events journaled; S1's injector observer never fired")
	}
	if retryEvents == 0 {
		t.Error("no retry events journaled despite a firing fault schedule")
	}
}

// checkChaosReport asserts every instance either reached consensus on label
// 1 or failed cleanly, and returns the success count.
func checkChaosReport(t *testing.T, role string, results []InstanceResult, instances int) int {
	t.Helper()
	ok := 0
	for i, res := range results {
		if res.Instance != i {
			t.Errorf("%s result %d has instance index %d", role, i, res.Instance)
		}
		if res.Err != nil {
			if res.Err.Error() == "" {
				t.Errorf("%s instance %d failed with an empty error", role, i)
			}
			t.Logf("%s instance %d cleanly failed after %d attempts: %v", role, i, res.Attempts, res.Err)
			continue
		}
		if !res.Outcome.Consensus || res.Outcome.Label != 1 {
			t.Errorf("%s instance %d: outcome %+v, want consensus on label 1", role, i, res.Outcome)
		}
		ok++
	}
	return ok
}

// assertChaosMetrics scrapes /metrics and checks the resilience counter
// families: some faults must have been injected and some retries recorded.
func assertChaosMetrics(t *testing.T, addr string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	defer resp.Body.Close()
	var faults, retries float64
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 1<<20))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "faults_injected_total{"):
			faults += metricValue(t, line)
		case strings.HasPrefix(line, "retries_total{"):
			retries += metricValue(t, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read metrics body: %v", err)
	}
	if faults <= 0 {
		t.Error("faults_injected_total is zero on /metrics; the schedule never fired")
	}
	if retries <= 0 {
		t.Error("retries_total is zero on /metrics; faults fired but nothing retried")
	}
}

// metricValue parses the sample value from a Prometheus text line.
func metricValue(t *testing.T, line string) float64 {
	t.Helper()
	idx := strings.LastIndexByte(line, ' ')
	if idx < 0 {
		t.Fatalf("malformed metric line %q", line)
	}
	v, err := strconv.ParseFloat(line[idx+1:], 64)
	if err != nil {
		t.Fatalf("malformed metric value in %q: %v", line, err)
	}
	return v
}
