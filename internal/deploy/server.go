package deploy

import (
	"context"
	"fmt"
	"log"
	"math/big"
	"os"
	"strings"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// queriesTotal counts completed deploy-mode queries by role and outcome.
func queriesTotal(role, outcome string) *obs.Counter {
	return obs.Default.Counter("deploy_queries_total",
		"Completed deploy-mode protocol queries.",
		obs.L("role", role), obs.L("outcome", outcome))
}

// ServerOptions configures one protocol server process.
type ServerOptions struct {
	// ListenAddr accepts user submissions (and, on S1, the S2 peer
	// connection).
	ListenAddr string
	// PeerAddr is S1's address; only S2 dials it.
	PeerAddr string
	// Instances is the number of queries a run (ServeS1, ServeS2,
	// RunIngest) registers up front as queries 0..Instances-1. ServeS1 and
	// ServeS2 drain once those resolve; 0 makes them admit on demand until
	// drained.
	Instances int
	// Seed, when non-zero, makes protocol randomness deterministic.
	Seed int64
	// MetricsAddr, when non-empty, serves the observability admin endpoint
	// (/metrics, /healthz, /debug/pprof/*, /debug/vars) on that address.
	MetricsAddr string
	// MetricsReady, when non-nil, receives the bound admin address once it
	// is serving (lets tests and scripts use port 0).
	MetricsReady chan<- string
	// MetricsLinger keeps the admin endpoint up for this long after the
	// last instance finishes (bounded by ctx), so scrapers can read final
	// counters from a short-lived run.
	MetricsLinger time.Duration
	// Logf receives progress lines; nil silences logging with no
	// formatting cost.
	Logf func(format string, args ...any)
	// Ready, when non-nil, receives the bound listen address once the
	// server is accepting (lets tests use port 0).
	Ready chan<- string
	// MaxRetries is the retry budget: each query instance may be retried up
	// to this many times on transient I/O failures, with the peer link
	// re-established between attempts. 0 (the default) runs each instance's
	// single attempt and never waits for a lost link to come back. It is a
	// budget, not a mode: the servers may set different values.
	MaxRetries int
	// Backoff is the delay before the first retry (default 50ms); it
	// doubles per retry, capped at 16×.
	Backoff time.Duration
	// AttemptTimeout bounds every attempt and every reconnect wait
	// (default 2m), so a stalled attempt is recycled instead of hanging.
	AttemptTimeout time.Duration
	// FaultSpec, when non-empty, injects deterministic faults into every
	// connection this server accepts or dials (see
	// transport.ParseFaultSpec). Testing only.
	FaultSpec string
	// Quorum is the minimum number of users a query needs to run. A value
	// in (0, 1) is a fraction of the configured users (rounded up); >= 1 an
	// absolute count; 0 any participation. A query released with fewer
	// participants fails cleanly with protocol.ErrQuorumNotMet instead of
	// running. Quorum and SubmitDeadline are a policy, not a wire
	// mode, but one the two servers must share: a mismatch can cost a wait
	// or a quorum miss on one side.
	Quorum float64
	// SubmitDeadline bounds how long a query's collector waits for user
	// submissions, measured from the query's registration: when it elapses
	// the query proceeds with whoever showed up (subject to Quorum). 0 with
	// Quorum set falls back to AttemptTimeout as the submission window; 0
	// with Quorum unset waits for every user (the default).
	SubmitDeadline time.Duration
	// JournalPath, when non-empty, appends every query's spans and
	// lifecycle events (rejections, retries, faults, quorum decisions, δ
	// corrections) to a hash-chained JSONL journal at this path, stamped
	// with the run's trace ID (S1 mints it and always pushes it to S2 and to
	// tracing users). Each server journals iff it has a path; one may
	// journal without the other.
	JournalPath string
	// LogLevel filters Logf output: "debug", "info" (the default), "warn"
	// or "silent".
	LogLevel string
}

// attemptTimeout returns the per-attempt deadline with its default.
func (o ServerOptions) attemptTimeout() time.Duration {
	if o.AttemptTimeout > 0 {
		return o.AttemptTimeout
	}
	return 2 * time.Minute
}

// faults builds the server's fault injector from FaultSpec (nil when
// unset).
func (o ServerOptions) faults() (*transport.FaultInjector, error) {
	if o.FaultSpec == "" {
		return nil, nil
	}
	spec, err := transport.ParseFaultSpec(o.FaultSpec)
	if err != nil {
		return nil, err
	}
	if !spec.Enabled() {
		return nil, nil
	}
	return transport.NewFaultInjector(spec), nil
}

// announceReady reports the bound address to the Ready channel, if any.
func (o ServerOptions) announceReady(addr string) {
	if o.Ready != nil {
		o.Ready <- addr
	}
}

// logLevel tags deploy log lines.
type logLevel int

const (
	levelDebug logLevel = iota
	levelInfo
	levelWarn
	levelSilent // threshold only: no line logs at this level
)

// parseLogLevel resolves a -log-level value ("" defaults to info).
func parseLogLevel(s string) (logLevel, error) {
	switch s {
	case "debug":
		return levelDebug, nil
	case "", "info":
		return levelInfo, nil
	case "warn":
		return levelWarn, nil
	case "silent":
		return levelSilent, nil
	}
	return levelInfo, fmt.Errorf("deploy: unknown log level %q (want debug, info, warn or silent)", s)
}

// minLevel resolves the configured threshold; unknown values were caught
// by validate, so here they just fall back to info.
func (o ServerOptions) minLevel() logLevel {
	lv, err := parseLogLevel(o.LogLevel)
	if err != nil {
		return levelInfo
	}
	return lv
}

// log is the single leveled logging helper every deploy log site goes
// through. A nil Logf or a line below the configured threshold returns
// before any formatting work happens; warnings are prefixed so a plain
// sink still distinguishes them.
func (o ServerOptions) log(lv logLevel, format string, args ...any) {
	if o.Logf == nil || lv < o.minLevel() {
		return
	}
	if lv == levelWarn {
		format = "WARN " + format
	}
	o.Logf(format, args...)
}

// validate checks the options of a RunIngest sink, which needs at least
// one instance to collect.
func (o ServerOptions) validate() error {
	if o.Instances < 1 {
		return fmt.Errorf("deploy: need at least 1 instance, got %d", o.Instances)
	}
	return o.validatePolicy()
}

// validatePolicy checks everything but the instance count.
func (o ServerOptions) validatePolicy() error {
	if o.Quorum < 0 {
		return fmt.Errorf("deploy: negative quorum %g", o.Quorum)
	}
	if o.SubmitDeadline < 0 {
		return fmt.Errorf("deploy: negative submit deadline %v", o.SubmitDeadline)
	}
	return o.validateLink()
}

// validateLink checks the settings servers and clients share: the retry
// budget and the log level.
func (o ServerOptions) validateLink() error {
	if o.MaxRetries < 0 {
		return fmt.Errorf("deploy: negative retry budget %d", o.MaxRetries)
	}
	_, err := parseLogLevel(o.LogLevel)
	return err
}

// adminHandle is a running admin endpoint tied to one server run.
type adminHandle struct {
	srv    *obs.AdminServer
	linger time.Duration
}

// startAdmin serves the observability endpoint if MetricsAddr is set.
func (o ServerOptions) startAdmin() (*adminHandle, error) {
	if o.MetricsAddr == "" {
		return nil, nil
	}
	srv, err := obs.StartAdmin(o.MetricsAddr, nil)
	if err != nil {
		return nil, err
	}
	o.log(levelInfo, "metrics endpoint on http://%s/metrics", srv.Addr)
	if o.MetricsReady != nil {
		o.MetricsReady <- srv.Addr
	}
	return &adminHandle{srv: srv, linger: o.linger()}, nil
}

// linger returns the configured post-run admin lifetime.
func (o ServerOptions) linger() time.Duration { return o.MetricsLinger }

// close keeps the endpoint up for the linger window (cut short when ctx
// ends), then shuts it down. Safe on a nil handle.
func (h *adminHandle) close(ctx context.Context) {
	if h == nil {
		return
	}
	if h.linger > 0 {
		select {
		case <-time.After(h.linger):
		case <-ctx.Done():
		}
	}
	h.srv.Close()
}

// runInstance executes one query instance with full observability: a fresh
// meter and tracer, phase spans from the protocol engine, traffic bridged
// into the trace, a one-line summary log, errors that name the failing
// phase, and — when journaling is on — the completed trace appended to the
// event journal and the /debug/traces ring. The summary and journal record
// quantities only — never votes, shares or keys.
func runInstance(ctx context.Context, s *serverSetup, role string, i, attempt, participants, dropped int, opts ServerOptions,
	run func(ctx context.Context, meter *transport.Meter) (*protocol.Outcome, error)) (*protocol.Outcome, error) {
	meter := transport.NewMeter()
	tracer := obs.NewTracer(fmt.Sprintf("%s-q%d", role, i))
	tracer.SetAttempt(attempt + 1)
	tracer.SetParticipants(participants, dropped)
	paillier.WatchOps(tracer)
	dgk.WatchOps(tracer)
	mathutil.WatchOps(tracer)
	out, err := run(obs.WithTracer(ctx, tracer), meter)
	meter.FillTrace(tracer)
	if err != nil {
		phase := tracer.OpenPhase()
		tracer.Finish("error", err)
		queriesTotal(role, "error").Inc()
		finishInstanceTrace(s, tracer, i, attempt, opts, levelWarn)
		if phase != "" {
			return nil, fmt.Errorf("deploy: %s instance %d (phase %q): %w", role, i, phase, err)
		}
		return nil, fmt.Errorf("deploy: %s instance %d: %w", role, i, err)
	}
	result := "no-consensus"
	if out.Consensus {
		result = fmt.Sprintf("consensus label=%d", out.Label)
	}
	tracer.Finish(result, nil)
	queriesTotal(role, result0(out)).Inc()
	finishInstanceTrace(s, tracer, i, attempt, opts, levelInfo)
	return out, nil
}

// finishInstanceTrace publishes a sealed per-instance trace: summary log
// line, /debug/traces ring, and — when journaling is on — the span and
// annotation events with the query's closing record.
func finishInstanceTrace(s *serverSetup, tracer *obs.Tracer, i, attempt int, opts ServerOptions, lv logLevel) {
	qt := tracer.Trace()
	opts.log(lv, "%s", qt.Summary())
	obs.DefaultTraces.Add(qt)
	if s == nil || s.journal == nil {
		return
	}
	if err := s.journal.AppendTrace(i, attempt+1, qt); err != nil {
		opts.log(levelWarn, "journal append failed: %v", err)
	}
}

// result0 maps an outcome to its metric label.
func result0(out *protocol.Outcome) string {
	if out.Consensus {
		return "consensus"
	}
	return "no-consensus"
}

// serverSetup bundles the state shared by both servers' run paths.
type serverSetup struct {
	cfg     protocol.Config
	admin   *adminHandle
	l       *transport.Listener
	faults  *transport.FaultInjector
	journal *obs.Journal
	trace   *traceState
	// rejected journals one submission rejection (nil without a journal).
	rejected func(reason string)
}

// setupServer performs the config check, admin endpoint, listener, journal
// and trace-state setup common to S1 and S2.
func setupServer(ctx context.Context, role string, cfg protocol.Config, opts ServerOptions) (*serverSetup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ResolvedArgmaxStrategy() != protocol.StrategyTournament {
		return nil, fmt.Errorf("deploy: key file selects the %q argmax schedule, a test reference deployments do not run: %w",
			cfg.ArgmaxStrategy, protocol.ErrBadConfig)
	}
	obs.SetBuildInfo(nil, int(wireVersion), protocol.Workers())
	inj, err := opts.faults()
	if err != nil {
		return nil, err
	}
	admin, err := opts.startAdmin()
	if err != nil {
		return nil, err
	}
	s := &serverSetup{
		cfg:    cfg,
		admin:  admin,
		faults: inj,
		trace:  newTraceState(),
	}
	if opts.JournalPath != "" {
		s.journal, err = obs.OpenJournal(opts.JournalPath, obs.JournalOptions{Role: strings.ToLower(role)})
		if err != nil {
			admin.close(ctx)
			return nil, err
		}
		opts.log(levelDebug, "%s journaling to %s", role, opts.JournalPath)
	}
	if role == "S1" {
		// S1 mints the run's trace identity at startup, journaling or not,
		// so the accept loop can hand it to S2 and users without waiting.
		id, err := obs.MintTraceID(opts.Seed)
		if err != nil {
			s.journal.Close()
			admin.close(ctx)
			return nil, err
		}
		s.adoptTraceID(id, opts)
	}
	// S2: the ID arrives from S1 on the first peer connection.
	if s.journal != nil {
		inj.SetObserver(func(kind string) {
			s.journalEvent(opts, obs.Event{Type: obs.EventFault, Instance: -1, Note: kind})
		})
	}
	l, err := transport.Listen(opts.ListenAddr)
	if err != nil {
		s.journal.Close()
		admin.close(ctx)
		return nil, err
	}
	l.SetFaults(inj)
	opts.log(levelInfo, "%s listening on %s", role, l.Addr())
	opts.announceReady(l.Addr())
	s.l = l
	if s.journal != nil {
		s.rejected = func(reason string) {
			s.journalEvent(opts, obs.Event{Type: obs.EventRejection, Instance: -1, Note: reason})
		}
	}
	return s, nil
}

// newCollector builds one query's collector. ring is the N² modulus every
// stored ciphertext must live in (the peer's Paillier key of the query's
// epoch — submissions held by one server are encrypted under the other
// server's public key).
func (s *serverSetup) newCollector(ring *big.Int) *collector {
	col := newCollector(s.cfg, ring)
	col.events = s.rejected
	return col
}

// agreeParticipants resolves one query's submissions — col — on either
// server as aggregation groups (relay batches whole, direct users as
// singletons): it runs the participant exchange under the wire id (S1
// proposes, S2 intersects), publishes and journals the decision, and masks
// the collector by the agreed set. It reports the participant count alongside
// (0 when the exchange itself failed), and protocol.ErrQuorumNotMet (no
// protocol traffic follows) when the agreed set is below quorum.
func (s *serverSetup) agreeParticipants(ctx context.Context, opts ServerOptions, role string,
	peer transport.Conn, id int, col *collector) ([]protocol.Group, int, error) {
	exchange := exchangeParticipantsS2
	if role == "s1" {
		exchange = exchangeParticipantsS1
	}
	agreed, err := exchange(ctx, peer, id, col.bitmap())
	if err != nil {
		return nil, 0, err
	}
	participants, quorum := ingest.Popcount(agreed), protocol.QuorumCount(opts.Quorum, s.cfg.Users, 1)
	obs.Participants(role).Set(float64(participants))
	s.journalEvent(opts, obs.Event{Type: obs.EventQuorum, Instance: id,
		Note: fmt.Sprintf("participants=%d dropped=%d quorum=%d", participants, s.cfg.Users-participants, quorum)})
	if participants < quorum {
		queriesTotal(role, "quorum-not-met").Inc()
		opts.log(levelWarn, "%s query %d released %d of %d users, below quorum %d", role, id, participants, s.cfg.Users, quorum)
		return nil, participants, fmt.Errorf("deploy: query %d has %d of %d participants: %w",
			id, participants, s.cfg.Users, protocol.ErrQuorumNotMet)
	}
	groups, err := col.maskedGroups(agreed)
	return groups, participants, err
}

// ringOf returns the Paillier ciphertext ring bound N² (nil for a nil key).
func ringOf(pk *paillier.PublicKey) *big.Int {
	if pk == nil {
		return nil
	}
	return pk.N2
}

// DefaultLogger returns a stdlib-backed log sink for the CLIs with
// microsecond timestamps. prefix typically identifies the role ("s1: ");
// per-query lines already carry the query ID (query=s1-q3) from the trace
// summary.
func DefaultLogger(prefix string) func(string, ...any) {
	l := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	return func(format string, args ...any) {
		l.Printf(prefix+format, args...)
	}
}
