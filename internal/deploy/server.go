package deploy

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/big"
	"os"
	"strings"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
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
	// Instances is the number of query instances to run.
	Instances int
	// Seed, when non-zero, makes protocol randomness deterministic.
	Seed int64
	// Parallelism, when non-zero, overrides the key file's protocol
	// parallelism: the bound on this server's CPU-bound crypto workers
	// (0 = NumCPU). It never touches the wire; the servers need not agree.
	Parallelism int
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
	// Quorum is the minimum number of users a query instance needs to run.
	// A value in (0, 1) is a fraction of the configured users (rounded up);
	// >= 1 an absolute count; 0 any participation. An instance released
	// with fewer participants fails cleanly with protocol.ErrQuorumNotMet
	// instead of running. Quorum and SubmitDeadline are a policy, not a wire
	// mode, but one the two servers must share: a mismatch can cost a wait
	// or a quorum miss on one side.
	Quorum float64
	// SubmitDeadline bounds how long the collector waits for user
	// submissions: when it elapses, every instance proceeds with whoever
	// showed up (subject to Quorum). 0 with Quorum set falls back to
	// AttemptTimeout as the submission window; 0 with Quorum unset waits
	// for the full grid (the default).
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

// validate checks the options.
func (o ServerOptions) validate() error {
	if o.Instances < 1 {
		return fmt.Errorf("deploy: need at least 1 instance, got %d", o.Instances)
	}
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
	col     *collector
	faults  *transport.FaultInjector
	journal *obs.Journal
	trace   *traceState
}

// setupServer performs the option validation, admin endpoint, listener,
// collector, journal and trace-state setup common to S1 and S2. ring is
// the N² modulus every stored ciphertext must live in (the peer's Paillier
// key — submissions held by one server are encrypted under the other
// server's public key).
func setupServer(ctx context.Context, role string, cfg protocol.Config, opts ServerOptions, ring *big.Int) (*serverSetup, error) {
	if opts.Parallelism != 0 {
		cfg.Parallelism = opts.Parallelism
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ResolvedArgmaxStrategy() != protocol.StrategyTournament {
		return nil, fmt.Errorf("deploy: key file selects the %q argmax schedule, a test reference deployments do not run: %w",
			cfg.ArgmaxStrategy, protocol.ErrBadConfig)
	}
	obs.SetBuildInfo(nil, int(wireVersion), cfg.ResolvedParallelism())
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
		id, err := mintTraceID(opts.Seed)
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
	s.col = newCollector(cfg, opts.Instances, ring)
	if s.journal != nil {
		s.col.events = func(reason string) {
			s.journalEvent(opts, obs.Event{Type: obs.EventRejection, Instance: -1, Note: reason})
		}
	}
	return s, nil
}

// collectSubmissions waits for user submissions and freezes the grid: with
// Quorum and SubmitDeadline unset only a full grid releases, otherwise the
// submit window does too. role is the metric label ("s1"/"s2").
func collectSubmissions(ctx context.Context, s *serverSetup, opts ServerOptions, role string) error {
	var window time.Duration
	if opts.Quorum > 0 || opts.SubmitDeadline > 0 {
		window = opts.submitWindow()
	}
	if err := s.col.wait(ctx, time.Now(), window, role); err != nil {
		return err
	}
	got, want := s.col.counts()
	opts.log(levelInfo, "%s released submissions with %d of %d cells filled (quorum %d of %d users per instance)",
		strings.ToUpper(role), got, want, opts.quorumCount(s.cfg.Users), s.cfg.Users)
	return nil
}

// agreeParticipants resolves one query's submissions — row of col — on
// either server as aggregation groups (relay batches whole, direct users as
// singletons): it runs the participant exchange under the wire id (S1
// proposes, S2 intersects), publishes and journals the decision, and masks
// the grid by the agreed set. It reports the participant count alongside
// (0 when the exchange itself failed), and protocol.ErrQuorumNotMet (no
// protocol traffic follows) when the agreed set is below quorum.
func (s *serverSetup) agreeParticipants(ctx context.Context, opts ServerOptions, role string,
	peer transport.Conn, id int, col *collector, row int) ([]protocol.Group, int, error) {
	exchange := exchangeParticipantsS2
	if role == "s1" {
		exchange = exchangeParticipantsS1
	}
	agreed, err := exchange(ctx, peer, id, col.bitmap(row))
	if err != nil {
		return nil, 0, err
	}
	participants, quorum := ingest.Popcount(agreed), opts.quorumCount(s.cfg.Users)
	obs.Participants(role).Set(float64(participants))
	s.journalEvent(opts, obs.Event{Type: obs.EventQuorum, Instance: id,
		Note: fmt.Sprintf("participants=%d dropped=%d quorum=%d", participants, s.cfg.Users-participants, quorum)})
	if participants < quorum {
		queriesTotal(role, "quorum-not-met").Inc()
		opts.log(levelWarn, "%s query %d released %d of %d users, below quorum %d", role, id, participants, s.cfg.Users, quorum)
		return nil, participants, fmt.Errorf("deploy: query %d has %d of %d participants: %w",
			id, participants, s.cfg.Users, protocol.ErrQuorumNotMet)
	}
	groups, err := col.maskedGroups(row, agreed)
	return groups, participants, err
}

// RunS1 runs server S1: it listens for all users and for S2, collects the
// submissions, executes Alg. 5 once per instance over the peer connection,
// and returns the outcomes. Any failed instance is returned as an error;
// use RunS1Report to get per-instance results with graceful degradation.
func RunS1(ctx context.Context, file *keystore.S1File, opts ServerOptions) ([]protocol.Outcome, error) {
	rep, err := RunS1Report(ctx, file, opts)
	if err != nil {
		return nil, err
	}
	if ferr := rep.FirstErr(); ferr != nil {
		return nil, ferr
	}
	return rep.Outcomes(), nil
}

// RunS1Report runs server S1 and returns a per-instance Report. It leads
// the peer-link session (s1Session.run) over the grid's instances in order:
// transient I/O failures are retried on a fresh peer connection up to the
// MaxRetries budget, and an instance that exhausts its budget is recorded
// as failed while the rest of the batch completes.
func RunS1Report(ctx context.Context, file *keystore.S1File, opts ServerOptions) (*Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	keys, err := file.KeysS1()
	if err != nil {
		return nil, err
	}
	keys.Precompute() // build fixed-base tables once at key load
	s, err := setupServer(ctx, "S1", file.Config, opts, ringOf(keys.PeerPub))
	if err != nil {
		return nil, err
	}
	defer s.admin.close(ctx)
	defer s.journal.Close()
	defer s.l.Close()

	ps := newPeerSource()
	defer ps.close()
	acceptErr := make(chan error, 1)
	acceptCtx, stopAccept := context.WithCancel(ctx)
	defer stopAccept()
	go s.acceptLoop(acceptCtx, opts, s.gridRoutes(opts, ps), acceptErr)

	// Claim the initial peer link (the accept loop has already checked its
	// hello), then lead the per-instance session. The accept loop keeps
	// running so S2 reconnections land in the peerSource.
	awaitCtx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
	peer, err := ps.await(awaitCtx)
	cancel()
	if err != nil {
		select {
		case aerr := <-acceptErr:
			return nil, aerr
		default:
		}
		return nil, err
	}
	opts.log(levelInfo, "S1 connected to peer S2 (budget %d retries)", opts.MaxRetries)
	if err := collectSubmissions(ctx, s, opts, "s1"); err != nil {
		peer.Close()
		return nil, err
	}
	sess := newS1Session(s, opts, ps, peer)
	results := make([]InstanceResult, opts.Instances)
	for i := range results {
		results[i] = sess.run(ctx, i, s.col, i, keys)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("deploy: run cancelled after instance %d: %w", i, err)
		}
	}
	sess.end(ctx)
	return &Report{Results: results}, nil
}

// gridRoutes serves a batch run's connections: the peer link, on S1, which
// passes its peerSource (nil on servers that accept no peer), where a
// reconnection replaces the previous link; relay batches and user frames
// into the run's grid, the frame's instance slot naming the row.
func (s *serverSetup) gridRoutes(opts ServerOptions, ps *peerSource) routes {
	r := routes{
		relay: func(ctx context.Context, conn transport.Conn) { serveRelayConn(ctx, conn, s, opts) },
		user: func(ctx context.Context, conn transport.Conn) error {
			return s.serveUserConn(ctx, conn, opts, func(i int) (*collector, int) { return s.col, i }, nil)
		},
	}
	if ps != nil {
		r.peer = func(ctx context.Context, conn transport.Conn, h hello) {
			if acceptPeer(ctx, s, ps, conn, h, false, opts) {
				ps.offer(conn)
			}
		}
	}
	return r
}

// ringOf returns the Paillier ciphertext ring bound N² (nil for a nil key).
func ringOf(pk *paillier.PublicKey) *big.Int {
	if pk == nil {
		return nil
	}
	return pk.N2
}

// RunS2 runs server S2: it listens for users on its own address, dials S1
// for the protocol channel, and mirrors S1's per-instance execution. Any
// failed instance is returned as an error; use RunS2Report for
// per-instance results.
func RunS2(ctx context.Context, file *keystore.S2File, opts ServerOptions) ([]protocol.Outcome, error) {
	rep, err := RunS2Report(ctx, file, opts)
	if err != nil {
		return nil, err
	}
	if ferr := rep.FirstErr(); ferr != nil {
		return nil, ferr
	}
	return rep.Outcomes(), nil
}

// RunS2Report runs server S2 and returns a per-instance Report. It follows
// S1's session: it re-runs any instance S1 re-announces (replays are
// idempotent — the outcome is a deterministic function of the submissions)
// and re-establishes the peer link, within the MaxRetries budget, whenever
// it drops.
func RunS2Report(ctx context.Context, file *keystore.S2File, opts ServerOptions) (*Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.PeerAddr == "" {
		return nil, fmt.Errorf("deploy: S2 requires the S1 peer address")
	}
	keys, err := file.KeysS2()
	if err != nil {
		return nil, err
	}
	keys.Precompute() // build fixed-base tables once at key load
	s, err := setupServer(ctx, "S2", file.Config, opts, ringOf(keys.PeerPub))
	if err != nil {
		return nil, err
	}
	defer s.admin.close(ctx)
	defer s.journal.Close()
	defer s.l.Close()

	acceptErr := make(chan error, 1)
	acceptCtx, stopAccept := context.WithCancel(ctx)
	defer stopAccept()
	go s.acceptLoop(acceptCtx, opts, s.gridRoutes(opts, nil), acceptErr)

	connect := func() (transport.Conn, error) { return s.dialS1(ctx, opts, 0, opts.Seed+17) }
	peer, err := connect()
	if err != nil {
		return nil, err
	}
	opts.log(levelInfo, "S2 connected to peer S1 at %s", opts.PeerAddr)
	if err := collectSubmissions(ctx, s, opts, "s2"); err != nil {
		peer.Close()
		return nil, err
	}
	// Follow S1's session over the grid: every begin frame (re)runs the
	// named instance and carries the authoritative status of the previous
	// one, the end frame that of the last. A begin outside the grid or a
	// failure a fresh link cannot fix aborts the run.
	n := opts.Instances
	rng := newRNG(s2Seed(opts.Seed))
	statuses := make([]int64, n)
	local := make([]*InstanceResult, n)  // freshest local attempt per instance
	done := make([]*protocol.Outcome, n) // last completed local outcome
	attempts := make([]int, n)
	last, err := s.followSession(ctx, opts, peer, connect, opts.attemptTimeout(),
		func(ctx context.Context, peer transport.Conn, f sessionFrame) (bool, error) {
			i := f.instance
			if i < 0 || i >= n {
				return false, fmt.Errorf("deploy: s2 session: begin for instance %d outside [0, %d)", i, n)
			}
			if i > 0 {
				statuses[i-1] = f.status
			}
			attempts[i]++
			res := s.followQuery(ctx, opts, rng, keys, peer, f, s.col, i)
			local[i] = &res
			switch {
			case res.Err == nil:
				done[i] = &res.Outcome
			case errors.Is(res.Err, protocol.ErrQuorumNotMet):
				done[i] = nil
			case !attemptRetryable(ctx, res.Err):
				return false, res.Err
			default:
				opts.log(levelWarn, "S2 instance %d attempt failed, awaiting replay: %v", i, res.Err)
			}
			return linkClean(res.Err), nil
		})
	if err != nil {
		return nil, err
	}
	statuses[n-1] = last

	// Reconcile S1's authoritative statuses with the local runs.
	results := make([]InstanceResult, n)
	for i := 0; i < n; i++ {
		res := InstanceResult{Instance: i, Outcome: protocol.Outcome{Consensus: false, Label: -1},
			Attempts: attempts[i], Participants: s.cfg.Users}
		var localErr error
		if local[i] != nil {
			res.Participants, localErr = local[i].Participants, local[i].Err
		}
		res.Dropped = s.cfg.Users - res.Participants
		switch {
		case statuses[i] == statusOK && done[i] != nil:
			res.Outcome = *done[i]
		case statuses[i] == statusOK:
			// S1 committed the instance but our local run never finished
			// (e.g. the final volley was lost). The label exists at S1.
			res.Err = fmt.Errorf("deploy: s2 instance %d: peer reported success but the local run did not complete: %w",
				i, firstNonNil(localErr, errPeerGone))
		case errors.Is(localErr, protocol.ErrQuorumNotMet):
			// A quorum miss is a clean local verdict, not a delivery
			// failure; surface it regardless of the peer status.
			res.Err = localErr
		case statuses[i] == statusFailed:
			res.Err = fmt.Errorf("deploy: s2 instance %d: %w", i, firstNonNil(localErr, errors.New("peer reported failure")))
		case done[i] != nil && localErr == nil:
			// No authoritative status (end frame lost) but the local run
			// completed; the outcome is deterministic, so trust it.
			res.Outcome = *done[i]
		default:
			res.Err = fmt.Errorf("deploy: s2 instance %d never completed: %w", i, firstNonNil(localErr, errPeerGone))
		}
		if res.Err != nil && !errors.Is(res.Err, protocol.ErrQuorumNotMet) {
			queriesFailed("s2").Inc()
		}
		results[i] = res
	}
	return &Report{Results: results}, nil
}

// firstNonNil returns the first non-nil error.
func firstNonNil(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
