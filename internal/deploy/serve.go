package deploy

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// S1's one run: the admission controller, ε-budget scheduler, epoch state
// machine and query pipeline, with or without pre-registered queries. See
// docs/PROTOCOL.md § Continuous operation.

// serveQuery is one registered query's lifecycle state on S1. Collection
// (the per-query collector fed by the accept loop) overlaps the protocol
// phases of earlier queries; the serve loop runs queries one at a time on
// the peer protocol link once their collector releases. Once resolved, a
// copy without the collector answers replays while in the replay window.
type serveQuery struct {
	qid       int
	tenant    int64
	epoch     int
	col       *collector
	announced time.Time
	grant     *grantKey // nil for a pre-registered query

	res  InstanceResult
	done chan struct{} // closed exactly once, when res is final
}

// ServeReport summarizes one S1 run.
type ServeReport struct {
	// Results holds one entry per pre-registered query (Instances), in
	// query order. A query admitted on demand leaves no entry: its record
	// is the journal (admission, query and spend events), Admissions and
	// Tenants.
	Results []InstanceResult
	// Admissions counts admission decisions by label ("admitted",
	// "budget-exhausted", "draining", "overloaded", "unavailable").
	Admissions map[string]int
	// Rotations is the number of committed epoch rotations.
	Rotations int
	// Epoch is the final admission epoch.
	Epoch int
	// Tenants is the committed per-tenant ledger state at shutdown.
	Tenants []TenantSpend
}

// TenantSpend is one tenant's committed state, as the ledger reports it.
type TenantSpend = dp.TenantSpend

// serveState is S1's shared run state. The accept-side admission
// path and the serve loop communicate through it under mu; the ctl link
// to S2 serializes its request/response exchanges independently.
type serveState struct {
	s     *serverSetup
	opts  ServeOptions
	files []*keystore.S1File
	keys  []protocol.KeysS1 // loaded per epoch; zeroized on retirement
	rings []*big.Int        // per-epoch peer-key N², for per-query collectors

	ledger *dp.Ledger
	cost   dp.Spend // worst-case per-query spend: a released label
	// commitErr is the first spend the ledger failed to record; the run
	// returns it when it drains.
	commitErr error

	ctl *ctlLink

	mu         sync.Mutex
	draining   bool
	epoch      int
	loaded     int // epochs with keys loaded: [0, loaded)
	nextQID    int
	queries    map[int]*serveQuery // registered, not yet resolved
	past       map[int]*serveQuery // the replay window, oldest first in pastOrder
	pastOrder  []int
	grants     map[grantKey]*serveQuery // admissions in queries or past
	batch      []InstanceResult         // the pre-registered queries' results
	retired    map[int]bool
	admitted   int // announced admissions: what RotateAfter counts
	admissions map[string]int
	rotations  int

	runnable   chan *serveQuery
	rotateKick chan struct{}
	// owed counts the result replies the drain waits for (owe); settled is
	// closed when it falls to zero while the drain waits.
	owed    int
	settled chan struct{}
}

// grantKey makes admission idempotent: a client that lost the admit reply
// redials with the same (tenant, nonce) and receives the original grant.
type grantKey struct {
	tenant int64
	nonce  int64
}

// ctlLink is S1's view of the serve-control connection S2 dials. One
// request/response exchange at a time; a failed exchange discards the
// connection and waits for S2's redial.
type ctlLink struct {
	mu      sync.Mutex
	src     *peerSource
	conn    transport.Conn
	retries int
	backoff time.Duration
	timeout time.Duration
}

// roundTrip sends one ctl request and awaits its ack, retrying on a fresh
// connection within the budget. Every ctl request is idempotent on S2, so
// a retry after a lost ack is safe.
func (c *ctlLink) roundTrip(ctx context.Context, ackCode, code int64, args ...int64) ([]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for try := 0; try <= c.retries; try++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if try > 0 {
			sleepCtx(ctx, backoffDelay(c.backoff, try))
		}
		if c.conn == nil {
			awaitCtx, cancel := context.WithTimeout(ctx, c.timeout)
			conn, err := c.src.await(awaitCtx)
			cancel()
			if err != nil {
				lastErr = err
				continue
			}
			c.conn = conn
		} else {
			c.conn = c.src.takeNewer(c.conn)
		}
		rctx, cancel := context.WithTimeout(ctx, c.timeout)
		reply, err := sendCtl(rctx, c.conn, ackCode, code, args...)
		cancel()
		if err == nil {
			return reply, nil
		}
		lastErr = err
		c.conn.Close()
		c.conn = nil
		if !attemptRetryable(ctx, err) {
			break
		}
	}
	return nil, fmt.Errorf("deploy: serve ctl %d: %w", code, lastErr)
}

// ServeS1 is S1's one run. It registers queries 0..opts.Instances-1 for
// tenant 0 under epoch 0 (reserving their spend in the ledger) before it
// accepts a connection, admits further queries over the serve handshake
// with per-tenant ε quotas, runs every query on the peer-link session while
// later ones collect, rotates key epochs (files[1:] are the pre-provisioned
// future epochs), and drains gracefully when DrainCh fires, when the
// pre-registered queries have all resolved (Instances > 0), or when ctx
// ends. A run that drained returns its report, and with it an error if ctx
// ended first or if the ledger failed to record a spend (the in-memory
// Tenants are then ahead of LedgerPath's file).
func ServeS1(ctx context.Context, files []*keystore.S1File, opts ServeOptions) (*ServeReport, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("deploy: need at least one epoch key file")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	for i, f := range files[1:] {
		if f.Config != files[0].Config {
			return nil, fmt.Errorf("deploy: epoch %d key file config differs from epoch 0", i+1)
		}
	}
	keys0, err := files[0].KeysS1()
	if err != nil {
		return nil, err
	}
	keys0.Precompute()
	ledger, err := dp.OpenLedger(opts.LedgerPath, opts.Tenants, opts.DefaultQuota, opts.delta())
	if err != nil {
		return nil, err
	}
	defer ledger.Close()
	// Publish the admission state before setupServer opens the admin
	// endpoint and the listener: a probe that can reach /healthz must never
	// read the static "ok" of a process that runs no server.
	cost, err := dp.QuerySpend(files[0].Config.Sigma1, files[0].Config.Sigma2, true, true)
	if err != nil {
		return nil, err
	}
	publishReadiness(false, ledger, cost)
	defer obs.SetReadiness("", true)
	s, err := setupServer(ctx, "S1", files[0].Config, opts.ServerOptions)
	if err != nil {
		return nil, err
	}
	defer s.admin.close(ctx)
	defer s.journal.Close()
	defer s.l.Close()

	st := &serveState{
		s:          s,
		opts:       opts,
		files:      files,
		keys:       make([]protocol.KeysS1, len(files)),
		rings:      make([]*big.Int, len(files)),
		ledger:     ledger,
		cost:       cost,
		queries:    make(map[int]*serveQuery),
		past:       make(map[int]*serveQuery),
		grants:     make(map[grantKey]*serveQuery),
		batch:      make([]InstanceResult, opts.Instances),
		retired:    make(map[int]bool),
		admissions: make(map[string]int),
		runnable:   make(chan *serveQuery),
		rotateKick: make(chan struct{}, 1),
		loaded:     1,
	}
	st.keys[0] = keys0
	st.rings[0] = ringOf(keys0.PeerPub)
	pre := make([]*serveQuery, opts.Instances)
	for i := range pre {
		if err := ledger.Reserve(0, cost); err != nil {
			return nil, fmt.Errorf("deploy: registering query %d: %w", i, err)
		}
		st.mu.Lock()
		pre[i] = st.registerLocked(0)
		st.admitted++
		st.mu.Unlock()
		st.decide("admitted", 0, i)
		obs.ServeInflight("s1").Add(1)
	}
	st.ctl = &ctlLink{
		src:     newPeerSource(),
		retries: opts.MaxRetries,
		backoff: opts.Backoff,
		timeout: opts.attemptTimeout(),
	}
	defer st.ctl.src.close()

	ps := newPeerSource()
	defer ps.close()
	acceptErr := make(chan error, 1)
	acceptCtx, stopAccept := context.WithCancel(ctx)
	defer s.endHandlers(stopAccept, opts.ServerOptions)
	go s.acceptLoop(acceptCtx, opts.ServerOptions, st.routes(ps), acceptErr)

	obs.ServeEpoch("s1").Set(0)

	// The startup wait spans S2's full dial-retry budget: under fault
	// injection the first protocol dial may be dropped several times.
	awaitCtx, cancel := context.WithTimeout(ctx, time.Duration(opts.MaxRetries+1)*opts.attemptTimeout())
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
	opts.log(levelInfo, "S1 connected to S2: admission open (window %d, %d queries registered, epoch 0 of %d provisioned, budget %d retries)",
		opts.maxInFlight(), opts.Instances, len(files), opts.MaxRetries)
	// One watcher hands the pre-registered queries over in query order.
	go func() {
		for _, q := range pre {
			st.watch(acceptCtx, q)
		}
	}()
	return st.run(ctx, ps, peer, opts.Instances)
}

// routes serves S1's connections: peer hellos carrying capServeCtl feed the
// ctl link, other peer hellos the protocol source; user frames and relay
// batches go to the collector of the query their instance slot names, and
// admission and result-wait frames to userControl.
func (st *serveState) routes(ps *peerSource) routes {
	opts := st.opts.ServerOptions
	return routes{
		peer: func(ctx context.Context, conn transport.Conn, h hello) {
			switch {
			case !acceptPeer(ctx, st.s, ps, conn, h, opts):
			case h.caps&capServeCtl != 0:
				st.ctl.src.offer(conn)
			default:
				ps.offer(conn)
			}
		},
		relay: func(ctx context.Context, conn transport.Conn) { serveRelayConn(ctx, conn, st.s, opts, st.collector) },
		user: func(ctx context.Context, conn transport.Conn) error {
			c := &clientConn{st: st, unasked: make(map[int]bool)}
			defer c.close()
			return st.s.serveUserConn(ctx, conn, c.collector, c.control)
		},
	}
}

// collector is the query lookup of S1's routes: the collector of query qid,
// nil if no such query is registered.
func (st *serveState) collector(qid int) *collector {
	st.mu.Lock()
	defer st.mu.Unlock()
	if q := st.queries[qid]; q != nil {
		return q.col
	}
	return nil
}

// clientConn is S1's view of one client connection: the queries it
// delivered submissions to and has not yet asked the result of on it. A
// client may ask on the connection it uploaded on once the query has
// resolved, so the drain owes each of these queries a reply until it is
// asked for or the connection closes.
type clientConn struct {
	st      *serveState
	unasked map[int]bool
}

// collector is the connection's query lookup: st.collector, noting the
// query as owed.
func (c *clientConn) collector(qid int) *collector {
	st := c.st
	st.mu.Lock()
	defer st.mu.Unlock()
	q := st.queries[qid]
	if q == nil {
		return nil
	}
	if !c.unasked[qid] {
		c.unasked[qid] = true
		st.oweLocked(1)
	}
	return q.col
}

// control is st.userControl; an answered result wait settles its query.
func (c *clientConn) control(ctx context.Context, conn transport.Conn, flags []int64) error {
	err := c.st.userControl(ctx, conn, flags)
	if len(flags) >= 2 && flags[0] == ctrlResultWait && c.unasked[int(flags[1])] {
		delete(c.unasked, int(flags[1]))
		c.st.owe(-1)
	}
	return err
}

// close settles every query the connection still owed: it asks no more.
func (c *clientConn) close() { c.st.owe(-len(c.unasked)) }

// owe adds n to the result replies the drain waits for.
func (st *serveState) owe(n int) {
	st.mu.Lock()
	st.oweLocked(n)
	st.mu.Unlock()
}

func (st *serveState) oweLocked(n int) {
	st.owed += n
	if st.owed == 0 && st.settled != nil {
		close(st.settled)
		st.settled = nil
	}
}

// userControl answers the control frames only S1's clients send: admission
// requests and blocking result waits. A reply that cannot be delivered is
// not an error — the client is gone, and a replayed admit or result wait is
// answered again while the query is in flight or in the replay window.
func (st *serveState) userControl(ctx context.Context, conn transport.Conn, flags []int64) error {
	switch {
	case len(flags) >= 3 && flags[0] == ctrlAdmitRequest:
		status, qid, epoch := st.admit(ctx, flags[1], flags[2])
		_ = transport.SendControl(ctx, conn, ctrlAdmitReply, status, int64(qid), int64(epoch))
	case len(flags) >= 2 && flags[0] == ctrlResultWait:
		_ = st.replyResult(ctx, conn, flags[1])
	default:
		return fmt.Errorf("deploy: malformed or unknown client control frame %v", flags)
	}
	return nil
}

// admit is the admission controller: idempotent grant replay, drain and
// window checks, ε-budget reservation, and the ctl announce that
// registers the query on S2 before the grant is returned. Refusals spend
// no protocol bytes.
func (st *serveState) admit(ctx context.Context, tenant, nonce int64) (status int64, qid, epoch int) {
	start := time.Now()
	defer func() {
		obs.AdmissionWaitSeconds("s1").Observe(time.Since(start).Seconds())
	}()

	key := grantKey{tenant: tenant, nonce: nonce}
	st.mu.Lock()
	if q, ok := st.grants[key]; ok {
		st.mu.Unlock()
		return admitOK, q.qid, q.epoch // idempotent replay of a lost reply
	}
	if st.draining {
		st.mu.Unlock()
		return st.refuse(admitDraining, tenant)
	}
	if len(st.queries) >= st.opts.maxInFlight() {
		st.mu.Unlock()
		return st.refuse(admitOverloaded, tenant)
	}
	st.mu.Unlock()

	if err := st.ledger.Reserve(tenant, st.cost); err != nil {
		if errors.Is(err, ErrBudgetExhausted) {
			st.opts.log(levelWarn, "S1 refusing tenant %d: %v", tenant, err)
			status, qid, epoch = st.refuse(admitBudgetExhausted, tenant)
			st.updateReadiness()
			return status, qid, epoch
		}
		st.opts.log(levelWarn, "S1 budget reservation error for tenant %d: %v", tenant, err)
		return st.refuse(admitUnavailable, tenant)
	}

	// Re-check under the lock that registers the query: a drain may have
	// begun, or concurrent admissions filled the window, while this one was
	// reserving.
	st.mu.Lock()
	if st.draining || len(st.queries) >= st.opts.maxInFlight() {
		status = admitOverloaded
		if st.draining {
			status = admitDraining
		}
		st.mu.Unlock()
		st.ledger.Unreserve(tenant, st.cost)
		return st.refuse(status, tenant)
	}
	q := st.registerLocked(tenant)
	q.grant = &key
	st.grants[key] = q
	st.mu.Unlock()

	reply, err := st.ctl.roundTrip(ctx, ctrlServeAck, ctrlServeAnnounce, int64(q.qid), int64(q.epoch), tenant)
	if err == nil && (len(reply) < 2 || reply[1] != 0) {
		err = fmt.Errorf("deploy: S2 refused query %d (ack %v)", q.qid, reply)
	}
	if err != nil {
		st.opts.log(levelWarn, "S1 could not announce query %d to S2: %v", q.qid, err)
		// A drain timeout or cancellation may have taken the query while the
		// announce waited (failUnresolved): its resolution is then theirs.
		st.mu.Lock()
		owned := st.queries[q.qid] == q
		if owned {
			delete(st.queries, q.qid)
			delete(st.grants, key)
		}
		st.mu.Unlock()
		if owned {
			q.res.Err = fmt.Errorf("deploy: S2 did not register query %d: %w", q.qid, err)
			close(q.done) // a result wait that found the query gets its reply
			st.ledger.Unreserve(tenant, st.cost)
		}
		return st.refuse(admitUnavailable, tenant)
	}

	// Only announced admissions count toward RotateAfter: one S2 refused
	// must not use up the count that triggers the rotation.
	st.mu.Lock()
	st.admitted++
	rotateDue := st.opts.RotateAfter > 0 && st.admitted == st.opts.RotateAfter
	st.mu.Unlock()
	st.decide("admitted", tenant, q.qid)
	obs.ServeInflight("s1").Add(1)
	go st.watch(ctx, q)
	if rotateDue {
		select {
		case st.rotateKick <- struct{}{}:
		default:
		}
	}
	return admitOK, q.qid, q.epoch
}

// refuse records one typed refusal.
func (st *serveState) refuse(status int64, tenant int64) (int64, int, int) {
	st.decide(admitStatuses[status].decision, tenant, -1)
	return status, 0, 0
}

// decide counts and journals one admission decision.
func (st *serveState) decide(decision string, tenant int64, qid int) {
	st.mu.Lock()
	st.admissions[decision]++
	st.mu.Unlock()
	obs.Admissions("s1", decision).Inc()
	st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventAdmission, Instance: qid,
		Note: fmt.Sprintf("decision=%s tenant=%d", decision, tenant)})
}

// registerLocked registers the next query ID for tenant under the current
// epoch, with its own collector. Callers hold st.mu and have reserved the
// query's spend.
func (st *serveState) registerLocked(tenant int64) *serveQuery {
	q := &serveQuery{
		qid:       st.nextQID,
		tenant:    tenant,
		epoch:     st.epoch,
		col:       st.s.newCollector(st.rings[st.epoch]),
		announced: time.Now(),
		done:      make(chan struct{}),
	}
	q.res = InstanceResult{Instance: q.qid, Outcome: protocol.Outcome{Consensus: false, Label: -1}}
	st.nextQID++
	st.queries[q.qid] = q
	return q
}

// watch releases the query when its collector fills or its submit window
// elapses, then hands it to the serve loop.
func (st *serveState) watch(ctx context.Context, q *serveQuery) {
	if q.col.wait(ctx, q.announced, st.opts.submitWindow(), "s1") != nil {
		return
	}
	select {
	case st.runnable <- q:
	case <-ctx.Done():
	}
}

// updateReadiness publishes the /healthz serve state.
func (st *serveState) updateReadiness() {
	st.mu.Lock()
	draining := st.draining
	st.mu.Unlock()
	publishReadiness(draining, st.ledger, st.cost)
}

// publishReadiness maps the admission state onto /healthz.
func publishReadiness(draining bool, ledger *dp.Ledger, cost dp.Spend) {
	switch {
	case draining:
		obs.SetReadiness("draining", false)
	case ledger.Exhausted(cost):
		obs.SetReadiness("budget-exhausted", false)
	default:
		obs.SetReadiness("admitting", true)
	}
}

// run is the serve loop: it leads runnable queries one at a time on the
// peer protocol link (s1Session.run with the query ID in the wire's instance
// slot, the query's own collector and its epoch's keys; collection of later
// queries overlaps), applies rotation and drain triggers — the last of the
// pre-registered queries 0..pre-1 resolving is one — and returns the report
// once drained. A cancelled run fails what is left and returns at once,
// without the farewell to S2.
func (st *serveState) run(ctx context.Context, ps *peerSource, peer transport.Conn, pre int) (*ServeReport, error) {
	sess := newS1Session(st.s, st.opts.ServerOptions, ps, peer)
	drainC := st.opts.DrainCh
	// The drain has one deadline, fixed when it begins: the loop and the
	// result replies after it share it.
	var drainTimer <-chan time.Time
	var drainDeadline time.Time
	drain := func() {
		drainC = nil
		st.beginDrain()
		drainDeadline = time.Now().Add(st.opts.drainTimeout())
		drainTimer = time.After(time.Until(drainDeadline))
	}
	pending := pre
	var runErr error

loop:
	for {
		if st.drained() {
			break
		}
		select {
		case q := <-st.runnable:
			q.res = sess.run(ctx, q.qid, q.col, st.epochKeys(q.epoch))
			st.resolve(q)
			st.maybeRetire(ctx)
			st.updateReadiness()
			if q.qid < pre {
				if pending--; pending == 0 && drainTimer == nil {
					drain()
				}
			}
		case <-st.rotateKick:
			st.rotate(ctx)
		case <-st.opts.RotateCh:
			st.rotate(ctx)
		case <-drainC:
			drain()
		case <-drainTimer:
			st.opts.log(levelWarn, "S1 drain timeout; failing %d unresolved queries", st.inflightCount())
			st.failUnresolved(fmt.Errorf("deploy: drain timeout: %w", ErrDraining))
			break loop
		case <-ctx.Done():
			st.beginDrain()
			missing := st.failUnresolved(fmt.Errorf("deploy: run cancelled: %w", ctx.Err()))
			runErr = fmt.Errorf("deploy: run cancelled with %d submissions missing: %w", missing, ctx.Err())
			break loop
		}
	}

	if runErr == nil {
		st.awaitReplies(drainDeadline)
		// Tell S2 the stream is over: a drain marker on the ctl link (so it
		// stops expecting announces) and the end-of-session frame on the
		// protocol link (so its frame loop exits).
		dctx, cancel := context.WithTimeout(ctx, st.opts.attemptTimeout())
		if _, err := st.ctl.roundTrip(dctx, ctrlEpochAck, ctrlServeDrain, 0); err != nil {
			st.opts.log(levelWarn, "S1 could not deliver drain marker to S2: %v", err)
		}
		sess.end(dctx)
		cancel()
	}

	st.mu.Lock()
	registered := st.nextQID
	rep := &ServeReport{
		Results:    st.batch,
		Admissions: make(map[string]int, len(st.admissions)),
		Rotations:  st.rotations,
		Epoch:      st.epoch,
	}
	for k, v := range st.admissions {
		rep.Admissions[k] = v
	}
	commitErr := st.commitErr
	st.mu.Unlock()
	rep.Tenants = st.ledger.Spends()
	st.opts.log(levelInfo, "S1 drained: %d queries, %d rotations, final epoch %d", registered, rep.Rotations, rep.Epoch)
	return rep, errors.Join(runErr, commitErr)
}

// drained reports whether the loop may exit: draining with nothing in
// flight.
func (st *serveState) drained() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.draining && len(st.queries) == 0
}

// awaitReplies waits, until the drain's deadline, for every result reply
// the drain owes: to the waits registered while their query was in flight,
// and to the open connections that uploaded to a query and have not asked
// for its result. The loop exits draining with nothing in flight, so no
// debt is added after.
func (st *serveState) awaitReplies(deadline time.Time) {
	st.mu.Lock()
	if st.owed == 0 {
		st.mu.Unlock()
		return
	}
	settled := make(chan struct{})
	st.settled = settled
	st.mu.Unlock()
	select {
	case <-settled:
	case <-time.After(time.Until(deadline)):
		st.opts.log(levelWarn, "S1 drain timeout; result replies still owed")
	}
}

// inflightCount returns the live admission count.
func (st *serveState) inflightCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.queries)
}

// beginDrain stops admission; in-flight queries keep running.
func (st *serveState) beginDrain() {
	st.mu.Lock()
	already := st.draining
	st.draining = true
	st.mu.Unlock()
	if !already {
		st.opts.log(levelInfo, "S1 draining: admission closed, %d queries in flight", st.inflightCount())
		obs.SetReadiness("draining", false)
		st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1, Note: "draining"})
	}
}

// epochKeys returns the loaded key view for an epoch.
func (st *serveState) epochKeys(epoch int) protocol.KeysS1 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.keys[epoch]
}

// resolve finalizes a query: ledger commit (SVT always — conservative,
// protocol bytes may have flowed on any attempt — RNM only on a released
// label), the spend's journal notes the soak replays, bookkeeping, and
// the result broadcast to waiting clients. The collector goes with it: only
// the replay window (and, if pre-registered, the report) keeps the result.
func (st *serveState) resolve(q *serveQuery) {
	released := q.res.Err == nil && q.res.Outcome.Consensus
	// st.cost was priced from the same sigmas, so they price without error.
	spent, _ := dp.QuerySpend(st.s.cfg.Sigma1, st.s.cfg.Sigma2, true, released)
	eps, err := st.ledger.Commit(q.tenant, st.cost, spent)
	if err != nil {
		st.opts.log(levelWarn, "S1 ledger commit for query %d failed: %v", q.qid, err)
		st.mu.Lock()
		if st.commitErr == nil {
			st.commitErr = fmt.Errorf("deploy: S1 ledger did not record query %d's spend: %w", q.qid, err)
		}
		st.mu.Unlock()
	}
	obs.TenantEpsilon(strconv.FormatInt(q.tenant, 10)).Set(eps)
	for _, note := range spent.Notes(q.tenant) {
		st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventSpend, Instance: q.qid, Note: note})
	}
	st.mu.Lock()
	st.rememberLocked(q)
	if q.qid < len(st.batch) {
		st.batch[q.qid] = q.res
	}
	st.mu.Unlock()
	obs.ServeInflight("s1").Add(-1)
	close(q.done)
}

// rememberLocked moves a resolved query from queries into the replay
// window, as a copy without its collector, and forgets the window's oldest
// entry, grant included, once the window is full. Callers hold st.mu.
func (st *serveState) rememberLocked(q *serveQuery) {
	past := &serveQuery{qid: q.qid, tenant: q.tenant, epoch: q.epoch, grant: q.grant, res: q.res, done: q.done}
	delete(st.queries, q.qid)
	st.past[q.qid] = past
	if q.grant != nil {
		st.grants[*q.grant] = past
	}
	st.pastOrder = append(st.pastOrder, q.qid)
	if len(st.pastOrder) > st.opts.replayWindow() {
		old := st.past[st.pastOrder[0]]
		if old.grant != nil {
			delete(st.grants, *old.grant)
		}
		delete(st.past, old.qid)
		st.pastOrder = st.pastOrder[1:]
	}
}

// failUnresolved resolves every still-open query with err (drain timeout
// or cancellation) and returns how many submissions their collectors still
// lacked. The queries never ran, but their registration reserved spend, so
// they still commit conservatively. It takes them out of queries under the
// lock it finds them by, so an admission whose announce fails meanwhile
// leaves each to this resolution.
func (st *serveState) failUnresolved(err error) (missing int) {
	st.mu.Lock()
	open := make([]*serveQuery, 0, len(st.queries))
	for qid, q := range st.queries {
		open = append(open, q)
		delete(st.queries, qid)
	}
	st.mu.Unlock()
	for _, q := range open {
		got, want := q.col.counts()
		missing += want - got
		q.res.Err = err
		queriesFailed("s1").Inc()
		st.resolve(q)
	}
	return missing
}

// replyResult answers a result-wait: it blocks until the query resolves
// (the client sends nothing else on the connection until the reply), then
// reports the terminal status. A query neither in flight nor in the replay
// window is resultUnknown. A wait registered while its query is in flight
// holds the drain until its reply is sent (owe).
func (st *serveState) replyResult(ctx context.Context, conn transport.Conn, qid64 int64) error {
	qid := int(qid64)
	st.mu.Lock()
	q := st.queries[qid]
	if q != nil {
		st.oweLocked(1)
		defer st.owe(-1)
	} else {
		q = st.past[qid]
	}
	st.mu.Unlock()
	if q == nil {
		return transport.SendControl(ctx, conn, ctrlResultReply, qid64, resultUnknown, -1, 0)
	}
	select {
	case <-q.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	status := resultFailed
	label := int64(-1)
	switch {
	case q.res.Err == nil && q.res.Outcome.Consensus:
		status = resultConsensus
		label = int64(q.res.Outcome.Label)
	case q.res.Err == nil:
		status = resultNoConsensus
	case errors.Is(q.res.Err, protocol.ErrQuorumNotMet):
		status = resultQuorumMiss
	}
	return transport.SendControl(ctx, conn, ctrlResultReply, qid64, status, label, int64(q.res.Attempts))
}

// rotate performs one S1-led two-phase epoch bump: load and prepare the
// next epoch's keys on both sides, then commit — admission flips to the
// new epoch while in-flight queries drain under the old one. The old
// epoch's material is zeroized by maybeRetire once its last query
// resolves.
func (st *serveState) rotate(ctx context.Context) {
	st.mu.Lock()
	next := st.epoch + 1
	if next >= len(st.files) {
		st.mu.Unlock()
		st.opts.log(levelWarn, "S1 rotation requested but no epoch %d key file is provisioned", next)
		st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1,
			Note: fmt.Sprintf("rotate-skipped epoch=%d reason=no-keys", next)})
		return
	}
	st.mu.Unlock()

	keys, err := st.files[next].KeysS1()
	if err != nil {
		st.opts.log(levelWarn, "S1 epoch %d key load failed: %v", next, err)
		return
	}
	keys.Precompute()

	reply, err := st.ctl.roundTrip(ctx, ctrlEpochAck, ctrlEpochPrepare, int64(next))
	if err != nil || len(reply) < 2 || reply[1] != 0 {
		st.opts.log(levelWarn, "S1 epoch %d prepare failed on S2 (reply %v): %v", next, reply, err)
		st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1,
			Note: fmt.Sprintf("prepare-failed epoch=%d", next)})
		return
	}
	st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1,
		Note: fmt.Sprintf("prepared epoch=%d", next)})

	st.mu.Lock()
	st.keys[next] = keys
	st.rings[next] = ringOf(keys.PeerPub)
	if next >= st.loaded {
		st.loaded = next + 1
	}
	st.epoch = next
	st.rotations++
	draining := len(st.queries) // all under older epochs
	st.mu.Unlock()
	obs.ServeEpoch("s1").Set(float64(next))
	st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1,
		Note: fmt.Sprintf("committed epoch=%d", next)})
	st.opts.log(levelInfo, "S1 rotated to epoch %d; %d in-flight queries drain under older epochs", next, draining)

	if _, err := st.ctl.roundTrip(ctx, ctrlEpochAck, ctrlEpochCommit, int64(next)); err != nil {
		// S2 learns epochs authoritatively from announces; the commit
		// marker is observability, so its loss is logged, not fatal.
		st.opts.log(levelWarn, "S1 epoch %d commit marker lost: %v", next, err)
	}
	st.maybeRetire(ctx)
}

// maybeRetire zeroizes every pre-current epoch whose last in-flight query
// has resolved, telling S2 to do the same. Admission can no longer grant
// into those epochs (grants only use the current one), so retirement is
// final.
func (st *serveState) maybeRetire(ctx context.Context) {
	st.mu.Lock()
	live := make(map[int]bool)
	for _, q := range st.queries {
		live[q.epoch] = true
	}
	var retire []int
	for e := 0; e < st.epoch; e++ {
		if e < st.loaded && !st.retired[e] && !live[e] {
			st.retired[e] = true
			retire = append(retire, e)
		}
	}
	st.mu.Unlock()
	for _, e := range retire {
		if _, err := st.ctl.roundTrip(ctx, ctrlEpochAck, ctrlEpochRetire, int64(e)); err != nil {
			st.opts.log(levelWarn, "S1 epoch %d retire marker lost: %v", e, err)
		}
		st.keys[e].Zeroize()
		st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1,
			Note: fmt.Sprintf("retired epoch=%d", e)})
		st.opts.log(levelInfo, "S1 retired epoch %d: private material zeroized", e)
	}
}
