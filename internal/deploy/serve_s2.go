package deploy

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// S2's one run: the serve-control follower. S2 dials two links to S1 — the
// dedicated ctl link, on which S1 announces queries, drives the epoch state
// machine and marks the drain, and the protocol link, on which S1's begin
// frames (query ID in the instance slot) trigger protocol runs. User and
// relay submissions arrive on the accept loop keyed by query ID.

// s2Query is one registered query's state on S2, held until S1 begins
// another query after it (or the run ends).
type s2Query struct {
	qid       int
	epoch     int
	col       *collector
	announced time.Time
	ran       bool // an attempt ended here: the in-flight gauge no longer counts it
}

// s2Epoch is one epoch's loaded material on S2.
type s2Epoch struct {
	keys protocol.KeysS2
	ring *big.Int
	live int // protocol runs currently using this epoch's keys
}

// serveS2 is S2's shared run state.
type serveS2 struct {
	s     *serverSetup
	opts  ServeOptions
	files []*keystore.S2File

	mu         sync.Mutex
	epochs     map[int]*s2Epoch
	retired    map[int]bool
	wantRetire map[int]bool
	queries    map[int]*s2Query
	begun      *s2Query         // the query of the last begin frame
	batch      []InstanceResult // the pre-registered queries' results
}

// ServeS2 is S2's one run. It registers queries 0..opts.Instances-1 under
// epoch 0, as S1 does, before it accepts a connection, registers the
// queries S1 announces on the ctl link, runs S2's side of every query S1
// begins, and returns its own verdict per pre-registered query once S1
// ends the session (or ctx ends). files[0] is the initial epoch; later
// entries are the pre-provisioned rotation epochs, loaded on demand when S1
// prepares or announces into them. Every epoch's private material is
// zeroized in place on the way out.
func ServeS2(ctx context.Context, files []*keystore.S2File, opts ServeOptions) (*Report, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("deploy: need at least one epoch key file")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.PeerAddr == "" {
		return nil, fmt.Errorf("deploy: S2 requires the S1 peer address")
	}
	for i, f := range files[1:] {
		if f.Config != files[0].Config {
			return nil, fmt.Errorf("deploy: epoch %d key file config differs from epoch 0", i+1)
		}
	}
	s, err := setupServer(ctx, "S2", files[0].Config, opts.ServerOptions)
	if err != nil {
		return nil, err
	}
	defer s.admin.close(ctx)
	defer s.journal.Close()
	defer s.l.Close()

	st := &serveS2{
		s:          s,
		opts:       opts,
		files:      files,
		epochs:     make(map[int]*s2Epoch),
		retired:    make(map[int]bool),
		wantRetire: make(map[int]bool),
		queries:    make(map[int]*s2Query),
		batch:      make([]InstanceResult, opts.Instances),
	}
	defer st.closeEpochs()
	if err := st.ensureEpoch(0); err != nil {
		return nil, err
	}
	for qid := range st.batch {
		st.batch[qid] = InstanceResult{Instance: qid, Outcome: protocol.Outcome{Label: -1},
			Err: fmt.Errorf("deploy: s2 query %d never completed: %w", qid, errPeerGone)}
		if err := st.announce(qid, 0); err != nil {
			return nil, err
		}
	}
	obs.ServeEpoch("s2").Set(0)

	// drainCtx bounds the protocol loop once S1's drain marker arrives: if
	// the end-of-session frame is lost, the loop still exits within the
	// drain timeout instead of blocking on an idle link forever.
	drainCtx, cancelDrain := context.WithCancel(ctx)
	defer cancelDrain()
	var drainOnce sync.Once
	drained := func() {
		drainOnce.Do(func() {
			go func() {
				sleepCtx(ctx, opts.drainTimeout())
				cancelDrain()
			}()
		})
	}

	acceptErr := make(chan error, 1)
	acceptCtx, stopAccept := context.WithCancel(ctx)
	defer s.endHandlers(stopAccept, opts.ServerOptions)
	go s.acceptLoop(acceptCtx, opts.ServerOptions, st.routes(), acceptErr)

	ctlCtx, stopCtl := context.WithCancel(ctx)
	defer stopCtl()
	go st.ctlLoop(ctlCtx, drained)

	// Follow S1's begin frames on the protocol link until the end frame.
	rng := newRNG(s2Seed(opts.Seed))
	connect := func() (transport.Conn, error) {
		return s.dialS1(drainCtx, opts.ServerOptions, 0, opts.Seed+17)
	}
	err = s.followSession(drainCtx, opts.ServerOptions, connect,
		func(ctx context.Context, peer transport.Conn, f sessionFrame) bool {
			return st.runServeQuery(ctx, peer, f, rng) // one query never aborts the run
		})
	stopCtl()
	if drainCtx.Err() != nil {
		err = nil // drained or cancelled: the report stands
	}
	return &Report{Results: st.batch}, err
}

// closeEpochs zeroizes every still-open epoch's keys.
func (st *serveS2) closeEpochs() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for e, ep := range st.epochs {
		if st.retired[e] {
			continue
		}
		ep.keys.Zeroize()
		st.retired[e] = true
	}
}

// ensureEpoch loads epoch e's key material (idempotent). Announcing or
// preparing a retired epoch is refused: its material is gone.
func (st *serveS2) ensureEpoch(e int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ensureEpochLocked(e)
}

func (st *serveS2) ensureEpochLocked(e int) error {
	if st.retired[e] {
		return fmt.Errorf("deploy: epoch %d is retired", e)
	}
	if _, ok := st.epochs[e]; ok {
		return nil
	}
	if e < 0 || e >= len(st.files) {
		return fmt.Errorf("deploy: no epoch %d key file is provisioned", e)
	}
	keys, err := st.files[e].KeysS2()
	if err != nil {
		return err
	}
	keys.Precompute()
	st.epochs[e] = &s2Epoch{keys: keys, ring: ringOf(keys.PeerPub)}
	return nil
}

// retire marks epoch e for retirement; the zeroize happens immediately
// when no protocol run is using the epoch, or right after the last one
// finishes. Idempotent.
func (st *serveS2) retire(e int) {
	st.mu.Lock()
	st.wantRetire[e] = true
	st.finishRetireLocked(e)
	st.mu.Unlock()
}

func (st *serveS2) finishRetireLocked(e int) {
	ep := st.epochs[e]
	if ep == nil || st.retired[e] || !st.wantRetire[e] || ep.live > 0 {
		return
	}
	ep.keys.Zeroize()
	st.retired[e] = true
	st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1,
		Note: fmt.Sprintf("retired epoch=%d", e)})
	st.opts.log(levelInfo, "S2 retired epoch %d: private material zeroized", e)
}

// announce registers a query, announced by S1 or pre-registered
// (idempotent — a re-announce after a lost ack returns success without a
// second registration).
func (st *serveS2) announce(qid, epoch int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.queries[qid]; ok {
		return nil
	}
	if err := st.ensureEpochLocked(epoch); err != nil {
		return err
	}
	st.queries[qid] = &s2Query{qid: qid, epoch: epoch, col: st.s.newCollector(st.epochs[epoch].ring), announced: time.Now()}
	obs.ServeInflight("s2").Add(1)
	return nil
}

// ctlLoop keeps the serve-control link to S1 alive and answers its
// requests. Every request is idempotent, so replays after a lost ack are
// safe. drained is invoked once the drain marker arrives.
func (st *serveS2) ctlLoop(ctx context.Context, drained func()) {
	opts := st.opts
	fails := 0
	for {
		if ctx.Err() != nil {
			return
		}
		if fails > 0 {
			sleepCtx(ctx, backoffDelay(opts.Backoff, fails))
		}
		conn, err := st.s.dialS1(ctx, opts.ServerOptions, capServeCtl, opts.Seed+43)
		if err != nil {
			fails++
			opts.log(levelWarn, "S2 ctl link dial failed: %v", err)
			continue
		}
		opts.log(levelDebug, "S2 ctl link to S1 established")
		fails = 0
		if err := st.ctlServe(ctx, conn, drained); err != nil {
			opts.log(levelWarn, "S2 ctl link error, redialing: %v", err)
			fails++
		}
		conn.Close()
	}
}

// ctlServe answers requests on one ctl connection until it fails.
func (st *serveS2) ctlServe(ctx context.Context, conn transport.Conn, drained func()) error {
	for {
		msg, err := transport.ExpectKind(ctx, conn, transport.KindControl)
		if err != nil {
			return err
		}
		if len(msg.Flags) < 2 {
			return fmt.Errorf("deploy: short ctl frame %v", msg.Flags)
		}
		code, arg := msg.Flags[0], msg.Flags[1]
		var reply *transport.Message
		switch code {
		case ctrlServeAnnounce:
			if len(msg.Flags) < 4 {
				return fmt.Errorf("deploy: short announce frame %v", msg.Flags)
			}
			status := int64(0)
			if err := st.announce(int(arg), int(msg.Flags[2])); err != nil {
				st.opts.log(levelWarn, "S2 refusing announced query %d: %v", arg, err)
				status = 1
			}
			reply = &transport.Message{Kind: transport.KindControl, Flags: []int64{ctrlServeAck, arg, status}}
		case ctrlEpochPrepare:
			status := int64(0)
			if err := st.ensureEpoch(int(arg)); err != nil {
				st.opts.log(levelWarn, "S2 epoch %d prepare failed: %v", arg, err)
				status = 1
			} else {
				st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1,
					Note: fmt.Sprintf("prepared epoch=%d", arg)})
			}
			reply = &transport.Message{Kind: transport.KindControl, Flags: []int64{ctrlEpochAck, arg, status}}
		case ctrlEpochCommit:
			obs.ServeEpoch("s2").Set(float64(arg))
			st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1,
				Note: fmt.Sprintf("committed epoch=%d", arg)})
			reply = &transport.Message{Kind: transport.KindControl, Flags: []int64{ctrlEpochAck, arg, 0}}
		case ctrlEpochRetire:
			st.retire(int(arg))
			reply = &transport.Message{Kind: transport.KindControl, Flags: []int64{ctrlEpochAck, arg, 0}}
		case ctrlServeDrain:
			st.s.journalEvent(st.opts.ServerOptions, obs.Event{Type: obs.EventEpoch, Instance: -1, Note: "draining"})
			reply = &transport.Message{Kind: transport.KindControl, Flags: []int64{ctrlEpochAck, 0, 0}}
			drained()
		default:
			return transport.MarkFatal(fmt.Errorf("deploy: unknown ctl code %d", code))
		}
		if err := conn.Send(ctx, reply); err != nil {
			return err
		}
	}
}

// routes serves S2's connections: user frames and relay batches go to the
// collector of the query their instance slot names. S2 accepts no peer (it
// dials S1), and answers no admission or result frames — those are S1's.
func (st *serveS2) routes() routes {
	opts := st.opts.ServerOptions
	return routes{
		relay: func(ctx context.Context, conn transport.Conn) { serveRelayConn(ctx, conn, st.s, opts, st.collector) },
		user: func(ctx context.Context, conn transport.Conn) error {
			return st.s.serveUserConn(ctx, conn, st.collector, nil)
		},
	}
}

// collector is the query lookup of S2's routes: the collector of query qid,
// nil if no such query is registered.
func (st *serveS2) collector(qid int) *collector {
	st.mu.Lock()
	defer st.mu.Unlock()
	if q := st.queries[qid]; q != nil {
		return q.col
	}
	return nil
}

// runServeQuery resolves one begin frame to its registered query, waits —
// at most one attempt timeout — for the local collector to fill or the
// submit window to lapse (mirroring S1's watcher), pins the query's epoch
// and runs the attempt. It returns false when the connection must be
// discarded. S1 runs one query at a time, retries included, and never
// begins a resolved one again: a begin for another query than the last one
// begun means S1 is done with that one, and S2 forgets it.
func (st *serveS2) runServeQuery(ctx context.Context, peer transport.Conn, f sessionFrame, rng io.Reader) bool {
	opts := st.opts
	qid := f.instance
	st.mu.Lock()
	q := st.queries[qid]
	if prev := st.begun; q != nil && prev != nil && prev != q {
		delete(st.queries, prev.qid)
		if !prev.ran {
			obs.ServeInflight("s2").Add(-1)
		}
	}
	if q != nil {
		st.begun = q
	}
	st.mu.Unlock()
	if q == nil {
		// The announce ack was delivered before any begin frame can name
		// this query, so an unknown qid means state divergence; drop the
		// connection and let S1's retry budget drive recovery.
		opts.log(levelWarn, "S2 received begin for unannounced query %d", qid)
		return false
	}
	wctx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
	err := q.col.wait(wctx, q.announced, opts.submitWindow(), "s2")
	cancel()
	if err != nil {
		return false
	}

	st.mu.Lock()
	ep := st.epochs[q.epoch]
	if ep == nil || st.retired[q.epoch] {
		st.mu.Unlock()
		opts.log(levelWarn, "S2 cannot run query %d: epoch %d unavailable", qid, q.epoch)
		return false
	}
	ep.live++
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		ep.live--
		st.finishRetireLocked(q.epoch)
		st.mu.Unlock()
	}()

	res := st.s.followQuery(ctx, opts.ServerOptions, rng, ep.keys, peer, f, q.col)
	st.setResult(q, res)
	keep := linkClean(res.Err)
	if !keep {
		opts.log(levelWarn, "S2 query %d attempt failed, awaiting replay: %v", qid, res.Err)
	}
	return keep
}

// setResult records the end of an attempt: the first one takes the query
// off the in-flight gauge, and a pre-registered query's result goes into
// the report.
func (st *serveS2) setResult(q *s2Query, res InstanceResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !q.ran {
		q.ran = true
		obs.ServeInflight("s2").Add(-1)
	}
	if q.qid >= len(st.batch) {
		return
	}
	if prev := st.batch[q.qid]; prev.Err == nil && res.Err != nil {
		// A completed outcome is never downgraded by a later failed replay.
		res = prev
		res.Attempts++
	}
	st.batch[q.qid] = res
}
