package main

// adapter.go is the only file of the benchmark that calls into the product.
// Everything else works on the plain types declared here, so a change that
// reshapes the product's API has one file to follow. The adapter sets none
// of the mode knobs ROADMAP item 1 plans to delete: Parallelism,
// ArgmaxStrategy and UseDGKPool keep their zero values, and the server
// options are otherwise those of cmd/loadgen's serve arm.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/fsx"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Key shapes. deploy2048 is what a deployment would run; paper64 is the
// paper's Table I shape (64-bit keys cannot slot-pack).
const (
	shapeDeploy2048 = "deploy2048"
	shapePaper64    = "paper64"
)

// phaseDeadline bounds every server and client phase; it is a safety cap,
// far above anything a healthy run needs.
const phaseDeadline = 2 * time.Minute

// shapeConfig returns the protocol configuration of a key shape.
func shapeConfig(shape string, users int) (protocol.Config, error) {
	cfg := protocol.DefaultConfig(users)
	cfg.ThresholdFrac = 0.6
	// 0.25 votes: the ledger does real RDP work while every scheduled query
	// keeps an 8-sigma margin, so its outcome is checkable.
	cfg.Sigma1, cfg.Sigma2 = 0.25, 0.25
	switch shape {
	case shapePaper64:
	case shapeDeploy2048:
		cfg.PaillierBits = 2048
		cfg.DGK = dgk.Params{NBits: 1024, TBits: 160, U: 1009, L: 56}
		cfg.Packing = true
	default:
		return cfg, fmt.Errorf("unknown key shape %q", shape)
	}
	return cfg, cfg.Validate()
}

// Deployment is one generated key set with its configuration. Stopping a
// serve pair zeroizes S2's private keys, so everything that needs them
// (by-hand protocol runs, per-op timings) happens before ServePair.Stop.
type Deployment struct {
	Shape string
	cfg   protocol.Config
	keys  *protocol.Keys
	s1    *keystore.S1File
	s2    *keystore.S2File
	pub   *keystore.PublicFile
}

// NewDeployment generates the keys of a shape from seed and warms their
// fixed-base tables.
func NewDeployment(shape string, users int, seed int64) (*Deployment, error) {
	cfg, err := shapeConfig(shape, users)
	if err != nil {
		return nil, err
	}
	keys, err := protocol.GenerateKeys(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, err
	}
	s1, s2, pub, err := keystore.Split(cfg, keys)
	if err != nil {
		return nil, err
	}
	keys.ForS1().Precompute()
	keys.ForS2().Precompute()
	return &Deployment{Shape: shape, cfg: cfg, keys: keys, s1: s1, s2: s2, pub: pub}, nil
}

// Users, Classes and ThresholdFrac expose what the schedule needs.
func (d *Deployment) Users() int             { return d.cfg.Users }
func (d *Deployment) Classes() int           { return d.cfg.Classes }
func (d *Deployment) ThresholdFrac() float64 { return d.cfg.ThresholdFrac }

// KeyShape describes the deployment for the record's environment block.
func (d *Deployment) KeyShape() string {
	return fmt.Sprintf("%s/paillier%d/dgk%d-%d/packed=%v/C=%d",
		d.Shape, d.cfg.PaillierBits, d.cfg.DGK.NBits, d.cfg.DGK.TBits, d.cfg.Packing, d.cfg.Classes)
}

// PlainOutcome applies the plaintext consensus rule with zero noise to
// per-class vote counts.
func (d *Deployment) PlainOutcome(counts []int) (consensus bool, label int, err error) {
	votes := make([]*big.Int, len(counts))
	zero := make([]*big.Int, len(counts))
	for i, c := range counts {
		votes[i] = big.NewInt(int64(c) * protocol.VoteScale)
		zero[i] = new(big.Int)
	}
	return protocol.PlainOutcome(votes, zero, zero, d.cfg.ThresholdUnits())
}

// ---- serve mode -----------------------------------------------------------

// ServePaths are the durable files of one serve pair.
type ServePaths struct {
	Ledger, JournalS1, JournalS2 string
}

// ServePair is a running S1/S2 serve-mode pair on loopback TCP.
type ServePair struct {
	Paths  ServePaths
	dep    *Deployment
	seed   int64
	s1Addr string
	s2Addr string
	drain  chan struct{}
	cancel context.CancelFunc
	s1Done chan error
	s2Done chan error
}

// StartServe launches the pair with a durable ledger and both journals in
// dir and returns once both servers accept.
func StartServe(ctx context.Context, dep *Deployment, dir string, seed int64) (*ServePair, error) {
	p := &ServePair{
		Paths: ServePaths{
			Ledger:    filepath.Join(dir, "ledger.json"),
			JournalS1: filepath.Join(dir, "s1.jsonl"),
			JournalS2: filepath.Join(dir, "s2.jsonl"),
		},
		dep: dep, seed: seed,
		drain:  make(chan struct{}),
		s1Done: make(chan error, 1),
		s2Done: make(chan error, 1),
	}
	runCtx, cancel := context.WithCancel(ctx)
	p.cancel = cancel
	base := deploy.ServerOptions{
		ListenAddr:     "127.0.0.1:0",
		MaxRetries:     2,
		Backoff:        10 * time.Millisecond,
		AttemptTimeout: phaseDeadline,
		Quorum:         float64(dep.cfg.Users),
		SubmitDeadline: phaseDeadline,
		LogLevel:       "warn",
	}
	s1Ready := make(chan string, 1)
	go func() {
		opts := base
		opts.Seed, opts.Ready, opts.JournalPath = seed+61, s1Ready, p.Paths.JournalS1
		_, err := deploy.ServeS1(runCtx, []*keystore.S1File{dep.s1}, deploy.ServeOptions{
			ServerOptions: opts,
			LedgerPath:    p.Paths.Ledger,
			DrainCh:       p.drain,
			DrainTimeout:  phaseDeadline,
		})
		p.s1Done <- err
	}()
	select {
	case p.s1Addr = <-s1Ready:
	case err := <-p.s1Done:
		cancel()
		return nil, fmt.Errorf("serve s1 did not start: %w", err)
	}
	s2Ready := make(chan string, 1)
	go func() {
		opts := base
		opts.Seed, opts.Ready, opts.JournalPath = seed+62, s2Ready, p.Paths.JournalS2
		opts.PeerAddr = p.s1Addr
		_, err := deploy.ServeS2(runCtx, []*keystore.S2File{dep.s2}, deploy.ServeOptions{
			ServerOptions: opts, DrainTimeout: phaseDeadline,
		})
		p.s2Done <- err
	}()
	select {
	case p.s2Addr = <-s2Ready:
	case err := <-p.s2Done:
		cancel()
		<-p.s1Done
		return nil, fmt.Errorf("serve s2 did not start: %w", err)
	}
	return p, nil
}

// Stop drains the pair and waits for both servers to return. The journals
// and the ledger are closed when it returns.
func (p *ServePair) Stop() error {
	close(p.drain)
	s1Err, s2Err := <-p.s1Done, <-p.s2Done
	p.cancel()
	if s1Err != nil {
		return fmt.Errorf("serve s1: %w", s1Err)
	}
	if s2Err != nil {
		return fmt.Errorf("serve s2: %w", s2Err)
	}
	return nil
}

// QueryResult is one resolved serve-mode query as its tenant sees it.
type QueryResult struct {
	Consensus bool
	Label     int
	AdmitWait time.Duration
}

// Tenant is one closed-loop serve client.
type Tenant struct {
	c *deploy.ServeClient
}

// NewTenant builds a client billing to tenant.
func (p *ServePair) NewTenant(tenant int64) (*Tenant, error) {
	c, err := deploy.NewServeClient([]*keystore.PublicFile{p.dep.pub}, deploy.ServeClientOptions{
		Tenant: tenant, S1Addr: p.s1Addr, S2Addr: p.s2Addr,
		Seed: p.seed + 70 + tenant, MaxRetries: 2,
		Backoff: 10 * time.Millisecond, AttemptTimeout: phaseDeadline,
		LogLevel: "warn",
	})
	if err != nil {
		return nil, err
	}
	return &Tenant{c: c}, nil
}

// Do runs one whole query: admission, every user's encrypted upload, result.
func (t *Tenant) Do(ctx context.Context, votes [][]float64) (QueryResult, error) {
	res, err := t.c.Do(ctx, votes)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Consensus: res.Consensus, Label: res.Label, AdmitWait: res.AdmitWait}, nil
}

// IsRefusal reports whether err is one of the typed admission refusals.
func IsRefusal(err error) bool {
	return errors.Is(err, deploy.ErrOverloaded) || errors.Is(err, deploy.ErrDraining) ||
		errors.Is(err, deploy.ErrBudgetExhausted) || errors.Is(err, deploy.ErrServeUnavailable)
}

// ---- client layer ---------------------------------------------------------

// Frame is one wire message.
type Frame = transport.Message

// Upload is one user's encrypted submission, both halves.
type Upload struct {
	sub *protocol.Submission
}

// BuildUpload secret-shares, noises and encrypts one user's vote vector
// (entries in [0, 1]).
func (d *Deployment) BuildUpload(crypto io.Reader, noise *rand.Rand, user int, vote []float64) (*Upload, error) {
	units := make([]*big.Int, len(vote))
	for i, v := range vote {
		units[i] = big.NewInt(int64(v * protocol.VoteScale))
	}
	sub, _, err := protocol.BuildSubmission(crypto, noise, d.cfg, user, units, d.pub.PK1, d.pub.PK2)
	if err != nil {
		return nil, err
	}
	return &Upload{sub: sub}, nil
}

// Encryptions is the number of Paillier encryptions the upload cost.
func (u *Upload) Encryptions() int {
	n := 0
	for _, h := range []protocol.SubmissionHalf{u.sub.ToS1, u.sub.ToS2} {
		n += len(h.Votes) + len(h.Thresh) + len(h.Noisy)
	}
	return n
}

// Encode renders both halves as the frames user uploads for instance.
func (d *Deployment) Encode(u *Upload, user, instance int) (toS1, toS2 *Frame, err error) {
	enc := func(h protocol.SubmissionHalf) (*Frame, error) {
		if d.cfg.Packing {
			return ingest.EncodePackedHalf(user, instance, d.cfg.Classes, d.cfg.PackedWidth(), h)
		}
		return ingest.EncodeHalf(user, instance, h)
	}
	if toS1, err = enc(u.sub.ToS1); err != nil {
		return nil, nil, err
	}
	toS2, err = enc(u.sub.ToS2)
	return toS1, toS2, err
}

// FrameBytes is the size of a frame on the wire, length prefix included.
func FrameBytes(f *Frame) int { return 4 + transport.EncodedSize(f) }

// ---- protocol layer -------------------------------------------------------

// StepStat is one Alg. 5 step as S1's meter saw it.
type StepStat struct {
	Step                string
	Elapsed             time.Duration
	Bytes, Msgs, Rounds int64
}

// ProtocolRun is one by-hand Alg. 5 execution over an in-process pair.
type ProtocolRun struct {
	Consensus          bool
	Label              int
	Start              time.Time
	Wall               time.Duration
	S1Wall, S2Wall     time.Duration
	Steps              []StepStat // in execution order
	PeerBytes, PeerMsg int64
	PeerRounds         int64
}

// stepOrder lists the metered steps in Alg. 5 order with the metric each
// reports under.
var stepOrder = []struct{ step, metric string }{
	{protocol.StepSecureSum1, "secure_sum"},
	{protocol.StepUnpack1, "unpack"},
	{protocol.StepBlindPerm1, "blind_permute"},
	{protocol.StepCompare1, "compare"},
	{protocol.StepThreshold, "threshold"},
	{protocol.StepSecureSum2, "secure_sum"},
	{protocol.StepUnpack2, "unpack"},
	{protocol.StepBlindPerm2, "blind_permute"},
	{protocol.StepCompare2, "compare"},
	{protocol.StepRestoration, "restore"},
}

// stepMetric maps a step label to its per-layer metric stem ("" if unknown).
func stepMetric(step string) string {
	for _, s := range stepOrder {
		if s.step == step {
			return s.metric
		}
	}
	return ""
}

// RunProtocol plays RunS1 and RunS2WithPools against each other over
// transport.Pair, each with its own meter, on the uploads of one query.
func (d *Deployment) RunProtocol(ctx context.Context, uploads []*Upload, seed int64) (*ProtocolRun, error) {
	h1 := make([]protocol.SubmissionHalf, len(uploads))
	h2 := make([]protocol.SubmissionHalf, len(uploads))
	for i, u := range uploads {
		h1[i], h2[i] = u.sub.ToS1, u.sub.ToS2
	}
	c1, c2 := transport.Pair()
	defer c1.Close()
	defer c2.Close()
	m1, m2 := transport.NewMeter(), transport.NewMeter()
	type side struct {
		out  *protocol.Outcome
		err  error
		wall time.Duration
	}
	s2Ch := make(chan side, 1)
	start := time.Now()
	go func() {
		out, err := protocol.RunS2WithPools(ctx, rand.New(rand.NewSource(seed+2)), d.cfg, d.keys.ForS2(), c2, h2, m2, nil)
		if err != nil {
			c2.Close() // unblock S1
		}
		s2Ch <- side{out, err, time.Since(start)}
	}()
	out1, err1 := protocol.RunS1(ctx, rand.New(rand.NewSource(seed+1)), d.cfg, d.keys.ForS1(), c1, h1, m1)
	s1Wall := time.Since(start)
	if err1 != nil {
		c1.Close() // unblock S2
	}
	s2 := <-s2Ch
	wall := time.Since(start)
	if err1 != nil {
		return nil, fmt.Errorf("protocol s1: %w", err1)
	}
	if s2.err != nil {
		return nil, fmt.Errorf("protocol s2: %w", s2.err)
	}
	if *out1 != *s2.out {
		return nil, fmt.Errorf("protocol: servers disagree: s1 %+v, s2 %+v", *out1, *s2.out)
	}
	run := &ProtocolRun{Consensus: out1.Consensus, Label: out1.Label,
		Start: start, Wall: wall, S1Wall: s1Wall, S2Wall: s2.wall}
	for _, so := range stepOrder {
		st, ok := m1.Step(so.step)
		if !ok {
			continue
		}
		run.Steps = append(run.Steps, StepStat{Step: so.step, Elapsed: st.Elapsed,
			Bytes: st.BytesSent + st.BytesReceived, Msgs: st.MsgsSent + st.MsgsReceived, Rounds: st.Rounds})
	}
	tot := m1.Totals()
	run.PeerBytes = tot.BytesSent + tot.BytesReceived
	run.PeerMsg = tot.MsgsSent + tot.MsgsReceived
	run.PeerRounds = tot.Rounds
	return run, nil
}

// ---- ingestion tree -------------------------------------------------------

// IngestSpec describes one ingestion round: users uploaders push through
// relays leaf relays (0 = straight into the sinks) into two RunIngest sinks.
type IngestSpec struct {
	Users   int
	Relays  int
	Batch   int
	Workers int
	Seed    int64
	// Frames yields user's two frames. It is called from the worker
	// goroutines, one user at a time per worker.
	Frames func(user int) (toS1, toS2 *Frame, err error)
	// OnUser, when set, is called around each user's upload for tracing.
	OnUser func(user int, phase string, start time.Time, d time.Duration)
}

// IngestTree is a started set of sinks and relays awaiting one round.
type IngestTree struct {
	spec     IngestSpec
	cancel   context.CancelFunc
	ctx      context.Context
	sinkDone [2]chan sinkExit
	relays   []chan error
	eps1     [][]string
	eps2     [][]string
}

type sinkExit struct {
	rep *deploy.IngestReport
	err error
}

// IngestResult is one finished round.
type IngestResult struct {
	Upload    time.Duration   // first send to last ack
	Collected time.Duration   // first send to both sinks released
	Acks      []time.Duration // per user: Send of both halves to both Confirms
	LostAcks  int
	Errors    int
	Covered   [2]int // users each sink covered
	Rehomes   int
	InBytes   int64 // user frame bytes the uploaders sent
}

// relayPacked is the relay-side slot layout, nil when packing is off.
func (d *Deployment) relayPacked() *ingest.PackedParams {
	if !d.cfg.Packing {
		return nil
	}
	return &ingest.PackedParams{Width: d.cfg.PackedWidth(), PerVec: d.cfg.PackedCiphertexts(),
		Headroom: d.cfg.PackedHeadroomBits()}
}

// StartIngest starts both sinks and the leaf relays of one round. The
// deployment's configured user count must equal spec.Users.
func (d *Deployment) StartIngest(ctx context.Context, spec IngestSpec) (*IngestTree, error) {
	if spec.Users != d.cfg.Users {
		return nil, fmt.Errorf("ingest round of %d users on a %d-user deployment", spec.Users, d.cfg.Users)
	}
	runCtx, cancel := context.WithCancel(ctx)
	t := &IngestTree{spec: spec, ctx: runCtx, cancel: cancel}
	var sinkAddr [2]string
	for i, sk := range []struct {
		role string
		ring *big.Int
	}{{"s1", d.pub.PK2.N2}, {"s2", d.pub.PK1.N2}} {
		i, sk := i, sk
		ready := make(chan string, 1)
		t.sinkDone[i] = make(chan sinkExit, 1)
		opts := deploy.ServerOptions{ListenAddr: "127.0.0.1:0", Instances: 1,
			Quorum: float64(spec.Users), SubmitDeadline: phaseDeadline, Ready: ready}
		go func() {
			rep, err := deploy.RunIngest(runCtx, sk.role, d.cfg, sk.ring, opts)
			t.sinkDone[i] <- sinkExit{rep, err}
		}()
		select {
		case sinkAddr[i] = <-ready:
		case out := <-t.sinkDone[i]:
			t.sinkDone[i] <- out
			t.Stop()
			return nil, fmt.Errorf("%s sink did not start: %v", sk.role, out.err)
		}
	}
	leaf1, leaf2 := []string{sinkAddr[0]}, []string{sinkAddr[1]}
	if spec.Relays > 0 {
		leaf1, leaf2 = nil, nil
	}
	for r := 0; r < spec.Relays; r++ {
		r1, r2 := make(chan string, 1), make(chan string, 1)
		done := make(chan error, 1)
		t.relays = append(t.relays, done)
		opts := ingest.Options{
			ListenS1: "127.0.0.1:0", ListenS2: "127.0.0.1:0", ReadyS1: r1, ReadyS2: r2,
			UpstreamS1: sinkAddr[0], UpstreamS2: sinkAddr[1], RelayID: int64(r + 1),
			Users: spec.Users, Instances: 1, Classes: d.cfg.Classes,
			PK1: d.pub.PK1, PK2: d.pub.PK2, BatchSize: spec.Batch,
			Seed: spec.Seed + int64(r), Packed: d.relayPacked(),
		}
		go func() { done <- ingest.Run(runCtx, opts) }()
		var a1 string
		select {
		case a1 = <-r1:
		case err := <-done:
			done <- err
			t.Stop()
			return nil, fmt.Errorf("relay %d did not start: %v", r+1, err)
		}
		leaf1, leaf2 = append(leaf1, a1), append(leaf2, <-r2)
	}
	// Each worker leases one leaf, with its sibling as failover.
	for w := 0; w < spec.Workers; w++ {
		r := w % len(leaf1)
		e1, e2 := []string{leaf1[r]}, []string{leaf2[r]}
		if len(leaf1) > 1 {
			sib := (r + 1) % len(leaf1)
			e1, e2 = append(e1, leaf1[sib]), append(e2, leaf2[sib])
		}
		t.eps1, t.eps2 = append(t.eps1, e1), append(t.eps2, e2)
	}
	return t, nil
}

// Stop tears down a tree that ran no round.
func (t *IngestTree) Stop() {
	t.cancel()
	for _, ch := range t.sinkDone {
		if ch != nil {
			<-ch
		}
	}
	for _, ch := range t.relays {
		<-ch
	}
}

// Run uploads every user closed-loop (each worker waits for both acks
// before its next user), waits for both sinks to release and stops the
// relays. A tree runs one round.
func (t *IngestTree) Run() (*IngestResult, error) {
	spec := t.spec
	res := &IngestResult{}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	// The sinks release when the last frame lands, which in direct mode is
	// before the last uploader has its ack; their release is timed on its
	// own goroutine.
	var released time.Time
	sinks := make(chan [2]sinkExit, 1)
	go func() {
		var outs [2]sinkExit
		for i, ch := range t.sinkDone {
			outs[i] = <-ch
		}
		released = time.Now()
		sinks <- outs
	}()
	start := time.Now()
	for w := 0; w < spec.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			up1 := &ingest.Uploader{Endpoints: t.eps1[w], Seed: spec.Seed + int64(w)}
			up2 := &ingest.Uploader{Endpoints: t.eps2[w], Seed: spec.Seed + int64(w) + 1}
			defer up1.Close()
			defer up2.Close()
			acks := make([]time.Duration, 0, spec.Users/spec.Workers+1)
			var lost, errs int
			var inBytes int64
			for u := w; u < spec.Users; u += spec.Workers {
				t0 := time.Now()
				f1, f2, err := spec.Frames(u)
				t1 := time.Now()
				if err == nil {
					if err = up1.Send(t.ctx, f1); err == nil {
						err = up2.Send(t.ctx, f2)
					}
				}
				t2 := time.Now()
				if err != nil {
					errs++
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("user %d: %w", u, err)
					}
					mu.Unlock()
					break
				}
				inBytes += int64(FrameBytes(f1) + FrameBytes(f2))
				// A confirm can lose the race against the sinks' release: the
				// last frames trigger it and the in-flight ack dies with the
				// connection. Coverage below is authoritative, so that is a
				// lost latency sample, counted, not an error.
				if up1.Confirm(t.ctx, int64(u)) == nil && up2.Confirm(t.ctx, int64(u)) == nil {
					acks = append(acks, time.Since(t0))
				} else {
					lost++
				}
				if spec.OnUser != nil {
					spec.OnUser(u, "client.encode", t0, t1.Sub(t0))
					spec.OnUser(u, "ingest.send", t1, t2.Sub(t1))
					spec.OnUser(u, "ingest.confirm", t2, time.Since(t2))
				}
			}
			mu.Lock()
			res.Acks = append(res.Acks, acks...)
			res.LostAcks += lost
			res.Errors += errs
			res.InBytes += inBytes
			res.Rehomes += up1.Rehomes + up2.Rehomes
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Upload = time.Since(start)
	if firstErr != nil {
		t.cancel() // the sinks will never fill; make them return
	}
	outs := <-sinks
	t.cancel()
	for _, ch := range t.relays {
		<-ch
	}
	if firstErr != nil {
		return res, firstErr
	}
	res.Collected = released.Sub(start)
	for i, out := range outs {
		if out.err != nil {
			return res, fmt.Errorf("sink %d: %w", i+1, out.err)
		}
		res.Covered[i] = out.rep.Instances[0].Participants
	}
	return res, nil
}

// ---- per-operation timings ------------------------------------------------

// perOp runs fn n times and returns the mean duration of one call.
func perOp(n int, fn func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// PaillierOps times the four Paillier primitives at the deployment's key
// shape, n calls each.
func (d *Deployment) PaillierOps(n int, seed int64) (encrypt, add, rerandomize, decrypt time.Duration, err error) {
	rng := rand.New(rand.NewSource(seed))
	sk, pk := d.keys.S1Paillier, d.keys.S1Paillier.Public()
	pk.Precompute()
	cts := make([]*paillier.Ciphertext, n)
	if encrypt, err = perOp(n, func(i int) (e error) {
		cts[i], e = pk.Encrypt(rng, big.NewInt(rng.Int63n(1<<40)))
		return e
	}); err != nil {
		return
	}
	if add, err = perOp(n, func(i int) error {
		_, e := pk.Add(cts[i], cts[(i+1)%n])
		return e
	}); err != nil {
		return
	}
	if rerandomize, err = perOp(n, func(i int) error {
		_, e := pk.Rerandomize(rng, cts[i])
		return e
	}); err != nil {
		return
	}
	decrypt, err = perOp(n, func(i int) error {
		_, e := sk.Decrypt(cts[i])
		return e
	})
	return
}

// DGKOps times DGK encryption and the zero test (n calls each) and one
// whole CompareSignedA/B exchange over transport.Pair (cmp exchanges).
func (d *Deployment) DGKOps(ctx context.Context, n, cmp int, seed int64) (encrypt, zeroTest, compare time.Duration, err error) {
	rng := rand.New(rand.NewSource(seed))
	sk, pk := d.keys.S2DGK, d.keys.S2DGK.Public()
	pk.Precompute()
	cts := make([]*dgk.Ciphertext, n)
	if encrypt, err = perOp(n, func(i int) (e error) {
		cts[i], e = pk.Encrypt(rng, big.NewInt(int64(i%2)))
		return e
	}); err != nil {
		return
	}
	if zeroTest, err = perOp(n, func(i int) error {
		_, e := sk.IsZero(cts[i])
		return e
	}); err != nil {
		return
	}
	compare, err = perOp(cmp, func(i int) error {
		a, b := big.NewInt(rng.Int63n(1<<40)-(1<<39)), big.NewInt(rng.Int63n(1<<40)-(1<<39))
		ca, cb := transport.Pair()
		defer ca.Close()
		defer cb.Close()
		bErr := make(chan error, 1)
		rngB := rand.New(rand.NewSource(seed + int64(i) + 1))
		go func() {
			_, e := sk.CompareSignedB(ctx, rngB, cb, b)
			if e != nil {
				cb.Close()
			}
			bErr <- e
		}()
		geq, e := pk.CompareSignedA(ctx, rng, ca, a)
		if e != nil {
			ca.Close()
		}
		if be := <-bErr; e == nil {
			e = be
		}
		if e == nil && geq != (a.Cmp(b) >= 0) {
			e = fmt.Errorf("dgk comparison of %v and %v returned %v", a, b, geq)
		}
		return e
	})
	return
}

// FrameLoopback times one user frame from encode through loopback TCP to
// decode, n frames streamed over one connection.
func FrameLoopback(ctx context.Context, frame *Frame, n int) (time.Duration, error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	recvErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			recvErr <- err
			return
		}
		defer conn.Close()
		for i := 0; i < n; i++ {
			if _, err := conn.Recv(ctx); err != nil {
				recvErr <- err
				return
			}
		}
		recvErr <- transport.SendControl(ctx, conn, 0)
	}()
	conn, err := transport.Dial(ctx, l.Addr())
	if err != nil {
		l.Close()
		<-recvErr
		return 0, err
	}
	defer conn.Close()
	start := time.Now()
	for i := 0; i < n && err == nil; i++ {
		// A fresh Message per send, so encoding is paid per frame as a
		// user pays it.
		err = conn.Send(ctx, &Frame{Kind: frame.Kind, Flags: frame.Flags, Values: frame.Values})
	}
	if err == nil {
		_, err = conn.Recv(ctx)
	}
	elapsed := time.Since(start)
	if err != nil {
		conn.Close()
	}
	if rerr := <-recvErr; err == nil {
		err = rerr
	}
	return elapsed / time.Duration(n), err
}

// WriteSync times a ledger-sized fsx.WriteFileSync, n rewrites of path.
func WriteSync(path string, n int) (time.Duration, error) {
	data := []byte(`{"version":1,"tenants":{"1":{"coefficient":88.0000000001,"svt_count":1000,"rnm_count":750},` +
		`"2":{"coefficient":88.0000000001,"svt_count":1000,"rnm_count":750}}}` + "\n")
	return perOp(n, func(int) error { return fsx.WriteFileSync(path, data, 0o600) })
}

// JournalAppend times one hash-chained span append, n appends to path.
func JournalAppend(path string, n int) (time.Duration, error) {
	j, err := obs.OpenJournal(path, obs.JournalOptions{Role: "bench"})
	if err != nil {
		return 0, err
	}
	d, err := perOp(n, func(i int) error {
		return j.Append(obs.Event{Type: obs.EventSpan, Query: "bench-q", Instance: i,
			Phase: protocol.StepCompare1, StartNs: int64(i), DurNs: 1000, BytesSent: 4096, MsgsSent: 4, Rounds: 4})
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return d, err
}

// JournalRecords verifies a journal's hash chain and returns its length.
func JournalRecords(path string) (int, error) { return obs.VerifyJournalFile(path) }

// DPAccount times one query's accounting: AddSVT + AddRNM + Epsilon.
func (d *Deployment) DPAccount(n int) (time.Duration, error) {
	acct := dp.NewAccountant()
	return perOp(n, func(int) error {
		if err := acct.AddSVT(d.cfg.Sigma1); err != nil {
			return err
		}
		if err := acct.AddRNM(d.cfg.Sigma2); err != nil {
			return err
		}
		_, _, err := acct.Epsilon(1e-6)
		return err
	})
}

// ---- counters -------------------------------------------------------------

// counterTable is the one name table from the benchmark's op names to the
// counter series the product exports. A series a later rename removes is
// reported as missing, never as a failed run.
var counterTable = map[string]struct {
	family, labelKey, labelVal string
	lazy                       bool // registered on first increment: absent means 0
}{
	"paillier.encrypts":      {family: "paillier_encrypt_total"},
	"paillier.decrypts":      {family: "paillier_decrypt_total"},
	"dgk.encrypts":           {family: "dgk_encrypt_total"},
	"dgk.zerotests":          {family: "dgk_zerotest_total"},
	"dgk.comparisons":        {family: "dgk_comparisons_total", labelKey: "party", labelVal: "a"},
	"dgk.material_hits":      {family: "dgk_material_hits_total"},
	"dgk.material_misses":    {family: "dgk_material_misses_total"},
	"mathutil.hits":          {family: "privconsensus_fixedbase_hits_total"},
	"mathutil.fallbacks":     {family: "privconsensus_fixedbase_fallbacks_total"},
	"transport.wire_bytes":   {family: "transport_wire_bytes_total", labelKey: "dir", labelVal: "sent"},
	"ingest.relay_users":     {family: "privconsensus_relay_users_total", lazy: true},
	"ingest.batches_acked":   {family: "privconsensus_relay_batches_out_total", labelKey: "outcome", labelVal: "acked", lazy: true},
	"ingest.rejected":        {family: "privconsensus_relay_rejected_total", lazy: true},
	"ingest.forward_retries": {family: "privconsensus_relay_forward_retries_total", lazy: true},
	"deploy.retries":         {family: "retries_total"},
}

// Counters is a reading of every counterTable entry; a name absent from the
// map had no series registered under its family.
type Counters map[string]float64

// ReadCounters sums, per table entry, the matching series of the product's
// default registry.
func ReadCounters() Counters {
	out := Counters{}
	for _, p := range obs.Default.Snapshot() {
		for name, c := range counterTable {
			if p.Name != c.family || !hasLabel(p.Labels, c.labelKey, c.labelVal) {
				continue
			}
			out[name] += p.Value
		}
	}
	return out
}

func hasLabel(labels []obs.Label, key, val string) bool {
	if key == "" {
		return true
	}
	for _, l := range labels {
		if l.Key == key && l.Value == val {
			return true
		}
	}
	return false
}
