package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// runOpts selects one run: a workload, timed (Trace false: end-to-end
// metrics, recorder off) or traced (Trace true: per-layer metrics).
type runOpts struct {
	W       workloadDef
	Seed    int64
	Seconds float64
	Trace   bool
	Dir     string // scratch directory for ledgers and journals
}

// Result is one finished run. A run whose outputs were wrong never
// becomes a Result: runWorkload returns an error instead.
type Result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	KeyShape  string             `json:"key_shape"`
	WindowS   float64            `json:"window_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Missing   []string           `json:"missing_counters,omitempty"`
	Spans     []Span             `json:"-"`
}

// smokeOf shrinks a workload to paper64 keys and small populations, so all
// four paths run in about a second each.
func smokeOf(w workloadDef) workloadDef {
	w.Shape = shapePaper64
	w.Warmups = 1
	switch {
	case w.Ingest:
		w.Users = 500
	case w.Users > 20:
		w.Users = 20
	}
	return w
}

func runWorkload(ctx context.Context, o runOpts) (*Result, error) {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	res := &Result{Workload: o.W.Name, Trace: o.Trace, Metrics: map[string]float64{}}
	var err error
	if o.W.Ingest {
		err = runIngest(ctx, o, res)
	} else {
		err = runServe(ctx, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.W.Name, err)
	}
	if o.Trace {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		res.Metrics["harness.peak_heap_mb"] = float64(mem.HeapSys) / (1 << 20)
		res.Metrics["harness.samples"] = float64(res.Samples)
		res.Metrics["harness.failed_frac"] = float64(res.Failed) / float64(res.Attempted)
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.Metrics[d.Name] = 0 // a layer this workload does not run
			}
		}
	}
	return res, nil
}

// counterDelta returns b-a for name, and notes names with no series.
func counterDelta(res *Result, a, b Counters, name string) float64 {
	if _, ok := b[name]; !ok && !counterTable[name].lazy {
		if !slices.Contains(res.Missing, name) {
			res.Missing = append(res.Missing, name)
		}
		return 0
	}
	return b[name] - a[name]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// moreSetups decides whether a run sets its workload up once more: a
// traced run once; a timed run at least setupRepeatsMin times and, while
// set-up is cheap, until setupBudget is spent, so that the median of a
// millisecond-sized set-up rests on more than three samples.
func moreSetups(trace bool, done []float64) bool {
	switch {
	case len(done) == 0:
		return true
	case trace:
		return false
	case len(done) < setupRepeatsMin:
		return true
	}
	total := 0.0
	for _, s := range done {
		total += s
	}
	return total < setupBudget.Seconds() && len(done) < setupRepeatsMax
}

// ---- serve workloads ------------------------------------------------------

// serveEnv is one set-up serve deployment with its tenants.
type serveEnv struct {
	dep     *Deployment
	pair    *ServePair
	tenants []*Tenant
}

func setupServe(ctx context.Context, w workloadDef, seed int64, dir string) (*serveEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dep, err := NewDeployment(w.Shape, w.Users, seed)
	if err != nil {
		return nil, err
	}
	pair, err := StartServe(ctx, dep, dir, seed)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{dep: dep, pair: pair}
	for t := 1; t <= w.Tenants; t++ {
		tenant, err := pair.NewTenant(int64(t))
		if err != nil {
			pair.Stop()
			return nil, err
		}
		env.tenants = append(env.tenants, tenant)
	}
	return env, nil
}

// sample is one served query.
type sample struct {
	kind    string
	latency time.Duration
	admit   time.Duration
}

// serveTally collects what the tenants saw, for the metrics and the oracle.
type serveTally struct {
	mu        sync.Mutex
	samples   []sample
	byTenant  map[int64]tally
	attempted int
	refused   int
	errors    int
	invalid   error // first wrong output
}

// ask serves q through tenant idx and checks the answer. It returns the
// latency and whether a result came back.
func (st *serveTally) ask(ctx context.Context, env *serveEnv, idx int, q Query, keep bool) (time.Duration, bool) {
	exp, err := Expect(env.dep, q)
	if err != nil {
		st.fail(err)
		return 0, false
	}
	votes := q.Votes()
	start := time.Now()
	got, err := env.tenants[idx].Do(ctx, votes)
	lat := time.Since(start)
	tenant := int64(idx + 1)
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.byTenant[tenant]
	defer func() { st.byTenant[tenant] = t }()
	if keep {
		st.attempted++
	}
	if err != nil {
		t.failed++
		if IsRefusal(err) {
			st.refused++
		} else {
			st.errors++
			fmt.Fprintf(os.Stderr, "bench: tenant %d query %d failed: %v\n", tenant, q.Index, err)
		}
		return lat, false
	}
	t.queries++
	if got.Consensus {
		t.releases++
	}
	if cerr := exp.Check(got); cerr != nil && st.invalid == nil {
		st.invalid = fmt.Errorf("tenant %d query %d (%s, votes %v): %w", tenant, q.Index, q.Kind, q.Counts, cerr)
	}
	if keep {
		st.samples = append(st.samples, sample{kind: q.Kind, latency: lat, admit: got.AdmitWait})
	}
	return lat, true
}

func (st *serveTally) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.invalid == nil {
		st.invalid = err
	}
}

// window runs every tenant closed-loop for d and returns the summed
// per-tenant completion rate: each tenant's completed queries over the time
// to its own last completion, so the count is not quantised by where the
// deadline falls inside a query.
func (st *serveTally) window(ctx context.Context, env *serveEnv, seed int64, d time.Duration) (rate float64, elapsed time.Duration) {
	var wg sync.WaitGroup
	rates := make([]float64, len(env.tenants))
	start := time.Now()
	for i := range env.tenants {
		i := i
		sched, err := NewSchedule(seed*1009+int64(i)+1, env.dep.Users(), env.dep.Classes())
		if err != nil {
			st.fail(err)
			return 0, 0
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := 0
			var last time.Duration
			for time.Since(start) < d && ctx.Err() == nil {
				if _, ok := st.ask(ctx, env, i, sched.Next(), true); ok {
					done++
					last = time.Since(start)
				}
			}
			if last > 0 {
				rates[i] = float64(done) / last.Seconds()
			}
		}()
	}
	wg.Wait()
	for _, r := range rates {
		rate += r
	}
	return rate, time.Since(start)
}

func runServe(ctx context.Context, o runOpts, res *Result) error {
	w := o.W
	st := &serveTally{byTenant: map[int64]tally{}}

	// Set-up, timed from nothing to a pair that accepts and tenants that
	// can ask. A timed run repeats it and reports the median.
	var env *serveEnv
	var setups []float64
	for i := 0; moreSetups(o.Trace, setups); i++ {
		if env != nil {
			if err := env.pair.Stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if env, err = setupServe(ctx, w, o.Seed, filepath.Join(o.Dir, fmt.Sprintf("setup%d", i))); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			env.pair.Stop()
		}
	}()
	res.KeyShape = env.dep.KeyShape()

	// Warm-up: the first queries pay lazy set-up inside the servers.
	warm, err := NewSchedule(o.Seed*1009, w.Users, env.dep.Classes())
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < w.Warmups; i++ {
		if _, ok := st.ask(ctx, env, 0, warm.Next(), false); !ok {
			return fmt.Errorf("warm-up query %d failed (%v)", i, st.invalid)
		}
	}
	warmup := time.Since(t0)

	windowLen := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		windowLen /= 2
	}
	before := ReadCounters()
	rate, elapsed := st.window(ctx, env, o.Seed, windowLen)
	after := ReadCounters()
	res.WindowS = elapsed.Seconds()
	window := st.samples // the traced pass adds none
	if len(window) == 0 && st.invalid == nil {
		return fmt.Errorf("no query completed in the %.0f s window", windowLen.Seconds())
	}

	if o.Trace {
		if err := tracedServe(ctx, o, env, st, res); err != nil {
			return err
		}
	}

	// Drain, then check what the servers left on disk.
	stopped = true
	if err := env.pair.Stop(); err != nil {
		return err
	}
	if st.invalid != nil {
		return fmt.Errorf("invalid run: %w", st.invalid)
	}
	if err := checkLedger(env.pair.Paths.Ledger, st.byTenant); err != nil {
		return fmt.Errorf("invalid run: %w", err)
	}
	records, err := checkJournals(env.pair.Paths.JournalS1, env.pair.Paths.JournalS2)
	if err != nil {
		return fmt.Errorf("invalid run: %w", err)
	}
	served := 0
	for _, t := range st.byTenant {
		served += t.queries
	}

	res.Attempted, res.Failed, res.Samples = st.attempted, st.refused+st.errors, len(window)
	lat := make([]float64, len(window))
	for i, s := range window {
		lat[i] = ms(s.latency)
	}
	m := res.Metrics
	if !o.Trace {
		m["setup_s"] = median(setups)
		m["query_p50_ms"] = median(lat)
		m["queries_per_s"] = rate
		m["users_per_s"] = rate * float64(w.Users)
		return nil
	}
	var admit, cons, bottom []float64
	for _, s := range window {
		admit = append(admit, ms(s.admit))
		if s.kind == kindBottom {
			bottom = append(bottom, ms(s.latency))
		} else {
			cons = append(cons, ms(s.latency))
		}
	}
	m["harness.warmup_s"] = warmup.Seconds()
	m["deploy.admit_ms"] = median(admit)
	m["deploy.query_ms_consensus"] = median(cons)
	m["deploy.query_ms_bottom"] = median(bottom)
	if p := supportedTail(len(lat)); p > 0 {
		m["deploy.query_tail_pct"] = p
		m["deploy.query_tail_ms"] = percentile(lat, p)
	}
	m["deploy.retries"] = counterDelta(res, before, after, "deploy.retries")
	m["deploy.refused"] = float64(st.refused)
	m["transport.wire_bytes_per_query"] = ratio(counterDelta(res, before, after, "transport.wire_bytes"), float64(len(window)))
	m["obs.journal_records_per_query"] = ratio(float64(records), float64(served))
	return nil
}

// handPlay is one query played through the layers by hand.
type handPlay struct {
	build, encode, collect  time.Duration
	journal, sync, account  time.Duration
	run                     *ProtocolRun
	frame                   *Frame // one user's S1 frame
	encryptions, frameBytes int    // per user
}

// named is the time the by-hand play accounts for by name.
func (h *handPlay) named() time.Duration {
	return h.build + h.encode + h.collect + h.run.Wall + h.journal + h.sync + h.account
}

// playByHand runs q through the layers one public call at a time, a span
// around each: client.build, client.encode, deploy.collect (a direct upload
// into a RunIngest pair), protocol.s1 beside protocol.s2 with the meter's
// steps as children, obs.journal, fsx.sync, dp.account.
func playByHand(ctx context.Context, dep *Deployment, q Query, qi int, rec *Recorder,
	crypto, noise *rand.Rand, scratch string, seed int64) (*handPlay, error) {
	h := &handPlay{}
	users := dep.Users()
	root := rec.Add("byhand.query", -1, qi, time.Now(), 0)
	defer func() { rec.End(root, time.Now()) }()

	votes := q.Votes()
	uploads := make([]*Upload, users)
	t0 := time.Now()
	for u := range uploads {
		var err error
		if uploads[u], err = dep.BuildUpload(crypto, noise, u, votes[u]); err != nil {
			return nil, err
		}
	}
	h.build = time.Since(t0)
	rec.Add("client.build", root, qi, t0, h.build)

	frames1, frames2 := make([]*Frame, users), make([]*Frame, users)
	t0 = time.Now()
	for u, up := range uploads {
		var err error
		if frames1[u], frames2[u], err = dep.Encode(up, u, 0); err != nil {
			return nil, err
		}
	}
	h.encode = time.Since(t0)
	rec.Add("client.encode", root, qi, t0, h.encode)
	h.frame, h.encryptions = frames1[0], uploads[0].Encryptions()
	for u := range frames1 {
		// A ciphertext with a leading zero byte is a byte shorter on the
		// wire; the largest upload is the size that repeats exactly.
		h.frameBytes = max(h.frameBytes, FrameBytes(frames1[u])+FrameBytes(frames2[u]))
	}

	tree, err := dep.StartIngest(ctx, IngestSpec{Users: users, Workers: 2, Seed: seed,
		Frames: func(u int) (*Frame, *Frame, error) { return frames1[u], frames2[u], nil }})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	ing, err := tree.Run()
	if err != nil {
		return nil, err
	}
	if err := checkCoverage(ing, users); err != nil {
		return nil, fmt.Errorf("invalid run: by-hand collect: %w", err)
	}
	h.collect = ing.Collected
	rec.Add("deploy.collect", root, qi, t0, h.collect)

	if h.run, err = dep.RunProtocol(ctx, uploads, seed); err != nil {
		return nil, err
	}
	s1 := rec.Add("protocol.s1", root, qi, h.run.Start, h.run.S1Wall)
	rec.Add("protocol.s2", root, qi, h.run.Start, h.run.S2Wall)
	at := h.run.Start
	for _, s := range h.run.Steps {
		// The meter gives each step's elapsed time, not its start; steps
		// run one after another, so they are laid end to end.
		rec.Add("protocol."+s.Step, s1, qi, at, s.Elapsed)
		at = at.Add(s.Elapsed)
	}

	// What the servers do around the protocol run: journal the spans of
	// both sides, persist the ledger, account the spend.
	t0 = time.Now()
	if _, err := JournalAppend(filepath.Join(scratch, "journal.jsonl"), 2*(len(h.run.Steps)+2)); err != nil {
		return nil, err
	}
	h.journal = time.Since(t0)
	rec.Add("obs.journal", root, qi, t0, h.journal)
	t0 = time.Now()
	if _, err := WriteSync(filepath.Join(scratch, "ledger.json"), 1); err != nil {
		return nil, err
	}
	h.sync = time.Since(t0)
	rec.Add("fsx.sync", root, qi, t0, h.sync)
	t0 = time.Now()
	if _, err := dep.DPAccount(1); err != nil {
		return nil, err
	}
	h.account = time.Since(t0)
	rec.Add("dp.account", root, qi, t0, h.account)
	return h, nil
}

// tracedServe is the traced pass of a serve workload: one schedule block,
// each query served through the live pair (serve.query) and then played
// through the layers by hand. The recorder takes a span after the call it
// covers has returned, so it adds nothing to the served query and a serve
// workload has no tracing overhead to report. The pass also takes the
// per-operation timings, which need S2's private keys and so run before the
// pair stops.
func tracedServe(ctx context.Context, o runOpts, env *serveEnv, st *serveTally, res *Result) error {
	dep, m := env.dep, res.Metrics
	users := float64(dep.Users())
	rec := NewRecorder()
	sched, err := NewSchedule(o.Seed*1009+977, dep.Users(), dep.Classes())
	if err != nil {
		return err
	}
	crypto := rand.New(rand.NewSource(o.Seed + 401))
	noise := rand.New(rand.NewSource(o.Seed + 402))
	scratch := filepath.Join(o.Dir, "byhand")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}

	var traced, residual, buildPerUser, collectPerUser, total []float64
	steps := map[string][]float64{}
	var peerBytes, peerMsgs, peerRounds float64
	var uploadBytes int
	var last *handPlay
	ops := Counters{} // counters moved by the by-hand plays alone
	for qi := 0; qi < tracedQueries; qi++ {
		q := sched.Next()
		exp, err := Expect(dep, q)
		if err != nil {
			return err
		}
		t0 := time.Now()
		served, ok := st.ask(ctx, env, 0, q, false)
		if !ok {
			return fmt.Errorf("traced-pass query %d failed", qi)
		}
		rec.Add("serve.query", -1, qi, t0, served)
		traced = append(traced, ms(served))

		before := ReadCounters()
		h, err := playByHand(ctx, dep, q, qi, rec, crypto, noise, scratch, o.Seed+int64(qi)*7)
		if err != nil {
			return err
		}
		for name, v := range ReadCounters() {
			ops[name] += v - before[name]
		}
		if err := exp.Check(QueryResult{Consensus: h.run.Consensus, Label: h.run.Label}); err != nil {
			return fmt.Errorf("invalid run: by-hand protocol on query %d: %w", q.Index, err)
		}
		last, uploadBytes = h, max(uploadBytes, h.frameBytes)
		buildPerUser = append(buildPerUser, ms(h.build)/users)
		collectPerUser = append(collectPerUser, ms(h.collect)/users)
		residual = append(residual, ms(served)-ms(h.named()))
		peerBytes += float64(h.run.PeerBytes)
		peerMsgs += float64(h.run.PeerMsg)
		peerRounds += float64(h.run.PeerRounds)
		if q.Kind == kindBottom {
			continue // step times are those of the full path, steps 7-9 included
		}
		perQuery := map[string]float64{}
		for _, s := range h.run.Steps {
			perQuery[stepMetric(s.Step)] += ms(s.Elapsed)
		}
		for stem, v := range perQuery {
			steps[stem] = append(steps[stem], v)
		}
		total = append(total, ms(h.run.Wall))
	}

	n := float64(tracedQueries)
	m["client.build_ms_per_user"] = median(buildPerUser)
	m["client.encryptions_per_user"] = float64(last.encryptions)
	m["client.upload_bytes_per_user"] = float64(uploadBytes)
	m["deploy.collect_ms_per_user"] = median(collectPerUser)
	for stem, v := range steps {
		m["protocol."+stem+"_ms"] = median(v)
	}
	m["protocol.total_ms"] = median(total)
	m["protocol.peer_bytes_per_query"] = peerBytes / n
	m["protocol.peer_msgs_per_query"] = peerMsgs / n
	m["protocol.peer_rounds_per_query"] = peerRounds / n
	zero := Counters{}
	for _, layer := range []string{"paillier.encrypts", "paillier.decrypts", "dgk.encrypts", "dgk.zerotests", "dgk.comparisons"} {
		m[layer+"_per_query"] = counterDelta(res, zero, ops, layer) / n
	}
	hits, misses := counterDelta(res, zero, ops, "dgk.material_hits"), counterDelta(res, zero, ops, "dgk.material_misses")
	m["dgk.material_hit_frac"] = ratio(hits, hits+misses)
	hits, misses = counterDelta(res, zero, ops, "mathutil.hits"), counterDelta(res, zero, ops, "mathutil.fallbacks")
	m["mathutil.fixedbase_hit_frac"] = ratio(hits, hits+misses)
	m["deploy.residual_ms"] = median(residual)
	m["deploy.residual_frac"] = ratio(median(residual), median(traced))

	if err := perOpMetrics(ctx, o, dep, last.frame, scratch, m, true); err != nil {
		return err
	}
	res.Spans = rec.Spans()
	return nil
}

// perOpMetrics takes the per-operation timings at the deployment's key
// shape. withDGK is false on the workload that runs no comparison.
func perOpMetrics(ctx context.Context, o runOpts, dep *Deployment, frame *Frame, scratch string, m map[string]float64, withDGK bool) error {
	const ops = 200
	enc, add, rer, dec, err := dep.PaillierOps(ops, o.Seed+501)
	if err != nil {
		return err
	}
	m["paillier.encrypt_us"], m["paillier.add_us"] = us(enc), us(add)
	m["paillier.rerandomize_us"], m["paillier.decrypt_us"] = us(rer), us(dec)
	if withDGK {
		denc, zt, cmp, err := dep.DGKOps(ctx, ops, ops/10, o.Seed+502)
		if err != nil {
			return err
		}
		m["dgk.encrypt_us"], m["dgk.zerotest_us"], m["dgk.compare_ms"] = us(denc), us(zt), ms(cmp)
	}
	d, err := FrameLoopback(ctx, frame, ops)
	if err != nil {
		return err
	}
	m["transport.frame_us"] = us(d)
	if d, err = WriteSync(filepath.Join(scratch, "ledger.json"), ops/4); err != nil {
		return err
	}
	m["fsx.write_sync_us"] = us(d)
	if d, err = JournalAppend(filepath.Join(scratch, "ops.jsonl"), ops); err != nil {
		return err
	}
	m["obs.journal_append_us"] = us(d)
	if d, err = dep.DPAccount(ops * 5); err != nil {
		return err
	}
	m["dp.account_us"] = us(d)
	return nil
}

// ---- ingest workload ------------------------------------------------------

// ingestEnv is one set-up ingestion deployment: keys, the one well-formed
// submission every simulated user re-tags, and a started tree.
type ingestEnv struct {
	dep  *Deployment
	tmpl *Upload
	tree *IngestTree
}

// frames re-tags the template for user, as cmd/loadgen does: the workload
// measures the ingestion tier, and 8,000 real encryptions per round would
// be generator time, not relay time.
func (e *ingestEnv) frames(user int) (*Frame, *Frame, error) { return e.dep.Encode(e.tmpl, user, 0) }

func (e *ingestEnv) start(ctx context.Context, w workloadDef, relays int, seed int64, onUser func(int, string, time.Time, time.Duration)) (err error) {
	e.tree, err = e.dep.StartIngest(ctx, IngestSpec{Users: w.Users, Relays: relays, Batch: ingestBatch,
		Workers: w.Tenants, Seed: seed, Frames: e.frames, OnUser: onUser})
	return err
}

func setupIngest(ctx context.Context, w workloadDef, seed int64) (*ingestEnv, error) {
	dep, err := NewDeployment(w.Shape, w.Users, seed)
	if err != nil {
		return nil, err
	}
	vote := make([]float64, dep.Classes())
	vote[0] = 1
	tmpl, err := dep.BuildUpload(rand.New(rand.NewSource(seed+1)), rand.New(rand.NewSource(seed+2)), 0, vote)
	if err != nil {
		return nil, err
	}
	env := &ingestEnv{dep: dep, tmpl: tmpl}
	return env, env.start(ctx, w, ingestRelays, seed, nil)
}

// ingestTally accumulates rounds.
type ingestTally struct {
	rounds                   int
	attempted, failed        int
	uploadS, latencyMs, acks []float64
	releaseMs, cycleS        []float64
	rehomes                  int
	inBytes                  int64
}

// round runs the started tree and checks both sinks' coverage.
func (it *ingestTally) round(env *ingestEnv, users int, keep bool) (*IngestResult, error) {
	r, err := env.tree.Run()
	if keep && r != nil {
		it.attempted += users
		it.failed += r.Errors + r.LostAcks
	}
	if err != nil {
		return nil, err
	}
	if err := checkCoverage(r, users); err != nil {
		return nil, fmt.Errorf("invalid run: %w", err)
	}
	if keep {
		it.rounds++
		it.uploadS = append(it.uploadS, r.Upload.Seconds())
		it.latencyMs = append(it.latencyMs, ms(r.Collected))
		it.releaseMs = append(it.releaseMs, ms(r.Collected-r.Upload))
		it.acks = append(it.acks, durationsMs(r.Acks)...)
		it.rehomes += r.Rehomes
		it.inBytes += r.InBytes
	}
	return r, nil
}

func runIngest(ctx context.Context, o runOpts, res *Result) error {
	w := o.W
	var env *ingestEnv
	var setups []float64
	for moreSetups(o.Trace, setups) {
		if env != nil {
			env.tree.Stop()
		}
		t0 := time.Now()
		var err error
		if env, err = setupIngest(ctx, w, o.Seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.KeyShape = env.dep.KeyShape()

	// The tree that set-up started serves the untimed warm-up round.
	it := &ingestTally{}
	t0 := time.Now()
	if _, err := it.round(env, w.Users, false); err != nil {
		return err
	}
	warmup := time.Since(t0)

	windowLen := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		windowLen /= 2
	}
	before := ReadCounters()
	start := time.Now()
	for i := int64(1); time.Since(start) < windowLen; i++ {
		t0 := time.Now()
		if err := env.start(ctx, w, ingestRelays, o.Seed+i, nil); err != nil {
			return err
		}
		if _, err := it.round(env, w.Users, true); err != nil {
			return err
		}
		it.cycleS = append(it.cycleS, time.Since(t0).Seconds())
	}
	elapsed := time.Since(start)
	after := ReadCounters()
	res.WindowS = elapsed.Seconds()
	res.Attempted, res.Failed, res.Samples = it.attempted, it.failed, it.rounds

	m := res.Metrics
	if !o.Trace {
		rates := make([]float64, len(it.uploadS))
		for i, s := range it.uploadS {
			rates[i] = float64(w.Users) / s
		}
		m["setup_s"] = median(setups)
		m["query_p50_ms"] = median(it.latencyMs)
		m["queries_per_s"] = 1 / median(it.cycleS)
		m["users_per_s"] = median(rates)
		return nil
	}

	m["harness.warmup_s"] = warmup.Seconds()
	m["ingest.ack_p50_ms"] = median(it.acks)
	m["ingest.ack_p99_ms"] = percentile(it.acks, 99)
	m["ingest.release_ms"] = median(it.releaseMs)
	m["ingest.rehomes"] = float64(it.rehomes)
	m["ingest.rejected"] = counterDelta(res, before, after, "ingest.rejected")
	m["ingest.forward_retries"] = counterDelta(res, before, after, "ingest.forward_retries")
	m["ingest.users_per_batch"] = ratio(counterDelta(res, before, after, "ingest.relay_users"),
		counterDelta(res, before, after, "ingest.batches_acked"))
	wire := counterDelta(res, before, after, "transport.wire_bytes")
	m["ingest.fanin_bytes_ratio"] = ratio(float64(it.inBytes), wire-float64(it.inBytes))
	m["transport.wire_bytes_per_query"] = ratio(wire, float64(it.rounds))
	rounds := float64(it.rounds)
	m["paillier.encrypts_per_query"] = counterDelta(res, before, after, "paillier.encrypts") / rounds
	m["paillier.decrypts_per_query"] = counterDelta(res, before, after, "paillier.decrypts") / rounds
	hits, misses := counterDelta(res, before, after, "mathutil.hits"), counterDelta(res, before, after, "mathutil.fallbacks")
	m["mathutil.fixedbase_hit_frac"] = ratio(hits, hits+misses)

	// Traced round: the same tree with a span around every uploader call.
	rec := NewRecorder()
	extra := &ingestTally{}
	if err := env.start(ctx, w, ingestRelays, o.Seed+9001, func(u int, phase string, t time.Time, d time.Duration) {
		rec.Add(phase, -1, u, t, d)
	}); err != nil {
		return err
	}
	t0 = time.Now()
	r, err := extra.round(env, w.Users, true)
	if err != nil {
		return err
	}
	rec.Add("ingest.round", -1, -1, t0, r.Collected)
	m["harness.trace_overhead_frac"] = ratio(r.Upload.Seconds()-median(it.uploadS), median(it.uploadS))

	// One leaf alone, then straight into the sinks with no relay.
	if err := env.start(ctx, w, 1, o.Seed+9002, nil); err != nil {
		return err
	}
	if r, err = extra.round(env, w.Users, true); err != nil {
		return err
	}
	m["ingest.relay_users_per_s"] = float64(w.Users) / r.Upload.Seconds()
	// In direct mode the last confirm races the sinks' teardown, so this
	// round's acks are not counted as workload operations.
	if err := env.start(ctx, w, 0, o.Seed+9003, nil); err != nil {
		return err
	}
	if r, err = extra.round(env, w.Users, false); err != nil {
		return err
	}
	m["deploy.collect_ms_per_user"] = ms(r.Collected) / float64(w.Users)
	res.Attempted += extra.attempted
	res.Failed += extra.failed

	t0 = time.Now()
	f1, f2, err := env.frames(0)
	if err != nil {
		return err
	}
	m["client.build_ms_per_user"] = ms(time.Since(t0)) // re-tagging only: no encryption
	m["client.encryptions_per_user"] = 0
	m["client.upload_bytes_per_user"] = float64(FrameBytes(f1) + FrameBytes(f2))
	scratch := filepath.Join(o.Dir, "ops")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	if err := perOpMetrics(ctx, o, env.dep, f1, scratch, m, false); err != nil {
		return err
	}
	res.Spans = rec.Spans()
	return nil
}
