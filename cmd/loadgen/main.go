// Command loadgen drives the ingestion tier at scale: it simulates large
// user populations (10⁵–10⁶) submitting through a relay tree — or directly
// to the servers — against real ingestion sinks (deploy.RunIngest: the
// servers' accept/validate/collect path with the protocol run stopped at
// the quorum release), and reports ingestion throughput, per-user ack
// percentiles and the quorum wait (-out writes them as a JSON record). The
// repository's measured record is the end-to-end benchmark under bench/;
// this harness is kept for its tree-vs-direct parity run and for by-hand
// scale probes.
//
// The simulated users share one cryptographically well-formed submission
// (re-tagged per user), so the harness measures the ingestion tier —
// transport, validation, pre-summing, batching — not 10⁵ Paillier
// encryptions. A separate small full-protocol parity run (-parity-users)
// proves tree and direct ingestion produce identical consensus outcomes.
//
// Usage:
//
//	loadgen [flags]
//
// Arrival schedules are open-loop: flood (all at once), poisson:RATE
// (RATE users/sec, exponential interarrivals), burst:N@INTERVAL (N users
// every INTERVAL, e.g. burst:500@100ms).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/experiments"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// options carries the parsed harness configuration.
type options struct {
	users       int
	relays      int
	levels      int
	batch       int
	workers     int
	arrival     string
	instances   int
	classes     int
	bits        int
	deadline    time.Duration
	seed        int64
	out         string
	mode        string
	parityUsers int
	large       int
	packed      bool
	packedCmp   bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var o options
	fs.IntVar(&o.users, "users", 1000, "simulated user population")
	fs.IntVar(&o.relays, "relays", 2, "leaf relays in the ingestion tree")
	fs.IntVar(&o.levels, "levels", 2, "tree depth: 2 (leaves->servers) or 3 (leaves->mid relays->servers)")
	fs.IntVar(&o.batch, "batch", 64, "relay pre-sum batch size")
	fs.IntVar(&o.workers, "workers", 8, "concurrent upload workers")
	fs.StringVar(&o.arrival, "arrival", "flood", "arrival schedule: flood | poisson:RATE | burst:N@INTERVAL")
	fs.IntVar(&o.instances, "instances", 1, "query instances per submission")
	fs.IntVar(&o.classes, "classes", 4, "classes per vote vector")
	fs.IntVar(&o.bits, "bits", 256, "Paillier modulus bits for the measured run")
	fs.DurationVar(&o.deadline, "deadline", 2*time.Minute, "submission deadline safety cap on the sinks")
	fs.Int64Var(&o.seed, "seed", 1, "base RNG seed")
	fs.StringVar(&o.out, "out", "", "write the machine-readable record to this path (default: print)")
	fs.StringVar(&o.mode, "mode", "tree", "ingestion mode: tree | direct")
	fs.IntVar(&o.parityUsers, "parity-users", 20, "users for the tree-vs-direct full-protocol parity run (0 skips)")
	fs.IntVar(&o.large, "large", 0, "also measure at this population (e.g. 100000) into the large_* fields")
	fs.BoolVar(&o.packed, "packed", false, "slot-packed submissions for the measured run (and the parity run)")
	fs.BoolVar(&o.packedCmp, "packed-compare", false, "re-measure the same shape with packing on and record the packed_* comparison fields (requires -packed=false)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.mode != "tree" && o.mode != "direct" {
		return fmt.Errorf("unknown -mode %q", o.mode)
	}
	if o.levels != 2 && o.levels != 3 {
		return fmt.Errorf("-levels must be 2 or 3, got %d", o.levels)
	}
	if o.relays < 1 || o.users < 1 || o.workers < 1 {
		return fmt.Errorf("-users, -relays and -workers must be positive")
	}
	if _, err := parseArrival(o.arrival, 1, o.seed); err != nil {
		return err
	}
	if o.packed && o.packedCmp {
		return fmt.Errorf("-packed-compare re-measures with packing on; the primary run must use -packed=false")
	}

	ctx := context.Background()
	rec := experiments.IngestJSON{
		Mode: o.mode, Users: o.users, Relays: o.relays, Levels: o.levels,
		Batch: o.batch, Workers: o.workers, Arrival: o.arrival,
		PaillierBits: o.bits, Classes: o.classes, Instances: o.instances,
		Seed: o.seed, Packing: o.packed,
	}

	m, err := measure(ctx, o, o.users, o.packed)
	if err != nil {
		return err
	}
	rec.ElapsedNs = m.elapsed.Nanoseconds()
	rec.ThroughputUsersPerSec = float64(o.users) / m.elapsed.Seconds()
	rec.AckP50Ns = percentile(m.acks, 50).Nanoseconds()
	rec.AckP95Ns = percentile(m.acks, 95).Nanoseconds()
	rec.AckP99Ns = percentile(m.acks, 99).Nanoseconds()
	rec.QuorumWaitS1Ns = m.waitS1.Nanoseconds()
	rec.QuorumWaitS2Ns = m.waitS2.Nanoseconds()
	rec.Rehomes = m.rehomes
	rec.BytesPerUser = m.bytesPerUser
	fmt.Printf("measured %d users (%s, %s, packed=%v): %.0f users/sec, ack p99 %v, %dB/user, quorum wait s1=%v s2=%v\n",
		o.users, o.mode, o.arrival, o.packed, rec.ThroughputUsersPerSec,
		time.Duration(rec.AckP99Ns), rec.BytesPerUser, m.waitS1, m.waitS2)

	if o.packedCmp {
		pm, err := measure(ctx, o, o.users, true)
		if err != nil {
			return fmt.Errorf("packed compare run: %w", err)
		}
		elapsed := pm.elapsed.Seconds()
		rec.PackedThroughputUsersPerSec = float64(o.users) / elapsed
		rec.PackedAckP99Ns = percentile(pm.acks, 99).Nanoseconds()
		rec.PackedBytesPerUser = pm.bytesPerUser
		fmt.Printf("packed compare %d users: %.0f users/sec, ack p99 %v, %dB/user (unpacked %dB/user)\n",
			o.users, rec.PackedThroughputUsersPerSec,
			time.Duration(rec.PackedAckP99Ns), pm.bytesPerUser, m.bytesPerUser)
	}

	if o.parityUsers > 0 {
		ok, err := parityCheck(ctx, o)
		if err != nil {
			return fmt.Errorf("parity run: %w", err)
		}
		rec.ParityChecked, rec.ParityOK, rec.ParityUsers = true, ok, o.parityUsers
		if !ok {
			return fmt.Errorf("parity FAILED: relay-tree and direct ingestion produced different outcomes")
		}
		fmt.Printf("parity: tree and direct outcomes identical over %d users\n", o.parityUsers)
	}

	if o.large > 0 {
		lm, err := measure(ctx, o, o.large, o.packed)
		if err != nil {
			return fmt.Errorf("large run: %w", err)
		}
		rec.LargeUsers = o.large
		rec.LargeElapsedNs = lm.elapsed.Nanoseconds()
		rec.LargeThroughputUsersPerSec = float64(o.large) / lm.elapsed.Seconds()
		rec.LargeAckP99Ns = percentile(lm.acks, 99).Nanoseconds()
		rec.LargeQuorumWaitS1Ns = lm.waitS1.Nanoseconds()
		fmt.Printf("large run %d users: %.0f users/sec, ack p99 %v\n",
			o.large, rec.LargeThroughputUsersPerSec, time.Duration(rec.LargeAckP99Ns))
	}

	if o.out == "" {
		fmt.Printf("%+v\n", rec)
		return nil
	}
	if err := experiments.WriteIngestJSON(o.out, rec); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.out)
	return nil
}

// harnessConfig builds the protocol configuration the ingestion sinks and
// relays validate against.
func harnessConfig(users, classes, bits int, packed bool) protocol.Config {
	cfg := protocol.DefaultConfig(users)
	cfg.Classes = classes
	cfg.PaillierBits = bits
	cfg.Kappa = 24
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.DGK = dgk.Params{NBits: 160, TBits: 32, U: 1009, L: 50}
	cfg.Packing = packed
	return cfg
}

// encodeUserHalf encodes one submission half in the configuration's wire
// format: a packed frame when slot packing is on, the legacy per-class
// frame otherwise.
func encodeUserHalf(cfg protocol.Config, user, instance int, h protocol.SubmissionHalf) (*transport.Message, error) {
	if cfg.Packing {
		return ingest.EncodePackedHalf(user, instance, cfg.Classes, cfg.PackedWidth(), h)
	}
	return ingest.EncodeHalf(user, instance, h)
}

// relayPacked returns the relay-side packed layout for the configuration,
// nil when packing is off.
func relayPacked(cfg protocol.Config) *ingest.PackedParams {
	if !cfg.Packing {
		return nil
	}
	return &ingest.PackedParams{
		Width:    cfg.PackedWidth(),
		PerVec:   cfg.PackedCiphertexts(),
		Headroom: cfg.PackedHeadroomBits(),
	}
}

// measurement is one ingestion run's raw numbers.
type measurement struct {
	elapsed        time.Duration
	acks           []time.Duration
	waitS1, waitS2 time.Duration
	rehomes        int
	bytesPerUser   int64
}

// measure runs one open-loop ingestion measurement at the given population.
func measure(ctx context.Context, o options, users int, packed bool) (*measurement, error) {
	cfg := harnessConfig(users, o.classes, o.bits, packed)
	keys, err := protocol.GenerateKeys(rand.New(rand.NewSource(o.seed)), cfg)
	if err != nil {
		return nil, err
	}
	_, _, pub, err := keystore.Split(cfg, keys)
	if err != nil {
		return nil, err
	}

	// One well-formed submission, re-tagged per user: the harness measures
	// the ingestion tier, not the users' encryption cost.
	votes := make([]*big.Int, cfg.Classes)
	for i := range votes {
		votes[i] = big.NewInt(0)
	}
	votes[0] = big.NewInt(protocol.VoteScale)
	tmpl, _, err := protocol.BuildSubmission(rand.New(rand.NewSource(o.seed+1)),
		rand.New(rand.NewSource(o.seed+2)), cfg, 0, votes, pub.PK1, pub.PK2)
	if err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Sinks: both servers' ingestion paths, releasing when every simulated
	// user is covered (deadline as a safety cap).
	sinkOpts := deploy.ServerOptions{
		ListenAddr: "127.0.0.1:0", Instances: o.instances,
		Quorum: float64(users), SubmitDeadline: o.deadline,
	}
	type sinkOut struct {
		rep *deploy.IngestReport
		err error
	}
	sinkDone := [2]chan sinkOut{make(chan sinkOut, 1), make(chan sinkOut, 1)}
	sinkAddr := [2]string{}
	for i, sk := range []struct {
		role string
		ring *big.Int
	}{{"s1", pub.PK2.N2}, {"s2", pub.PK1.N2}} {
		i, sk := i, sk
		opts := sinkOpts
		ready := make(chan string, 1)
		opts.Ready = ready
		go func() {
			rep, err := deploy.RunIngest(runCtx, sk.role, cfg, sk.ring, opts)
			sinkDone[i] <- sinkOut{rep, err}
		}()
		select {
		case sinkAddr[i] = <-ready:
		case out := <-sinkDone[i]:
			return nil, fmt.Errorf("%s sink: %v", sk.role, out.err)
		}
	}

	// Endpoint pairs per worker: in tree mode each worker leases one leaf
	// relay (sibling as failover); in direct mode the servers themselves.
	eps1 := make([][]string, o.workers)
	eps2 := make([][]string, o.workers)
	if o.mode == "direct" {
		for w := 0; w < o.workers; w++ {
			eps1[w] = []string{sinkAddr[0]}
			eps2[w] = []string{sinkAddr[1]}
		}
	} else {
		upS1, upS2 := sinkAddr[0], sinkAddr[1]
		if o.levels == 3 {
			// A middle tier of two combiner relays between leaves and
			// servers; leaves split between them.
			var mids [2][2]string
			for m := 0; m < 2; m++ {
				a1, a2, err := startHarnessRelay(runCtx, ingest.Options{
					UpstreamS1: sinkAddr[0], UpstreamS2: sinkAddr[1],
					RelayID: int64(101 + m), Users: users, Instances: o.instances,
					Classes: cfg.Classes, PK1: pub.PK1, PK2: pub.PK2,
					BatchSize: o.batch, Seed: o.seed + int64(100+m),
					Packed: relayPacked(cfg),
				})
				if err != nil {
					return nil, err
				}
				mids[m] = [2]string{a1, a2}
			}
			_ = upS1
			leafUp := func(r int) (string, string) { m := mids[r%2]; return m[0], m[1] }
			if eps1, eps2, err = startLeaves(runCtx, o, users, cfg, pub, leafUp); err != nil {
				return nil, err
			}
		} else {
			leafUp := func(int) (string, string) { return upS1, upS2 }
			if eps1, eps2, err = startLeaves(runCtx, o, users, cfg, pub, leafUp); err != nil {
				return nil, err
			}
		}
	}

	offsets, err := parseArrival(o.arrival, users, o.seed)
	if err != nil {
		return nil, err
	}

	// Workers: open-loop upload of the assigned users through persistent
	// uploaders, timing each user's send-to-durable-ack latency.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		acks    []time.Duration
		rehomes int
		firstMu sync.Mutex
		wErr    error
	)
	start := time.Now()
	for w := 0; w < o.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			up1 := &ingest.Uploader{Endpoints: eps1[w], Seed: o.seed + int64(w)}
			up2 := &ingest.Uploader{Endpoints: eps2[w], Seed: o.seed + int64(w) + 1}
			defer up1.Close()
			defer up2.Close()
			local := make([]time.Duration, 0, users/o.workers+1)
			for u := w; u < users; u += o.workers {
				if d := time.Until(start.Add(offsets[u])); d > 0 {
					time.Sleep(d)
				}
				t0 := time.Now()
				for i := 0; i < o.instances; i++ {
					f1, err := encodeUserHalf(cfg, u, i, tmpl.ToS1)
					if err == nil {
						err = up1.Send(runCtx, f1)
					}
					var f2 *transport.Message
					if err == nil {
						f2, err = encodeUserHalf(cfg, u, i, tmpl.ToS2)
					}
					if err == nil {
						err = up2.Send(runCtx, f2)
					}
					if err != nil {
						setErr(&firstMu, &wErr, fmt.Errorf("user %d: %w", u, err))
						return
					}
				}
				// A confirm can lose the race against the sink's release: the
				// final frames trigger the quorum release, the sink tears
				// down, and the in-flight done/ack dies with it. Release
				// already proves every frame was ingested, and the coverage
				// check below is authoritative, so a lost ack is a dropped
				// latency sample, not a failure.
				if up1.Confirm(runCtx, int64(u)) == nil && up2.Confirm(runCtx, int64(u)) == nil {
					local = append(local, time.Since(t0))
				}
			}
			mu.Lock()
			acks = append(acks, local...)
			rehomes += up1.Rehomes + up2.Rehomes
			mu.Unlock()
		}()
	}
	wg.Wait()
	if wErr != nil {
		return nil, wErr
	}
	elapsed := time.Since(start)

	m := &measurement{elapsed: elapsed, acks: acks, rehomes: rehomes,
		bytesPerUser: int64(protocol.SubmissionBytes(tmpl.ToS1) + protocol.SubmissionBytes(tmpl.ToS2))}
	for i := range sinkDone {
		out := <-sinkDone[i]
		if out.err != nil {
			return nil, fmt.Errorf("sink %d: %w", i, out.err)
		}
		for _, inst := range out.rep.Instances {
			if inst.Participants != users {
				return nil, fmt.Errorf("sink %d instance %d covered %d of %d users",
					i, inst.Instance, inst.Participants, users)
			}
		}
		if i == 0 {
			m.waitS1 = out.rep.Wait
		} else {
			m.waitS2 = out.rep.Wait
		}
	}
	return m, nil
}

// startLeaves launches the leaf relay tier and returns per-worker endpoint
// lists (primary leaf first, one sibling as failover).
func startLeaves(ctx context.Context, o options, users int, cfg protocol.Config,
	pub *keystore.PublicFile, upstream func(r int) (string, string)) (eps1, eps2 [][]string, err error) {
	leaf1 := make([]string, o.relays)
	leaf2 := make([]string, o.relays)
	for r := 0; r < o.relays; r++ {
		upS1, upS2 := upstream(r)
		a1, a2, err := startHarnessRelay(ctx, ingest.Options{
			UpstreamS1: upS1, UpstreamS2: upS2, RelayID: int64(r + 1),
			Users: users, Instances: o.instances, Classes: cfg.Classes,
			PK1: pub.PK1, PK2: pub.PK2, BatchSize: o.batch,
			Seed: o.seed + int64(r), Packed: relayPacked(cfg),
		})
		if err != nil {
			return nil, nil, err
		}
		leaf1[r], leaf2[r] = a1, a2
	}
	eps1 = make([][]string, o.workers)
	eps2 = make([][]string, o.workers)
	for w := 0; w < o.workers; w++ {
		r := w % o.relays
		sib := (r + 1) % o.relays
		eps1[w] = []string{leaf1[r], leaf1[sib]}
		eps2[w] = []string{leaf2[r], leaf2[sib]}
		if o.relays == 1 {
			eps1[w] = eps1[w][:1]
			eps2[w] = eps2[w][:1]
		}
	}
	return eps1, eps2, nil
}

// startHarnessRelay launches one relay on loopback and waits for both
// listeners.
func startHarnessRelay(ctx context.Context, opts ingest.Options) (s1Addr, s2Addr string, err error) {
	r1 := make(chan string, 1)
	r2 := make(chan string, 1)
	opts.ListenS1, opts.ListenS2 = "127.0.0.1:0", "127.0.0.1:0"
	opts.ReadyS1, opts.ReadyS2 = r1, r2
	errCh := make(chan error, 1)
	go func() { errCh <- ingest.Run(ctx, opts) }()
	select {
	case s1Addr = <-r1:
	case err := <-errCh:
		return "", "", fmt.Errorf("relay %d did not start: %v", opts.RelayID, err)
	case <-time.After(10 * time.Second):
		return "", "", fmt.Errorf("relay %d start timed out", opts.RelayID)
	}
	return s1Addr, <-r2, nil
}

// setErr records the first worker error.
func setErr(mu *sync.Mutex, dst *error, err error) {
	mu.Lock()
	defer mu.Unlock()
	if *dst == nil {
		*dst = err
	}
}

// parseArrival builds per-user arrival offsets for an open-loop schedule.
func parseArrival(spec string, users int, seed int64) ([]time.Duration, error) {
	offsets := make([]time.Duration, users)
	switch {
	case spec == "flood":
		return offsets, nil
	case strings.HasPrefix(spec, "poisson:"):
		rate, err := strconv.ParseFloat(strings.TrimPrefix(spec, "poisson:"), 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("bad poisson rate in %q", spec)
		}
		rng := rand.New(rand.NewSource(seed + 7))
		t := 0.0
		for i := range offsets {
			t += rng.ExpFloat64() / rate
			offsets[i] = time.Duration(t * float64(time.Second))
		}
		return offsets, nil
	case strings.HasPrefix(spec, "burst:"):
		parts := strings.SplitN(strings.TrimPrefix(spec, "burst:"), "@", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("burst schedule %q, want burst:N@INTERVAL", spec)
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad burst size in %q", spec)
		}
		interval, err := time.ParseDuration(parts[1])
		if err != nil || interval <= 0 {
			return nil, fmt.Errorf("bad burst interval in %q", spec)
		}
		for i := range offsets {
			offsets[i] = time.Duration(i/n) * interval
		}
		return offsets, nil
	default:
		return nil, fmt.Errorf("unknown arrival schedule %q", spec)
	}
}

// percentile returns the p-th percentile (nearest-rank) of the samples.
func percentile(durs []time.Duration, p int) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}

// parityCheck runs the full consensus protocol twice over a small
// population — once with direct ingestion, once through a two-relay tree —
// with identical submissions and server seeds, and reports whether every
// instance's outcome matches. The relay pre-sum is homomorphic addition,
// which is associative and commutative, so the aggregates are byte-equal
// and the outcomes must be identical; this check keeps that invariant
// honest end to end.
func parityCheck(ctx context.Context, o options) (bool, error) {
	users := o.parityUsers
	cfg := harnessConfig(users, o.classes, o.bits, o.packed)
	cfg.ThresholdFrac = 0.5
	keys, err := protocol.GenerateKeys(rand.New(rand.NewSource(o.seed+11)), cfg)
	if err != nil {
		return false, err
	}
	s1File, s2File, pub, err := keystore.Split(cfg, keys)
	if err != nil {
		return false, err
	}

	runOnce := func(tree bool) (*deploy.Report, *deploy.Report, error) {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		base := deploy.ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: 1,
			MaxRetries: 2, Backoff: 10 * time.Millisecond, AttemptTimeout: 2 * time.Minute,
		}
		type repOut struct {
			rep *deploy.Report
			err error
		}
		s1Ready := make(chan string, 1)
		s1Done := make(chan repOut, 1)
		go func() {
			opts := base
			opts.Seed, opts.Ready = o.seed+21, s1Ready
			rep, err := deploy.RunS1Report(runCtx, s1File, opts)
			s1Done <- repOut{rep, err}
		}()
		s1Addr := <-s1Ready
		s2Ready := make(chan string, 1)
		s2Done := make(chan repOut, 1)
		go func() {
			opts := base
			opts.Seed, opts.Ready, opts.PeerAddr = o.seed+22, s2Ready, s1Addr
			rep, err := deploy.RunS2Report(runCtx, s2File, opts)
			s2Done <- repOut{rep, err}
		}()
		s2Addr := <-s2Ready

		ep1 := []string{s1Addr}
		ep2 := []string{s2Addr}
		if tree {
			a1, a2, err := startHarnessRelay(runCtx, ingest.Options{
				UpstreamS1: s1Addr, UpstreamS2: s2Addr, RelayID: 1,
				Users: users, Instances: 1, Classes: cfg.Classes,
				PK1: pub.PK1, PK2: pub.PK2, BatchSize: 4, Seed: o.seed + 31,
				Packed: relayPacked(cfg),
			})
			if err != nil {
				return nil, nil, err
			}
			b1, b2, err := startHarnessRelay(runCtx, ingest.Options{
				UpstreamS1: s1Addr, UpstreamS2: s2Addr, RelayID: 2,
				Users: users, Instances: 1, Classes: cfg.Classes,
				PK1: pub.PK1, PK2: pub.PK2, BatchSize: 4, Seed: o.seed + 32,
				Packed: relayPacked(cfg),
			})
			if err != nil {
				return nil, nil, err
			}
			ep1 = []string{a1, b1}
			ep2 = []string{a2, b2}
		}

		for u := 0; u < users; u++ {
			votes := make([]*big.Int, cfg.Classes)
			for i := range votes {
				votes[i] = big.NewInt(0)
			}
			votes[u%cfg.Classes] = big.NewInt(protocol.VoteScale)
			sub, _, err := protocol.BuildSubmission(rand.New(rand.NewSource(o.seed+int64(41+u))),
				rand.New(rand.NewSource(o.seed+int64(1041+u))), cfg, u, votes, pub.PK1, pub.PK2)
			if err != nil {
				return nil, nil, err
			}
			// Users alternate leaves in tree mode (index parity), exercising
			// cross-relay merging at the servers.
			e1, e2 := ep1, ep2
			if tree && u%2 == 1 && len(ep1) > 1 {
				e1 = []string{ep1[1], ep1[0]}
				e2 = []string{ep2[1], ep2[0]}
			}
			up1 := &ingest.Uploader{Endpoints: e1, Seed: o.seed + int64(u)}
			up2 := &ingest.Uploader{Endpoints: e2, Seed: o.seed + int64(u) + 1}
			f1, err := encodeUserHalf(cfg, u, 0, sub.ToS1)
			if err == nil {
				err = up1.Send(runCtx, f1)
			}
			if err == nil {
				err = up1.Confirm(runCtx, int64(u))
			}
			if err == nil {
				var f2 *transport.Message
				if f2, err = encodeUserHalf(cfg, u, 0, sub.ToS2); err == nil {
					if err = up2.Send(runCtx, f2); err == nil {
						err = up2.Confirm(runCtx, int64(u))
					}
				}
			}
			up1.Close()
			up2.Close()
			if err != nil {
				return nil, nil, fmt.Errorf("user %d upload: %w", u, err)
			}
		}

		r1 := <-s1Done
		r2 := <-s2Done
		if r1.err != nil {
			return nil, nil, r1.err
		}
		if r2.err != nil {
			return nil, nil, r2.err
		}
		return r1.rep, r2.rep, nil
	}

	d1, d2, err := runOnce(false)
	if err != nil {
		return false, fmt.Errorf("direct: %w", err)
	}
	t1, t2, err := runOnce(true)
	if err != nil {
		return false, fmt.Errorf("tree: %w", err)
	}
	for _, pair := range []struct{ a, b *deploy.Report }{{d1, t1}, {d2, t2}} {
		if len(pair.a.Results) != len(pair.b.Results) {
			return false, nil
		}
		for i := range pair.a.Results {
			if pair.a.Results[i].Err != nil || pair.b.Results[i].Err != nil {
				return false, fmt.Errorf("instance %d errored: direct %v, tree %v",
					i, pair.a.Results[i].Err, pair.b.Results[i].Err)
			}
			if pair.a.Results[i].Outcome != pair.b.Results[i].Outcome {
				return false, nil
			}
		}
	}
	return true, nil
}
