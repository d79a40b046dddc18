package protocol

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sort"
	"time"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/perm"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Outcome is the result of one Alg. 5 execution, identical at both servers.
type Outcome struct {
	// Consensus reports whether the noisy highest vote passed the
	// threshold check (Alg. 5 step 5).
	Consensus bool
	// Label is the released label i~* (the argmax of the noisy votes),
	// or -1 when no consensus was reached.
	Label int
	// Participants is the number of submissions aggregated into this
	// outcome (== Users at full participation).
	Participants int
}

// comparer is one party's side of the run's DGK exchanges, bound to the
// run's conn and rng: the batched exchange the tournament and the threshold
// check use, and the single exchange of the all-pairs reference schedule. It
// is the one seam a different selection primitive would replace.
type comparer struct {
	// negate marks the DGK "B" party (S2), which supplies the mirrored
	// difference so one >= bit answers both parties.
	negate bool
	one    func(ctx context.Context, diff *big.Int) (bool, error)
	batch  func(ctx context.Context, diffs []*big.Int) ([]bool, error)
}

// party is one server's side of every Alg. 5 step, bound to the run's keys,
// rng and metered conn; run walks the steps in the one order both servers
// share.
type party struct {
	// peerPub is the key the role's stored halves are encrypted under.
	peerPub *paillier.PublicKey
	cmp     comparer
	// deltaSign is the sign the role applies δ with (see thresholdAdjustment):
	// S1 subtracts it at every position and S2 adds it, so the comparison
	// bias stays position-independent.
	deltaSign int64
	// unpack runs the role's side of one blinded unpack of its packed group
	// of nSeq aggregated sequences and returns what blindPermute takes.
	unpack func(ctx context.Context, group []*paillier.Ciphertext, nSeq, nUsers int) ([][]*paillier.Ciphertext, error)
	// blindPermute runs the role's side of Alg. 2 over nSeq sequences.
	blindPermute func(ctx context.Context, seqs [][]*paillier.Ciphertext, nSeq, nUsers int) (*bpResult, error)
	// restore runs the role's side of Alg. 3 for the permuted winner pTilde.
	restore func(ctx context.Context, pi perm.Permutation, pTilde int) (int, error)
}

// role is one server's key view, KeysS1 or KeysS2.
type role interface {
	Precompute()
	party(cfg Config, rng io.Reader, conn transport.Conn) party
}

// party binds S1's side: DGK party A, key owner of the blinded unpack (its
// own group stays packed; Blind-and-Permute step 1 masks it as it is).
func (k KeysS1) party(cfg Config, rng io.Reader, conn transport.Conn) party {
	return party{
		peerPub:   k.PeerPub,
		deltaSign: -1,
		cmp: comparer{
			one: func(ctx context.Context, d *big.Int) (bool, error) {
				return k.DGKPub.CompareSignedA(ctx, rng, conn, d)
			},
			batch: func(ctx context.Context, ds []*big.Int) ([]bool, error) {
				return k.DGKPub.CompareSignedBatchA(ctx, rng, conn, ds, Workers())
			},
		},
		unpack: func(ctx context.Context, group []*paillier.Ciphertext, nSeq, _ int) ([][]*paillier.Ciphertext, error) {
			return [][]*paillier.Ciphertext{group}, unpackS1(ctx, rng, cfg, k, conn, nSeq)
		},
		blindPermute: func(ctx context.Context, seqs [][]*paillier.Ciphertext, nSeq, _ int) (*bpResult, error) {
			return blindPermuteS1(ctx, rng, cfg, k, conn, slices.Concat(seqs...), nSeq)
		},
		restore: func(ctx context.Context, pi perm.Permutation, _ int) (int, error) {
			return restoreS1(ctx, rng, cfg, k, conn, pi)
		},
	}
}

// party binds S2's side: DGK party B, holder of the group the blinded
// unpack splits into per-class ciphertexts.
func (k KeysS2) party(cfg Config, rng io.Reader, conn transport.Conn) party {
	return party{
		peerPub:   k.PeerPub,
		deltaSign: 1,
		cmp: comparer{
			negate: true,
			one: func(ctx context.Context, d *big.Int) (bool, error) {
				return k.DGK.CompareSignedB(ctx, rng, conn, d)
			},
			batch: func(ctx context.Context, ds []*big.Int) ([]bool, error) {
				return k.DGK.CompareSignedBatchB(ctx, rng, conn, ds, Workers())
			},
		},
		unpack: func(ctx context.Context, group []*paillier.Ciphertext, nSeq, nUsers int) ([][]*paillier.Ciphertext, error) {
			return unpackS2(ctx, rng, cfg, k, conn, group, nSeq, nUsers)
		},
		blindPermute: func(ctx context.Context, seqs [][]*paillier.Ciphertext, _, nUsers int) (*bpResult, error) {
			return blindPermuteS2(ctx, rng, cfg, k, conn, seqs, nUsers)
		},
		restore: func(ctx context.Context, pi perm.Permutation, pTilde int) (int, error) {
			return restoreS2(ctx, rng, cfg, k, conn, pi, pTilde)
		},
	}
}

// timeStep attributes fn's wall time to step in meter (nil meter OK), opens
// a matching phase span on the ambient tracer (see obs.WithTracer), and
// feeds the per-phase duration histogram. Step labels double as trace phase
// names, so meter and trace report the same per-phase quantities.
func timeStep(ctx context.Context, meter *transport.Meter, step string, fn func() error) error {
	tr := obs.TracerFrom(ctx)
	if tr != nil {
		tr.StartPhase(step)
	}
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	if meter != nil {
		meter.RecordElapsed(step, elapsed)
	}
	if tr != nil {
		tr.EndPhase(step, err)
	}
	phaseSeconds(step).Observe(elapsed.Seconds())
	return err
}

// RunS1 executes S1's role in the Private Consensus Protocol (Alg. 5) for
// one query instance. subs holds every user's ToS1 half (encrypted under
// pk2); nil halves mark dropped users. meter may be nil.
func RunS1(ctx context.Context, rng io.Reader, cfg Config, keys KeysS1,
	conn transport.Conn, subs []SubmissionHalf, meter *transport.Meter) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runSubmissions(ctx, rng, cfg, keys, conn, subs, meter)
}

// RunS1Groups is RunS1 over pre-aggregated ingestion groups (see Group):
// each group contributes one summed half covering all its members. The
// aggregate — and therefore the whole transcript and outcome — is
// byte-identical to running RunS1 with the same users submitting directly.
// cfg is not validated here: the caller validates it once per key load, as
// deploy does, not once per query.
func RunS1Groups(ctx context.Context, rng io.Reader, cfg Config, keys KeysS1,
	raw transport.Conn, groups []Group, meter *transport.Meter) (*Outcome, error) {
	return run(ctx, rng, cfg, keys, raw, groups, meter)
}

// RunS2 executes S2's role in Alg. 5. subs holds every user's ToS2 half
// (encrypted under pk1); nil halves mark dropped users.
func RunS2(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	conn transport.Conn, subs []SubmissionHalf, meter *transport.Meter) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runSubmissions(ctx, rng, cfg, keys, conn, subs, meter)
}

// RunS2WithPools is RunS2.
//
// Deprecated: the DGK pools it once took are gone. The name and its
// always-nil last parameter survive only because the frozen bench/adapter.go
// calls it; both leave with the next benchmark PR.
func RunS2WithPools(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	conn transport.Conn, subs []SubmissionHalf, meter *transport.Meter, _ *struct{}) (*Outcome, error) {
	return RunS2(ctx, rng, cfg, keys, conn, subs, meter)
}

// RunS2Groups is RunS2 over pre-aggregated ingestion groups; see
// RunS1Groups, also for the validation of cfg.
func RunS2Groups(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	raw transport.Conn, groups []Group, meter *transport.Meter) (*Outcome, error) {
	return run(ctx, rng, cfg, keys, raw, groups, meter)
}

// runSubmissions runs one role over a full-length (Users-sized) submission
// slice under a validated cfg.
func runSubmissions(ctx context.Context, rng io.Reader, cfg Config, keys role,
	conn transport.Conn, subs []SubmissionHalf, meter *transport.Meter) (*Outcome, error) {
	if len(subs) != cfg.Users {
		return nil, fmt.Errorf("protocol: got %d submissions, want %d", len(subs), cfg.Users)
	}
	return run(ctx, rng, cfg, keys, conn, GroupSingletons(subs), meter)
}

// run walks Alg. 5 steps 2–9 for one role: secure sum (packed: then the
// blinded unpack), Blind-and-Permute, comparison, threshold check, and on a
// pass the second secure sum, Blind-and-Permute and comparison, and
// Restoration. Both servers run this one schedule, each over its own party.
// cfg has passed Config.Validate at the exported entry or at key load.
func run(ctx context.Context, rng io.Reader, cfg Config, keys role,
	raw transport.Conn, groups []Group, meter *transport.Meter) (*Outcome, error) {
	keys.Precompute() // warm fixed-base tables before the first phase
	// math/rand sources are not safe for concurrent draws.
	rng = &lockedReader{r: rng}
	// The protocol owns metering: callers hand over the raw conn.
	conn := transport.Metered(raw, meter, StepSecureSum1)
	p := keys.party(cfg, rng, conn)
	// step runs one Alg. 5 step under its label: the link's traffic, the
	// meter's time, the trace span and the phase histogram all carry it.
	step := func(name string, fn func() error) error {
		conn.SetStep(name)
		if err := timeStep(ctx, meter, name, fn); err != nil {
			return fmt.Errorf("protocol: %s: %w", name, err)
		}
		return nil
	}

	// Partial participation: aggregate only the present subset. Both
	// servers must mask the same subset (the deploy layer agrees on it via
	// the participant bitmap exchange, whole groups at a time).
	active, participants, adjust, err := groupInputs(cfg, groups)
	if err != nil {
		return nil, err
	}
	nUsers := len(participants)

	// sumAndPermute runs one secure sum (step 2 or 6) over the given
	// submission fields, packed the blinded unpack of its group, and the
	// Blind-and-Permute (step 3 or 7) of the summed sequences.
	sumAndPermute := func(sumStep, unpackStep, bpStep string, fields ...func(SubmissionHalf) []*paillier.Ciphertext) (*bpResult, error) {
		nSeq := len(fields)
		sums := make([][]*paillier.Ciphertext, nSeq)
		err := step(sumStep, func() error {
			for i, field := range fields {
				var err error
				if sums[i], err = aggregate(p.peerPub, active, Workers(), field); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Packed, sums[0] is the joint group and the rest are empty.
		if cfg.Packing {
			if err := step(unpackStep, func() error {
				var err error
				sums, err = p.unpack(ctx, sums[0], nSeq, nUsers)
				return err
			}); err != nil {
				return nil, err
			}
		}
		var bp *bpResult
		err = step(bpStep, func() error {
			var err error
			bp, err = p.blindPermute(ctx, sums, nSeq, nUsers)
			return err
		})
		return bp, err
	}
	// argmax runs one Secure Comparison phase (step 4 or 8) for pi(i*).
	argmax := func(cmpStep string, seq []*big.Int) (int, error) {
		var pos int
		err := step(cmpStep, func() error {
			var err error
			pos, err = argmaxPermuted(ctx, cfg, p.cmp, seq)
			return err
		})
		return pos, err
	}

	// Steps 2-3 run the vote and threshold sequences together.
	bp, err := sumAndPermute(StepSecureSum1, StepUnpack1, StepBlindPerm1,
		func(h SubmissionHalf) []*paillier.Ciphertext { return h.Votes },
		func(h SubmissionHalf) []*paillier.Ciphertext { return h.Thresh })
	if err != nil {
		return nil, err
	}
	votesSeq, threshSeq := bp.Plain[0], bp.Plain[1]
	// Shift the threshold decision from the baked-in 2*O_P to the target
	// 2*H; at full participation delta is zero and nothing changes.
	if adjust.Sign() != 0 {
		signed := new(big.Int).Mul(adjust, big.NewInt(p.deltaSign))
		for _, v := range threshSeq {
			v.Add(v, signed)
		}
		// δ is public under the protocol's threat model (it derives from
		// the agreed participant count, not from any vote), so recording
		// it in the trace does not leak.
		if tr := obs.TracerFrom(ctx); tr != nil {
			tr.RecordEvent(obs.EventDelta, fmt.Sprintf("delta=%s participants=%d", adjust, nUsers))
		}
	}

	// Step 4: Secure Comparison — find pi(i*).
	pStar, err := argmax(StepCompare1, votesSeq)
	if err != nil {
		return nil, err
	}

	// Step 5: Threshold Checking at pi(i*) (optionally at all positions).
	var pass bool
	if err := step(StepThreshold, func() error {
		var err error
		pass, err = thresholdCheck(ctx, cfg, p.cmp, threshSeq, pStar)
		return err
	}); err != nil {
		return nil, err
	}
	if !pass {
		return &Outcome{Consensus: false, Label: -1, Participants: nUsers}, nil
	}

	// Steps 6-7: second secure sum and a fresh Blind-and-Permute on the
	// noisy votes.
	bp2, err := sumAndPermute(StepSecureSum2, StepUnpack2, StepBlindPerm2,
		func(h SubmissionHalf) []*paillier.Ciphertext { return h.Noisy })
	if err != nil {
		return nil, err
	}

	// Step 8: Secure Comparison to find pi'(i~*).
	pTilde, err := argmax(StepCompare2, bp2.Plain[0])
	if err != nil {
		return nil, err
	}

	// Step 9: Restoration maps pi'(i~*) back to the label.
	var label int
	if err := step(StepRestoration, func() error {
		var err error
		label, err = p.restore(ctx, bp2.Pi, pTilde)
		return err
	}); err != nil {
		return nil, err
	}
	return &Outcome{Consensus: true, Label: label, Participants: nUsers}, nil
}

// RunPair runs one Alg. 5 execution with both servers in this process over
// transport.Pair: S1 with rng1, meter (may be nil) and ctx's ambient tracer;
// S2 with rng2 and neither, since one query's spans must come from one
// sequential run. subs holds every user's submission; a nil entry marks an
// absent user. It returns the outcome both servers reached, an error naming
// the side that failed first, or one saying they disagree.
func RunPair(ctx context.Context, cfg Config, keys1 KeysS1, keys2 KeysS2, rng1, rng2 io.Reader,
	subs []*Submission, meter *transport.Meter) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c1, c2 := transport.Pair()
	return runPair(ctx, cfg, keys1, keys2, rng1, rng2, subs, meter, c1, c2)
}

// runPair is RunPair over the two ends of a caller-built link, under a
// validated cfg.
func runPair(ctx context.Context, cfg Config, keys1 KeysS1, keys2 KeysS2, rng1, rng2 io.Reader,
	subs []*Submission, meter *transport.Meter, c1, c2 transport.Conn) (*Outcome, error) {
	defer c1.Close()
	defer c2.Close()
	h1 := make([]SubmissionHalf, len(subs))
	h2 := make([]SubmissionHalf, len(subs))
	for u, s := range subs {
		if s != nil {
			h1[u], h2[u] = s.ToS1, s.ToS2
		}
	}
	var outs [2]*Outcome
	errs := make(chan error, len(outs))
	side := func(i int, run func() (*Outcome, error)) {
		out, err := run()
		if err != nil {
			err = fmt.Errorf("protocol: S%d: %w", i+1, err)
		}
		outs[i] = out
		errs <- err
	}
	go side(0, func() (*Outcome, error) { return runSubmissions(ctx, rng1, cfg, keys1, c1, h1, meter) })
	go side(1, func() (*Outcome, error) {
		return runSubmissions(obs.WithTracer(ctx, nil), rng2, cfg, keys2, c2, h2, nil)
	})
	var first error
	for range outs {
		if err := <-errs; err != nil {
			first = cmp.Or(first, err)
			c1.Close() // unblock the other side
			c2.Close()
		}
	}
	if first != nil {
		return nil, first
	}
	if *outs[0] != *outs[1] {
		return nil, fmt.Errorf("protocol: servers disagree: %+v vs %+v", *outs[0], *outs[1])
	}
	return outs[0], nil
}

// groupInputs resolves the ingestion groups of one query instance into the
// dense half slice to aggregate, the sorted participant indices, and the
// threshold adjustment delta for that participant set. Groups must be
// non-empty, disjoint, in range, and carry halves of the configured shape.
func groupInputs(cfg Config, groups []Group) ([]SubmissionHalf, []int, *big.Int, error) {
	if len(groups) == 0 {
		return nil, nil, nil, fmt.Errorf("protocol: no participating submissions")
	}
	seen := make(map[int]bool)
	participants := make([]int, 0, len(groups))
	active := make([]SubmissionHalf, 0, len(groups))
	want := cfg.HalfLens()
	for gi, g := range groups {
		if len(g.Members) == 0 {
			return nil, nil, nil, fmt.Errorf("protocol: group %d has no members", gi)
		}
		for _, u := range g.Members {
			if u < 0 || u >= cfg.Users {
				return nil, nil, nil, fmt.Errorf("protocol: group %d member %d outside [0, %d)", gi, u, cfg.Users)
			}
			if seen[u] {
				return nil, nil, nil, fmt.Errorf("protocol: user %d appears in more than one group", u)
			}
			seen[u] = true
			participants = append(participants, u)
		}
		if g.Half.Lens() != want {
			return nil, nil, nil, fmt.Errorf("protocol: group %d submission half is incomplete", gi)
		}
		active = append(active, g.Half)
	}
	sort.Ints(participants)
	adjust, err := cfg.thresholdAdjustment(participants)
	if err != nil {
		return nil, nil, nil, err
	}
	return active, participants, adjust, nil
}

// aggregate homomorphically sums one field of every user's submission
// half. With par > 1 the users are split into chunks summed concurrently
// and the chunk partials folded in order; Paillier addition is ciphertext
// multiplication mod N^2 — associative and commutative — so every grouping
// yields the identical ciphertext vector.
func aggregate(pk *paillier.PublicKey, subs []SubmissionHalf, par int, field func(SubmissionHalf) []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	k := len(field(subs[0]))
	for u := 1; u < len(subs); u++ {
		if n := len(field(subs[u])); n != k {
			return nil, fmt.Errorf("protocol: user %d vector length %d != %d", u, n, k)
		}
	}
	if k == 0 {
		return nil, nil // packed halves carry no separate Thresh vector
	}
	// sum folds vectors lo … hi−1 (users, or chunk partials) position by
	// position, one paillier.Sum per position and one scratch for them all.
	sum := func(what string, lo, hi int, vec func(int) []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
		sums, scratch := pk.NewSums(k), pk.SumScratch()
		for j := lo; j < hi; j++ {
			for i, c := range vec(j) {
				if err := sums[i].Add(c, scratch); err != nil {
					return nil, fmt.Errorf("protocol: aggregate %s %d class %d: %w", what, j, i, err)
				}
			}
		}
		out := make([]*paillier.Ciphertext, k)
		for i := range sums {
			out[i] = sums[i].Ciphertext(scratch)
		}
		return out, nil
	}
	user := func(u int) []*paillier.Ciphertext { return field(subs[u]) }
	if par <= 1 || len(subs) < 4 {
		return sum("user", 0, len(subs), user)
	}

	chunkSize := (len(subs) + par - 1) / par
	bounds := make([][2]int, 0, par)
	for lo := 0; lo < len(subs); lo += chunkSize {
		bounds = append(bounds, [2]int{lo, min(lo+chunkSize, len(subs))})
	}
	partials := make([][]*paillier.Ciphertext, len(bounds))
	err := mathutil.ParallelFor(par, len(bounds), func(_, ci int) (err error) {
		partials[ci], err = sum("user", bounds[ci][0], bounds[ci][1], user)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sum("partial", 0, len(partials), func(j int) []*paillier.Ciphertext { return partials[j] })
}

// argmaxPermuted finds the permuted position of the maximum. Both parties
// derive the same result. The tournament runs the bracket of tournament.go
// with one batched exchange per level; the all-pairs reference runs the
// paper's Eq. 7 schedule, one exchange per pair, in order on the same conn.
//
// In either schedule, for the pair (p, q), p < q, S1 supplies seq[p] -
// seq[q] and S2 supplies its seq[q] - seq[p]; the comparison bit is (c_p'
// >= c_q') because the common scalar bias cancels in each party's
// difference.
func argmaxPermuted(ctx context.Context, cfg Config, cmp comparer, seq []*big.Int) (int, error) {
	if cfg.tournament() {
		return tournamentArgmax(ctx, cfg, cmp, seq)
	}
	var pairs [][2]int
	var diffs []*big.Int
	for p := 0; p < cfg.Classes; p++ {
		for q := p + 1; q < cfg.Classes; q++ {
			pairs = append(pairs, [2]int{p, q})
			diffs = append(diffs, cmp.diff(seq, p, q))
		}
	}
	geqs, err := cmp.each(ctx, diffs, func(i int) string {
		return fmt.Sprintf("compare pair (%d,%d)", pairs[i][0], pairs[i][1])
	})
	if err != nil {
		return -1, err
	}
	strategyComparisons(cfg).Add(int64(len(pairs)))
	wins := newWinsMatrix(cfg.Classes)
	for i, pq := range pairs {
		wins.set(pq[0], pq[1], geqs[i])
	}
	return wins.winner()
}

// diff is this party's input to the comparison of positions p < q: S1
// supplies seq[p] - seq[q], S2 (the DGK "B" party) the mirrored seq[q] -
// seq[p], so one >= bit answers both parties.
func (c comparer) diff(seq []*big.Int, p, q int) *big.Int {
	if c.negate {
		return new(big.Int).Sub(seq[q], seq[p])
	}
	return new(big.Int).Sub(seq[p], seq[q])
}

// each runs one exchange per diff, in order, and returns the per-diff >=
// bits: the wire of the all-pairs reference schedule. tag names diff i in
// errors.
func (c comparer) each(ctx context.Context, diffs []*big.Int, tag func(i int) string) ([]bool, error) {
	out := make([]bool, len(diffs))
	for i, d := range diffs {
		geq, err := c.one(ctx, d)
		cmpJobsTotal.Inc()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tag(i), err)
		}
		out[i] = geq
	}
	return out, nil
}

// winsMatrix records pairwise >= outcomes; ties are awarded to the lower
// permuted position so both servers resolve them identically.
type winsMatrix struct {
	k    int
	beat [][]bool
}

func newWinsMatrix(k int) *winsMatrix {
	m := &winsMatrix{k: k, beat: make([][]bool, k)}
	for i := range m.beat {
		m.beat[i] = make([]bool, k)
	}
	return m
}

// set records the outcome of the (p, q) comparison (p < q): geq means
// value_p >= value_q.
func (m *winsMatrix) set(p, q int, geq bool) {
	m.beat[p][q] = geq
	m.beat[q][p] = !geq
}

// winner returns the position that beats every other position.
func (m *winsMatrix) winner() (int, error) {
	for p := 0; p < m.k; p++ {
		all := true
		for q := 0; q < m.k; q++ {
			if q != p && !m.beat[p][q] {
				all = false
				break
			}
		}
		if all {
			return p, nil
		}
	}
	// Unreachable for outcomes derived from a total preorder.
	return -1, fmt.Errorf("protocol: comparison outcomes are inconsistent (no total winner)")
}

// thresholdCheck runs the Alg. 5 step 5 DGK check: at each checked position
// p the parties compare S1's threshSeq[p] against S2's, which decides
// c_p + 2*z1_p >= T since the shared bias r' cancels. Only the bit at pStar
// matters; with ThresholdAllPositions every position is checked so traffic
// does not depend on pStar. The whole check is one batched exchange; the
// all-pairs reference keeps one exchange per position.
func thresholdCheck(ctx context.Context, cfg Config, cmp comparer, threshSeq []*big.Int, pStar int) (bool, error) {
	positions := checkPositions(cfg, pStar)
	diffs := make([]*big.Int, len(positions))
	for i, p := range positions {
		diffs[i] = threshSeq[p]
	}
	var geqs []bool
	var err error
	if cfg.tournament() {
		geqs, err = cmp.batch(ctx, diffs)
		cmpJobsTotal.Add(int64(len(diffs)))
	} else {
		geqs, err = cmp.each(ctx, diffs, func(i int) string { return fmt.Sprintf("threshold position %d", positions[i]) })
	}
	if err != nil {
		return false, err
	}
	strategyComparisons(cfg).Add(int64(len(diffs)))
	return thresholdPass(positions, geqs, pStar), nil
}

// thresholdPass extracts the deciding bit: only the comparison at pStar
// matters, the rest exist to keep traffic independent of pStar.
func thresholdPass(positions []int, geqs []bool, pStar int) bool {
	for i, p := range positions {
		if p == pStar {
			return geqs[i]
		}
	}
	return false
}

// checkPositions returns the permuted positions to threshold-check.
func checkPositions(cfg Config, pStar int) []int {
	if !cfg.ThresholdAllPositions {
		return []int{pStar}
	}
	out := make([]int, cfg.Classes)
	for i := range out {
		out[i] = i
	}
	return out
}
