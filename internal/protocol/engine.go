package protocol

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sort"
	"time"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
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
// run's conn, rng and worker bound: the batched exchange the tournament and
// the threshold check use, and the single exchange of the all-pairs
// reference schedule. It is the one seam a different selection primitive
// would replace.
type comparer struct {
	// negate marks the DGK "B" party (S2), which supplies the mirrored
	// difference so one >= bit answers both parties.
	negate bool
	one    func(ctx context.Context, diff *big.Int) (bool, error)
	batch  func(ctx context.Context, diffs []*big.Int) ([]bool, error)
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
	if len(subs) != cfg.Users {
		return nil, fmt.Errorf("protocol: got %d submissions, want %d", len(subs), cfg.Users)
	}
	return RunS1Groups(ctx, rng, cfg, keys, conn, GroupSingletons(subs), meter)
}

// RunS1Groups is RunS1 over pre-aggregated ingestion groups (see Group):
// each group contributes one summed half covering all its members. The
// aggregate — and therefore the whole transcript and outcome — is
// byte-identical to running RunS1 with the same users submitting directly.
func RunS1Groups(ctx context.Context, rng io.Reader, cfg Config, keys KeysS1,
	raw transport.Conn, groups []Group, meter *transport.Meter) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	keys.Precompute() // warm fixed-base tables before the first phase
	par := cfg.parallelism()
	if par > 1 {
		// math/rand sources are not safe for concurrent draws.
		rng = &lockedReader{r: rng}
	}
	// The protocol owns metering: callers hand over the raw conn.
	conn := transport.Metered(raw, meter, StepSecureSum1)
	cmp := comparer{
		one: func(ctx context.Context, d *big.Int) (bool, error) {
			return keys.DGKPub.CompareSignedA(ctx, rng, conn, d)
		},
		batch: func(ctx context.Context, ds []*big.Int) ([]bool, error) {
			return keys.DGKPub.CompareSignedBatchA(ctx, rng, conn, ds, par)
		},
	}

	// Partial participation: aggregate only the present subset. Both
	// servers must mask the same subset (the deploy layer agrees on it via
	// the participant bitmap exchange, whole groups at a time).
	active, participants, adjust, err := groupInputs(cfg, groups)
	if err != nil {
		return nil, err
	}

	// Step 2: Secure Sum — aggregate user shares homomorphically.
	var aggVotes, aggThresh, aggNoisy []*paillier.Ciphertext
	err = timeStep(ctx, meter, StepSecureSum1, func() error {
		var err error
		aggVotes, err = aggregate(keys.PeerPub, active, par, func(h SubmissionHalf) []*paillier.Ciphertext { return h.Votes })
		if err != nil {
			return err
		}
		aggThresh, err = aggregate(keys.PeerPub, active, par, func(h SubmissionHalf) []*paillier.Ciphertext { return h.Thresh })
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S1 secure sum: %w", err)
	}

	// Packed mode: one blinded interactive unpack turns S2's packed group
	// into the per-class ciphertexts Alg. 2 step 4 permutes. S1's stays
	// packed; Blind-and-Permute step 1 masks it as it is.
	if cfg.Packing {
		conn.SetStep(StepUnpack1)
		err = timeStep(ctx, meter, StepUnpack1, func() error {
			return unpackS1(ctx, rng, cfg, keys, conn, 2)
		})
		if err != nil {
			return nil, fmt.Errorf("protocol: S1 packed unpack: %w", err)
		}
	}

	// Step 3: Blind-and-Permute the vote and threshold sequences together.
	conn.SetStep(StepBlindPerm1)
	var bp *bpResultS1
	err = timeStep(ctx, meter, StepBlindPerm1, func() error {
		var err error
		// Packed, aggVotes already is the joint group and aggThresh empty.
		bp, err = blindPermuteS1(ctx, rng, cfg, keys, conn, append(aggVotes, aggThresh...), 2)
		return err
	})
	if err != nil {
		return nil, err
	}
	votesSeq, threshSeq := bp.Plain[0], bp.Plain[1]
	// Shift the threshold decision from the baked-in 2*O_P to the target
	// 2*H (see thresholdAdjustment): S1 subtracts delta at every position,
	// S2 adds it, so the comparison bias stays position-independent. At
	// full participation delta is zero and nothing changes.
	if adjust.Sign() != 0 {
		for _, v := range threshSeq {
			v.Sub(v, adjust)
		}
		// δ is public under the protocol's threat model (it derives from
		// the agreed participant count, not from any vote), so recording
		// it in the trace does not leak.
		if tr := obs.TracerFrom(ctx); tr != nil {
			tr.RecordEvent(obs.EventDelta, fmt.Sprintf("delta=%s participants=%d", adjust, len(participants)))
		}
	}

	// Step 4: Secure Comparison — find pi(i*).
	conn.SetStep(StepCompare1)
	var pStar int
	err = timeStep(ctx, meter, StepCompare1, func() error {
		var err error
		pStar, err = argmaxPermuted(ctx, cfg, cmp, votesSeq)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S1 comparison phase 1: %w", err)
	}

	// Step 5: Threshold Checking at pi(i*) (optionally at all positions).
	conn.SetStep(StepThreshold)
	var pass bool
	err = timeStep(ctx, meter, StepThreshold, func() error {
		var err error
		pass, err = thresholdCheck(ctx, cfg, cmp, threshSeq, pStar)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S1 threshold check: %w", err)
	}
	if !pass {
		return &Outcome{Consensus: false, Label: -1, Participants: len(participants)}, nil
	}

	// Step 6: second Secure Sum (noisy shares).
	err = timeStep(ctx, meter, StepSecureSum2, func() error {
		var err error
		aggNoisy, err = aggregate(keys.PeerPub, active, par, func(h SubmissionHalf) []*paillier.Ciphertext { return h.Noisy })
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S1 secure sum 2: %w", err)
	}

	if cfg.Packing {
		conn.SetStep(StepUnpack2)
		err = timeStep(ctx, meter, StepUnpack2, func() error {
			return unpackS1(ctx, rng, cfg, keys, conn, 1)
		})
		if err != nil {
			return nil, fmt.Errorf("protocol: S1 packed unpack 2: %w", err)
		}
	}

	// Step 7: fresh Blind-and-Permute on the noisy votes.
	conn.SetStep(StepBlindPerm2)
	var bp2 *bpResultS1
	err = timeStep(ctx, meter, StepBlindPerm2, func() error {
		var err error
		bp2, err = blindPermuteS1(ctx, rng, cfg, keys, conn, aggNoisy, 1)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Step 8: Secure Comparison to find pi'(i~*).
	conn.SetStep(StepCompare2)
	var pTilde int
	err = timeStep(ctx, meter, StepCompare2, func() error {
		var err error
		pTilde, err = argmaxPermuted(ctx, cfg, cmp, bp2.Plain[0])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S1 comparison phase 2: %w", err)
	}
	_ = pTilde // S1's share of the knowledge is pi1'; restoration reveals the label.

	// Step 9: Restoration.
	conn.SetStep(StepRestoration)
	var label int
	err = timeStep(ctx, meter, StepRestoration, func() error {
		var err error
		label, err = restoreS1(ctx, rng, cfg, keys, conn, bp2.Pi1)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Consensus: true, Label: label, Participants: len(participants)}, nil
}

// RunS2 executes S2's role in Alg. 5. subs holds every user's ToS2 half
// (encrypted under pk1); nil halves mark dropped users.
func RunS2(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	conn transport.Conn, subs []SubmissionHalf, meter *transport.Meter) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(subs) != cfg.Users {
		return nil, fmt.Errorf("protocol: got %d submissions, want %d", len(subs), cfg.Users)
	}
	return RunS2Groups(ctx, rng, cfg, keys, conn, GroupSingletons(subs), meter)
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
// RunS1Groups.
func RunS2Groups(ctx context.Context, rng io.Reader, cfg Config, keys KeysS2,
	raw transport.Conn, groups []Group, meter *transport.Meter) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	keys.Precompute() // warm fixed-base tables before the first phase
	par := cfg.parallelism()
	if par > 1 {
		rng = &lockedReader{r: rng}
	}
	conn := transport.Metered(raw, meter, StepSecureSum1)
	cmp := comparer{
		negate: true,
		one: func(ctx context.Context, d *big.Int) (bool, error) {
			return keys.DGK.CompareSignedB(ctx, rng, conn, d)
		},
		batch: func(ctx context.Context, ds []*big.Int) ([]bool, error) {
			return keys.DGK.CompareSignedBatchB(ctx, rng, conn, ds, par)
		},
	}

	// Partial participation: mirror RunS1Groups' subset masking exactly.
	active, participants, adjust, err := groupInputs(cfg, groups)
	if err != nil {
		return nil, err
	}

	var aggVotes, aggThresh, aggNoisy []*paillier.Ciphertext
	err = timeStep(ctx, meter, StepSecureSum1, func() error {
		var err error
		aggVotes, err = aggregate(keys.PeerPub, active, par, func(h SubmissionHalf) []*paillier.Ciphertext { return h.Votes })
		if err != nil {
			return err
		}
		aggThresh, err = aggregate(keys.PeerPub, active, par, func(h SubmissionHalf) []*paillier.Ciphertext { return h.Thresh })
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S2 secure sum: %w", err)
	}

	if cfg.Packing {
		conn.SetStep(StepUnpack1)
		err = timeStep(ctx, meter, StepUnpack1, func() error {
			out, uerr := unpackS2(ctx, rng, cfg, keys, conn, aggVotes, 2, len(participants))
			if uerr != nil {
				return uerr
			}
			aggVotes, aggThresh = out[0], out[1]
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("protocol: S2 packed unpack: %w", err)
		}
	}

	conn.SetStep(StepBlindPerm1)
	var bp *bpResultS2
	err = timeStep(ctx, meter, StepBlindPerm1, func() error {
		var err error
		bp, err = blindPermuteS2(ctx, rng, cfg, keys, conn, [][]*paillier.Ciphertext{aggVotes, aggThresh}, len(participants))
		return err
	})
	if err != nil {
		return nil, err
	}
	votesSeq, threshSeq := bp.Plain[0], bp.Plain[1]
	// S2 adds the same delta S1 subtracts; see the RunS1 comment.
	if adjust.Sign() != 0 {
		for _, v := range threshSeq {
			v.Add(v, adjust)
		}
		if tr := obs.TracerFrom(ctx); tr != nil {
			tr.RecordEvent(obs.EventDelta, fmt.Sprintf("delta=%s participants=%d", adjust, len(participants)))
		}
	}

	conn.SetStep(StepCompare1)
	var pStar int
	err = timeStep(ctx, meter, StepCompare1, func() error {
		var err error
		pStar, err = argmaxPermuted(ctx, cfg, cmp, votesSeq)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S2 comparison phase 1: %w", err)
	}

	conn.SetStep(StepThreshold)
	var pass bool
	err = timeStep(ctx, meter, StepThreshold, func() error {
		var err error
		pass, err = thresholdCheck(ctx, cfg, cmp, threshSeq, pStar)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S2 threshold check: %w", err)
	}
	if !pass {
		return &Outcome{Consensus: false, Label: -1, Participants: len(participants)}, nil
	}

	err = timeStep(ctx, meter, StepSecureSum2, func() error {
		var err error
		aggNoisy, err = aggregate(keys.PeerPub, active, par, func(h SubmissionHalf) []*paillier.Ciphertext { return h.Noisy })
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S2 secure sum 2: %w", err)
	}

	if cfg.Packing {
		conn.SetStep(StepUnpack2)
		err = timeStep(ctx, meter, StepUnpack2, func() error {
			out, uerr := unpackS2(ctx, rng, cfg, keys, conn, aggNoisy, 1, len(participants))
			if uerr != nil {
				return uerr
			}
			aggNoisy = out[0]
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("protocol: S2 packed unpack 2: %w", err)
		}
	}

	conn.SetStep(StepBlindPerm2)
	var bp2 *bpResultS2
	err = timeStep(ctx, meter, StepBlindPerm2, func() error {
		var err error
		bp2, err = blindPermuteS2(ctx, rng, cfg, keys, conn, [][]*paillier.Ciphertext{aggNoisy}, len(participants))
		return err
	})
	if err != nil {
		return nil, err
	}

	conn.SetStep(StepCompare2)
	var pTilde int
	err = timeStep(ctx, meter, StepCompare2, func() error {
		var err error
		pTilde, err = argmaxPermuted(ctx, cfg, cmp, bp2.Plain[0])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: S2 comparison phase 2: %w", err)
	}

	conn.SetStep(StepRestoration)
	var label int
	err = timeStep(ctx, meter, StepRestoration, func() error {
		var err error
		label, err = restoreS2(ctx, rng, cfg, keys, conn, bp2.Pi2, pTilde)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Consensus: true, Label: label, Participants: len(participants)}, nil
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
// and the chunk partials combined in a tree; Paillier addition is
// ciphertext multiplication mod N^2 — associative and commutative — so
// every grouping yields the identical ciphertext vector.
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
	// sumRange folds users [lo, hi) into a fresh ciphertext vector,
	// accumulating in place with one scratch big.Int per chunk so the hot
	// loop does not allocate a fresh product per addition.
	sumRange := func(lo, hi int) ([]*paillier.Ciphertext, error) {
		acc := make([]*paillier.Ciphertext, k)
		for i, c := range field(subs[lo]) {
			acc[i] = c.Clone()
		}
		scratch := new(big.Int)
		for u := lo + 1; u < hi; u++ {
			for i, c := range field(subs[u]) {
				if err := pk.AddInto(acc[i], c, scratch); err != nil {
					return nil, fmt.Errorf("protocol: aggregate user %d class %d: %w", u, i, err)
				}
			}
		}
		return acc, nil
	}
	if par <= 1 || len(subs) < 4 {
		return sumRange(0, len(subs))
	}

	chunkSize := (len(subs) + par - 1) / par
	bounds := make([][2]int, 0, par)
	for lo := 0; lo < len(subs); lo += chunkSize {
		bounds = append(bounds, [2]int{lo, min(lo+chunkSize, len(subs))})
	}
	partials := make([][]*paillier.Ciphertext, len(bounds))
	err := mathutil.ParallelFor(par, len(bounds), func(ci int) error {
		acc, err := sumRange(bounds[ci][0], bounds[ci][1])
		if err != nil {
			return err
		}
		partials[ci] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Tree-combine the chunk partials pairwise.
	for len(partials) > 1 {
		half := (len(partials) + 1) / 2
		next := make([][]*paillier.Ciphertext, half)
		err := mathutil.ParallelFor(par, half, func(j int) error {
			a := partials[2*j]
			if 2*j+1 == len(partials) {
				next[j] = a
				return nil
			}
			b := partials[2*j+1]
			scratch := new(big.Int)
			for i := range a {
				if err := pk.AddInto(a[i], b[i], scratch); err != nil {
					return fmt.Errorf("protocol: aggregate combine class %d: %w", i, err)
				}
			}
			next[j] = a
			return nil
		})
		if err != nil {
			return nil, err
		}
		partials = next
	}
	return partials[0], nil
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
	jobs := argmaxJobs(cfg, seq, cmp.negate)
	geqs, err := cmp.each(ctx, jobs)
	if err != nil {
		return -1, err
	}
	strategyComparisons(cfg).Add(int64(len(jobs)))
	return argmaxWinner(cfg, geqs)
}

// cmpJob is one secure comparison of the reference schedule.
type cmpJob struct {
	// tag labels the comparison in errors, e.g. "compare pair (2,5)".
	tag string
	// diff is this party's comparison input.
	diff *big.Int
}

// each runs jobs one exchange at a time, in job order, and returns the
// per-job >= bits: the wire of the all-pairs reference schedule.
func (c comparer) each(ctx context.Context, jobs []cmpJob) ([]bool, error) {
	out := make([]bool, len(jobs))
	for i, job := range jobs {
		geq, err := c.one(ctx, job.diff)
		cmpJobsTotal.Inc()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", job.tag, err)
		}
		out[i] = geq
	}
	return out, nil
}

// argmaxJobs builds the all-pairs comparison jobs in the (p, q), p < q,
// row-major order both servers share. S2 (the DGK "B" party) negates the
// differences so one >= bit answers both parties.
func argmaxJobs(cfg Config, seq []*big.Int, negate bool) []cmpJob {
	k := cfg.Classes
	jobs := make([]cmpJob, 0, k*(k-1)/2)
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			d := new(big.Int)
			if negate {
				d.Sub(seq[q], seq[p])
			} else {
				d.Sub(seq[p], seq[q])
			}
			jobs = append(jobs, cmpJob{tag: fmt.Sprintf("compare pair (%d,%d)", p, q), diff: d})
		}
	}
	return jobs
}

// argmaxWinner folds the per-pair >= bits (in argmaxJobs order) into the
// winning permuted position.
func argmaxWinner(cfg Config, geqs []bool) (int, error) {
	k := cfg.Classes
	wins := newWinsMatrix(k)
	i := 0
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			wins.set(p, q, geqs[i])
			i++
		}
	}
	return wins.winner()
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
	jobs := thresholdJobs(positions, threshSeq)
	var geqs []bool
	var err error
	if cfg.tournament() {
		geqs, err = cmp.batch(ctx, jobDiffs(jobs))
		cmpJobsTotal.Add(int64(len(jobs)))
	} else {
		geqs, err = cmp.each(ctx, jobs)
	}
	if err != nil {
		return false, err
	}
	strategyComparisons(cfg).Add(int64(len(jobs)))
	return thresholdPass(positions, geqs, pStar), nil
}

// jobDiffs projects a job list onto its comparison inputs for the batched
// exchanges.
func jobDiffs(jobs []cmpJob) []*big.Int {
	diffs := make([]*big.Int, len(jobs))
	for i, j := range jobs {
		diffs[i] = j.diff
	}
	return diffs
}

// thresholdJobs builds one comparison job per checked permuted position.
func thresholdJobs(positions []int, threshSeq []*big.Int) []cmpJob {
	jobs := make([]cmpJob, len(positions))
	for i, p := range positions {
		jobs[i] = cmpJob{tag: fmt.Sprintf("threshold position %d", p), diff: threshSeq[p]}
	}
	return jobs
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
