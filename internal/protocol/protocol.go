// Package protocol implements the paper's primary contribution: the Private
// Consensus Protocol (Alg. 5) together with its Blind-and-Permute (Alg. 2)
// and Restoration (Alg. 3) sub-protocols, run between two non-colluding
// servers S1 and S2 over a transport.Conn.
//
// Value representation: every vote, mask and noise term is an integer in
// fixed-point "vote units" with VoteScale units per vote, so one-hot and
// softmax (probabilistic) predictions flow through the same pipeline and the
// homomorphic arithmetic is exact.
package protocol

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sync"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/secshare"
)

// VoteScale is the number of integer units per vote (2^16 fractional bits,
// matching the paper's fixed-point precision, Eq. 8).
const VoteScale = 1 << 16

// Step labels used for metering, matching Alg. 5's step numbers and the
// rows of Tables I and II.
const (
	StepSecureSum1  = "secure-sum(2)"
	StepUnpack1     = "packed-unpack(2)"
	StepBlindPerm1  = "blind-and-permute(3)"
	StepCompare1    = "secure-comparison(4)"
	StepThreshold   = "threshold-checking(5)"
	StepSecureSum2  = "secure-sum(6)"
	StepUnpack2     = "packed-unpack(6)"
	StepBlindPerm2  = "blind-and-permute(7)"
	StepCompare2    = "secure-comparison(8)"
	StepRestoration = "restoration(9)"
)

// Argmax strategy names for Config.ArgmaxStrategy.
const (
	// StrategyTournament runs the secure-comparison phases as a blinded
	// single-elimination bracket: C-1 comparisons in ceil(log2(C)) levels,
	// each level's comparisons batched into one frame per round trip.
	StrategyTournament = "tournament"
	// StrategyAllPairs runs the paper's all-pairs Eq. 7 schedule —
	// C(C-1)/2 comparisons, one wire exchange each, in order. It is the
	// reference Tables I-II were measured with and the tournament parity
	// tests compare against; the deploy layer refuses it.
	StrategyAllPairs = "allpairs"
)

// Errors returned by the package.
var (
	ErrBadConfig    = errors.New("protocol: invalid configuration")
	ErrVoteRange    = errors.New("protocol: vote outside [0, VoteScale]")
	ErrPeerMismatch = errors.New("protocol: peers disagree on protocol state")
	// ErrQuorumNotMet reports that a query released with fewer participants
	// than the configured quorum and was not run. It is terminal for the
	// instance: retrying cannot conjure the missing submissions.
	ErrQuorumNotMet = errors.New("protocol: quorum not met")
)

// Config parameterizes one run of the private consensus protocol.
type Config struct {
	// Classes is K, the number of labels.
	Classes int
	// Users is |U|.
	Users int
	// ThresholdFrac is the consensus threshold T as a fraction of the
	// total users (the paper defaults to 0.6).
	ThresholdFrac float64
	// Sigma1 is the SVT noise deviation in votes.
	Sigma1 float64
	// Sigma2 is the Report Noisy Maximum deviation in votes.
	Sigma2 float64
	// Kappa is the statistical share-masking bit length.
	Kappa int
	// PaillierBits is the Paillier modulus size (the paper uses 64).
	PaillierBits int
	// DGK parameterizes the comparison cryptosystem.
	DGK dgk.Params
	// ThresholdAllPositions runs the DGK threshold check at every
	// permuted position rather than only at pi(i*). This matches the
	// traffic ratios of the paper's Table II and avoids revealing
	// timing-wise which position was checked.
	ThresholdAllPositions bool
	// ArgmaxStrategy selects the secure-comparison schedule:
	// StrategyTournament (the default when empty) or the StrategyAllPairs
	// reference, for tests and the experiments CLI. The wire formats differ,
	// so both parties of a run must use the same one; the deploy layer runs
	// only the tournament. The released label is identical under either,
	// including on ties: both resolve them to the lowest permuted position.
	ArgmaxStrategy string
	// Packing slot-packs the submission sequences that share a
	// Blind-and-Permute invocation into one slot stream — Votes‖Thresh
	// (2K slots) and Noisy (K slots) — of ⌈slots/S⌉ Paillier plaintexts
	// each (slot width derived from Users, Kappa and VoteScale so
	// worst-case sums cannot overflow a slot), so a user uploads ~2
	// ciphertexts per half instead of 3K and relays and servers
	// aggregate packed. Aggregation then ends with one blinded
	// interactive unpack round per secure-sum phase. Both
	// servers must agree (the peer hello enforces it); off, the
	// wire format is byte-for-byte identical to unpacked deployments.
	// Requires PaillierBits large enough for at least one slot per
	// plaintext — Validate rejects infeasible combinations (the paper's
	// 64-bit toy keys cannot pack).
	Packing bool
}

// DefaultConfig mirrors the paper's experimental setup: 10 classes,
// threshold 60%, 64-bit Paillier keys.
func DefaultConfig(users int) Config {
	return Config{
		Classes:               10,
		Users:                 users,
		ThresholdFrac:         0.6,
		Sigma1:                4,
		Sigma2:                2,
		Kappa:                 40,
		ThresholdAllPositions: true,
	}.KeyShape(64, 192)
}

// KeyShape returns c with its keys sized: paillierBits-bit Paillier moduli,
// a dgkBits-bit DGK modulus with the DGK parameters every size shares, and
// slot packing on iff at least two slots fit one plaintext (a packed half
// then costs fewer ciphertexts than the unpacked 3K). Packing depends on
// Users and Classes, so set those first. cmd/keygen and the library engine
// size their keys here, so every key file agrees on the shape.
func (c Config) KeyShape(paillierBits, dgkBits int) Config {
	c.PaillierBits = paillierBits
	c.DGK = dgk.Params{NBits: dgkBits, TBits: 40, U: 1009, L: 56}
	c.Packing = c.PackedSlotsPerPlaintext() >= 2
	return c
}

// Validate checks the configuration, including that all protocol
// intermediate values fit within the DGK comparison bit length.
func (c Config) Validate() error {
	if c.Classes < 2 {
		return fmt.Errorf("%w: need at least 2 classes, got %d", ErrBadConfig, c.Classes)
	}
	if c.Users < 1 {
		return fmt.Errorf("%w: need at least 1 user, got %d", ErrBadConfig, c.Users)
	}
	if !(c.ThresholdFrac >= 0 && c.ThresholdFrac <= 1) {
		return fmt.Errorf("%w: threshold fraction %g outside [0, 1]", ErrBadConfig, c.ThresholdFrac)
	}
	for _, sigma := range []float64{c.Sigma1, c.Sigma2} {
		if !(sigma >= 0) || math.IsInf(sigma, 1) {
			return fmt.Errorf("%w: sigma %g is not finite and non-negative", ErrBadConfig, sigma)
		}
	}
	if c.Kappa < 8 {
		return fmt.Errorf("%w: kappa %d too small (min 8)", ErrBadConfig, c.Kappa)
	}
	if c.PaillierBits < 16 {
		return fmt.Errorf("%w: Paillier key %d bits too small", ErrBadConfig, c.PaillierBits)
	}
	if err := c.DGK.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	// Bound the largest signed value the DGK comparison ever sees:
	// differences of two masked aggregated sequences plus noise.
	bound := c.valueBound()
	if bound.BitLen() >= c.DGK.L-1 {
		return fmt.Errorf("%w: values up to %d bits exceed DGK bit length %d",
			ErrBadConfig, bound.BitLen(), c.DGK.L)
	}
	// The Paillier plaintext ring must hold the same signed values.
	if bound.BitLen() >= c.PaillierBits-2 {
		return fmt.Errorf("%w: values up to %d bits exceed Paillier plaintext space (%d-bit modulus)",
			ErrBadConfig, bound.BitLen(), c.PaillierBits)
	}
	if c.Packing && c.PackedSlotsPerPlaintext() < 1 {
		return fmt.Errorf("%w: packed slot width %d bits does not fit %d-bit Paillier plaintexts; use a larger key",
			ErrBadConfig, c.PackedWidth(), c.PaillierBits)
	}
	switch c.ArgmaxStrategy {
	case "", StrategyTournament, StrategyAllPairs:
	default:
		return fmt.Errorf("%w: unknown argmax strategy %q", ErrBadConfig, c.ArgmaxStrategy)
	}
	return nil
}

// ResolvedArgmaxStrategy resolves the configured strategy ("" defaults to
// the tournament schedule).
func (c Config) ResolvedArgmaxStrategy() string {
	if c.ArgmaxStrategy == "" {
		return StrategyTournament
	}
	return c.ArgmaxStrategy
}

// tournament reports whether the tournament argmax schedule is in effect.
func (c Config) tournament() bool { return c.ResolvedArgmaxStrategy() == StrategyTournament }

// valueBound returns an upper bound on |v| for any value v entering a DGK
// comparison: masked aggregated share differences plus aggregate noise.
func (c Config) valueBound() *big.Int {
	users := big.NewInt(int64(c.Users))
	// Per-user share magnitude: vote (<= VoteScale) + masking 2^kappa.
	perUser := new(big.Int).Lsh(big.NewInt(1), uint(c.Kappa))
	perUser.Add(perUser, big.NewInt(VoteScale))
	agg := new(big.Int).Mul(users, perUser)
	// Scalar blind masks r1 + r2 (2 * 2^kappa).
	agg.Add(agg, new(big.Int).Lsh(big.NewInt(1), uint(c.Kappa+1)))
	// Noise: clamped to +-noiseClamp() per position, doubled in recombination.
	agg.Add(agg, new(big.Int).Lsh(c.noiseClamp(), 1))
	// Threshold offset <= T/2 <= users*VoteScale/2.
	agg.Add(agg, new(big.Int).Mul(users, big.NewInt(VoteScale/2)))
	// Partial-participation threshold adjustment: |H - O_P| <= T/2.
	agg.Add(agg, new(big.Int).Mul(users, big.NewInt(VoteScale/2)))
	// Differences double the magnitude.
	return agg.Lsh(agg, 1)
}

// packedSlotBound bounds |v| for any single per-user value entering a
// packed slot. The largest case is a threshold share a - offset + z1:
// |a| < 2^kappa + VoteScale (vote minus uniform mask), offset <=
// VoteScale/2 + 1, |z1| <= 2^kappa, so 2^(kappa+1) + 2*VoteScale + 2
// covers every share type with slack.
func (c Config) packedSlotBound() *big.Int {
	b := new(big.Int).Lsh(big.NewInt(1), uint(c.Kappa+1))
	return b.Add(b, big.NewInt(2*VoteScale+2))
}

// packedBiasBits is the bit length of the per-slot bias 2^biasBits that
// shifts signed per-user values into [0, 2^(biasBits+1)).
func (c Config) packedBiasBits() int { return c.packedSlotBound().BitLen() }

// packedSumBits bounds the bit length of a slot after summing all Users
// biased contributions.
func (c Config) packedSumBits() int {
	sum := new(big.Int).Lsh(big.NewInt(int64(c.Users)), uint(c.packedBiasBits()+1))
	return sum.BitLen()
}

// PackedWidth returns the slot width W in bits: the worst-case biased
// sum plus kappa bits of statistical blinding headroom for the
// interactive unpack, plus one carry guard bit. Sums (and blinded sums)
// can therefore never cross into the neighbouring slot.
func (c Config) PackedWidth() int { return c.packedSumBits() + c.Kappa + 1 }

// packedSlots returns how many width-bit slots fit one plaintext of a
// paillierBits-bit modulus, leaving two guard bits below it.
func packedSlots(width, paillierBits int) int {
	if width <= 0 || paillierBits-2 < width {
		return 0
	}
	return (paillierBits - 2) / width
}

// PackedGroupCiphertexts returns how many packed ciphertexts a group of
// nSeq classes-long sequences laid out in one slot stream costs (0 when not
// even one slot fits). Relays, which hold public keys but no Config, derive
// the shape of a packed half from it.
func PackedGroupCiphertexts(nSeq, classes, width, paillierBits int) int {
	s := packedSlots(width, paillierBits)
	if s <= 0 {
		return 0
	}
	return (nSeq*classes + s - 1) / s
}

// PackedSlotsPerPlaintext returns how many W-bit slots fit one Paillier
// plaintext (0: infeasible). From 2 up a packed half costs fewer ciphertexts
// than the unpacked 3K — the rule cmd/keygen sets Packing by.
func (c Config) PackedSlotsPerPlaintext() int { return packedSlots(c.PackedWidth(), c.PaillierBits) }

// PackedCiphertexts returns P, the number of packed ciphertexts one
// K-length sequence — the Noisy group — costs (0 when the layout is
// infeasible). The joint Votes‖Thresh group costs packedGroup(2).
func (c Config) PackedCiphertexts() int { return c.packedGroup(1) }

// packedGroup returns the ciphertext count of a packed group of nSeq
// sequences.
func (c Config) packedGroup(nSeq int) int {
	return PackedGroupCiphertexts(nSeq, c.Classes, c.PackedWidth(), c.PaillierBits)
}

// HalfLens returns the ciphertext counts of a well-formed submission
// half's Votes, Thresh and Noisy fields: K each unpacked; packed, Votes
// carries the joint Votes‖Thresh group and Thresh is empty.
func (c Config) HalfLens() [3]int {
	if c.Packing {
		return [3]int{c.packedGroup(2), 0, c.packedGroup(1)}
	}
	return [3]int{c.Classes, c.Classes, c.Classes}
}

// Lens returns the half's ciphertext counts, in HalfLens order.
func (h SubmissionHalf) Lens() [3]int { return [3]int{len(h.Votes), len(h.Thresh), len(h.Noisy)} }

// PackedHeadroomBits returns W minus the bits available for counting
// participants: a packed frame declaring member count above
// 2^(W - headroom) could overflow a slot of its declared width, which
// is what relay-side slot-overflow rejection checks.
func (c Config) PackedHeadroomBits() int { return c.Kappa + 1 + c.packedBiasBits() + 1 }

// packedLayout builds the paillier slot-packing codec for a group of nSeq
// sequences: sequence s occupies slots [s*K, (s+1)*K) of the stream.
func (c Config) packedLayout(nSeq int) paillier.Packing {
	biasBits := c.packedBiasBits()
	return paillier.Packing{
		Width: c.PackedWidth(),
		Slots: c.PackedSlotsPerPlaintext(),
		Count: nSeq * c.Classes,
		Bias:  new(big.Int).Lsh(big.NewInt(1), uint(biasBits)),
		Max:   new(big.Int).Lsh(big.NewInt(1), uint(biasBits+1)),
	}
}

// crossLayout is the slot layout one K-long sequence crosses the peer link
// in whenever its key owner is to read it (see foldCrossing). Every such
// value is one blinded aggregate: a sum of at most Users shares, |sum| <
// Users·2^biasBits, plus at most three kappa-bit masks r1 + r2 + r3. The
// public offset Users·2^biasBits makes it non-negative and below
// 2^(packedSumBits+1); one guard bit on top, and none of PackedWidth's kappa
// bits of unpack headroom. With Packing off — the paper's frames, one
// ciphertext per class — or a modulus too short for two slots, there is one
// slot per plaintext carrying the signed residue with no offset, which is
// exactly the value range Validate admits.
func (c Config) crossLayout() paillier.Packing {
	width := c.packedSumBits() + 2
	layout := paillier.Packing{
		Width: width,
		Slots: packedSlots(width, c.PaillierBits),
		Count: c.Classes,
		Bias:  new(big.Int).Lsh(big.NewInt(int64(c.Users)), uint(c.packedBiasBits())),
		Max:   new(big.Int).Lsh(big.NewInt(1), uint(width)),
	}
	if !c.Packing || layout.Slots <= 1 {
		layout.Slots, layout.Bias = 1, new(big.Int)
	}
	return layout
}

// crossLen is the number of ciphertexts nSeq sequences cross the peer link
// in: at most one sequence per ciphertext, so the count never depends on
// the worker bound and a two-sequence crossing folds on two cores.
func (c Config) crossLen(nSeq int) int { return nSeq * c.crossLayout().Plaintexts() }

// noiseClamp bounds the magnitude of any integer noise share: 2^kappa
// units. Exceeding it has probability < exp(-2^20) for realistic sigmas;
// clamping keeps the bit-length analysis airtight.
func (c Config) noiseClamp() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(c.Kappa))
}

// ThresholdUnits returns T in vote units, rounded to the nearest even
// integer so T/2 is exact.
func (c Config) ThresholdUnits() *big.Int {
	t := int64(math.Round(c.ThresholdFrac * float64(c.Users) * VoteScale / 2))
	return big.NewInt(2 * t)
}

// PerUserOffset returns user u's share of T/2 such that the offsets of all
// users sum exactly to T/2: floor division with the remainder spread over
// the first users.
func (c Config) PerUserOffset(user int) (*big.Int, error) {
	if user < 0 || user >= c.Users {
		return nil, fmt.Errorf("protocol: user index %d outside [0, %d)", user, c.Users)
	}
	half := new(big.Int).Rsh(c.ThresholdUnits(), 1)
	q, r := new(big.Int).DivMod(half, big.NewInt(int64(c.Users)), new(big.Int))
	if int64(user) < r.Int64() {
		q.Add(q, big.NewInt(1))
	}
	return q, nil
}

// ParticipantThresholdUnits returns T in vote units for a query answered by
// `participants` users: ThresholdFrac of the participants who actually
// showed up, the paper's fraction-of-voters semantics under dropout.
// Rounded to the nearest even integer so T/2 is exact.
func (c Config) ParticipantThresholdUnits(participants int) *big.Int {
	t := int64(math.Round(c.ThresholdFrac * float64(participants) * VoteScale / 2))
	return big.NewInt(2 * t)
}

// thresholdAdjustment returns delta = H - O_P, where H is half the target
// threshold for the participant set P and O_P is the sum of the per-user
// T/(2|U|) offsets the participants baked into their threshold shares.
// The DGK threshold comparison natively decides c_P + 2*Z1 >= 2*O_P; S1
// subtracting delta from its decrypted threshold sequence while S2 adds it
// shifts the decision to c_P + 2*Z1 >= 2*H exactly. At full participation
// O_P = T/2 and delta = 0, so the full-participation wire format is
// untouched.
func (c Config) thresholdAdjustment(participants []int) (*big.Int, error) {
	h := new(big.Int).Rsh(c.ParticipantThresholdUnits(len(participants)), 1)
	op := new(big.Int)
	for _, u := range participants {
		off, err := c.PerUserOffset(u)
		if err != nil {
			return nil, err
		}
		op.Add(op, off)
	}
	return h.Sub(h, op), nil
}

// QuorumCount resolves a quorum setting against the user count: a value in
// (0, 1) is a fraction of users rounded up, >= 1 an absolute count, and
// unset (<= 0) stands for `unset` users — every user for the library
// engine, any one for a deployment. The result is clamped to [1, users].
func QuorumCount(quorum float64, users, unset int) int {
	q := unset
	switch {
	case quorum <= 0:
	case quorum < 1:
		q = int(math.Ceil(quorum * float64(users)))
	default:
		q = int(math.Round(quorum))
	}
	return max(1, min(q, users))
}

// Present reports whether the half carries a submission: zero-value halves
// mark users that dropped out of a partial-participation query.
func (h SubmissionHalf) Present() bool { return len(h.Votes) > 0 }

// Group is one pre-aggregated ingestion unit entering Alg. 5: the
// homomorphic sum of the listed members' submission halves. Direct user
// submissions are singleton groups; a relay's combined frame (see
// internal/ingest) arrives as one multi-member group. Paillier addition is
// ciphertext multiplication mod N^2 — commutative and associative — so any
// grouping of the same participant set aggregates to the byte-identical
// ciphertext vector, which is what makes relay pre-summing transparent to
// the protocol.
type Group struct {
	// Members are the user indices whose shares Half sums. Every user must
	// appear in exactly one group per query instance.
	Members []int
	// Half is the homomorphic sum of the members' submission halves.
	Half SubmissionHalf
}

// GroupSingletons lifts a full-length (Users-sized) submission slice into
// one singleton group per present submission; nil halves mark dropped
// users, exactly as in RunS1/RunS2.
func GroupSingletons(subs []SubmissionHalf) []Group {
	out := make([]Group, 0, len(subs))
	for u, h := range subs {
		if h.Present() {
			out = append(out, Group{Members: []int{u}, Half: h})
		}
	}
	return out
}

// Keys bundles all key material for a protocol deployment. S1 owns the
// (pk1, sk1) Paillier pair, S2 owns (pk2, sk2) and the DGK key.
type Keys struct {
	S1Paillier *paillier.PrivateKey
	S2Paillier *paillier.PrivateKey
	S2DGK      *dgk.PrivateKey
}

// GenerateKeys creates all key material for cfg.
func GenerateKeys(rng io.Reader, cfg Config) (*Keys, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k1, err := paillier.GenerateKey(rng, cfg.PaillierBits)
	if err != nil {
		return nil, fmt.Errorf("protocol: S1 Paillier key: %w", err)
	}
	k2, err := paillier.GenerateKey(rng, cfg.PaillierBits)
	if err != nil {
		return nil, fmt.Errorf("protocol: S2 Paillier key: %w", err)
	}
	dk, err := dgk.GenerateKey(rng, cfg.DGK)
	if err != nil {
		return nil, fmt.Errorf("protocol: S2 DGK key: %w", err)
	}
	return &Keys{S1Paillier: k1, S2Paillier: k2, S2DGK: dk}, nil
}

// KeysS1 is the key material visible to S1.
type KeysS1 struct {
	Own     *paillier.PrivateKey // (pk1, sk1)
	PeerPub *paillier.PublicKey  // pk2
	DGKPub  *dgk.PublicKey
}

// Precompute warms the fixed-base exponentiation tables behind every key in
// S1's view so the first query does not pay the table-build cost inside a
// protocol phase. The tables are independent, so they build concurrently;
// every build has finished when Precompute returns. Idempotent and safe to
// call concurrently.
func (k KeysS1) Precompute() { precomputeAll(k.Own, k.PeerPub, k.DGKPub) }

// precomputeAll builds the tables of every key present (non-nil), each on
// its own goroutine, and waits for all of them.
func precomputeAll(keys ...interface{ Precompute() }) {
	var wg sync.WaitGroup
	for _, key := range keys {
		if reflect.ValueOf(key).IsNil() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			key.Precompute()
		}()
	}
	wg.Wait()
}

// KeysS2 is the key material visible to S2.
type KeysS2 struct {
	Own     *paillier.PrivateKey // (pk2, sk2)
	PeerPub *paillier.PublicKey  // pk1
	DGK     *dgk.PrivateKey
}

// Precompute warms the fixed-base exponentiation tables in S2's view; see
// KeysS1.Precompute.
func (k KeysS2) Precompute() { precomputeAll(k.Own, k.PeerPub, k.DGK) }

// Zeroize destroys S1's private key material in place (epoch retirement
// after a serve-mode key rotation). Public peer keys are left intact.
func (k KeysS1) Zeroize() {
	if k.Own != nil {
		k.Own.Zeroize()
	}
}

// Zeroize destroys S2's private key material — the Paillier secret key
// and the DGK secret key — in place. Public peer keys are left intact.
func (k KeysS2) Zeroize() {
	if k.Own != nil {
		k.Own.Zeroize()
	}
	if k.DGK != nil {
		k.DGK.Zeroize()
	}
}

// ForS1 extracts S1's view of the keys.
func (k *Keys) ForS1() KeysS1 {
	return KeysS1{Own: k.S1Paillier, PeerPub: k.S2Paillier.Public(), DGKPub: k.S2DGK.Public()}
}

// ForS2 extracts S2's view of the keys.
func (k *Keys) ForS2() KeysS2 {
	return KeysS2{Own: k.S2Paillier, PeerPub: k.S1Paillier.Public(), DGK: k.S2DGK}
}

// SubmissionHalf is the encrypted material one user sends to one server for
// one query instance (Alg. 5 setup + both Secure Sum steps). Packed, the
// sequences that share a Blind-and-Permute invocation share plaintexts:
// Votes carries the joint Votes‖Thresh group and Thresh is empty.
type SubmissionHalf struct {
	// Votes is E[share] of the user's prediction vector.
	Votes []*paillier.Ciphertext
	// Thresh is E[share -/+ T/(2|U|) +/- z1] (sign depends on server).
	Thresh []*paillier.Ciphertext
	// Noisy is E[share + z2] for the Report Noisy Maximum phase.
	Noisy []*paillier.Ciphertext
}

// Submission is one user's full encrypted contribution: ToS1 is encrypted
// under pk2 (so S1 cannot read it), ToS2 under pk1.
type Submission struct {
	ToS1 SubmissionHalf
	ToS2 SubmissionHalf
}

// Disclosure carries the plaintext values underlying a Submission, used
// only by tests and by the plaintext reference path.
type Disclosure struct {
	Votes []*big.Int // vote units
	Z1    []*big.Int // per-class SVT noise shares (units)
	Z2    []*big.Int // per-class RNM noise shares (units)
}

// BuildSubmission constructs user `user`'s encrypted submission for one
// instance. votes must be a Classes-length vector in vote units, each
// element in [0, VoteScale]. cryptoRNG supplies encryption randomness;
// noiseRNG supplies the user's local Gaussian noise (§IV-D). pk1 and pk2
// are the servers' Paillier public keys: material destined for S1 is
// encrypted under pk2 and vice versa, so neither server can read what it
// stores.
func BuildSubmission(cryptoRNG io.Reader, noiseRNG *rand.Rand, cfg Config, user int,
	votes []*big.Int, pk1, pk2 *paillier.PublicKey) (*Submission, *Disclosure, error) {
	if len(votes) != cfg.Classes {
		return nil, nil, fmt.Errorf("protocol: votes length %d != classes %d", len(votes), cfg.Classes)
	}
	for i, v := range votes {
		if v == nil || v.Sign() < 0 || v.Cmp(big.NewInt(VoteScale)) > 0 {
			return nil, nil, fmt.Errorf("%w: class %d value %v", ErrVoteRange, i, v)
		}
	}
	offset, err := cfg.PerUserOffset(user)
	if err != nil {
		return nil, nil, err
	}

	a, b, err := secshare.Split(cryptoRNG, votes, cfg.Kappa)
	if err != nil {
		return nil, nil, fmt.Errorf("protocol: split votes: %w", err)
	}

	z1, err := cfg.sampleNoiseShares(noiseRNG, cfg.Sigma1)
	if err != nil {
		return nil, nil, err
	}
	z2, err := cfg.sampleNoiseShares(noiseRNG, cfg.Sigma2)
	if err != nil {
		return nil, nil, err
	}

	threshS1, threshS2, err := secshare.ThresholdShares(a, b, z1, offset)
	if err != nil {
		return nil, nil, err
	}
	noisyS1, noisyS2, err := secshare.NoisyShares(a, b, z2)
	if err != nil {
		return nil, nil, err
	}

	sub := &Submission{}
	if cfg.Packing {
		enc := func(pk *paillier.PublicKey, what string, seqs ...[]*big.Int) ([]*paillier.Ciphertext, error) {
			var stream []*big.Int
			for _, seq := range seqs {
				stream = append(stream, seq...)
			}
			packed, perr := cfg.packedLayout(len(seqs)).Pack(stream)
			if perr != nil {
				return nil, fmt.Errorf("protocol: pack %s: %w", what, perr)
			}
			cts, eerr := pk.EncryptVector(cryptoRNG, packed)
			if eerr != nil {
				return nil, fmt.Errorf("protocol: encrypt packed %s: %w", what, eerr)
			}
			return cts, nil
		}
		if sub.ToS1.Votes, err = enc(pk2, "a and threshold shares for S1", a, threshS1); err != nil {
			return nil, nil, err
		}
		if sub.ToS1.Noisy, err = enc(pk2, "noisy shares for S1", noisyS1); err != nil {
			return nil, nil, err
		}
		if sub.ToS2.Votes, err = enc(pk1, "b and threshold shares for S2", b, threshS2); err != nil {
			return nil, nil, err
		}
		if sub.ToS2.Noisy, err = enc(pk1, "noisy shares for S2", noisyS2); err != nil {
			return nil, nil, err
		}
		return sub, &Disclosure{Votes: votes, Z1: z1, Z2: z2}, nil
	}
	if sub.ToS1.Votes, err = pk2.EncryptSignedVector(cryptoRNG, a); err != nil {
		return nil, nil, fmt.Errorf("protocol: encrypt a shares: %w", err)
	}
	if sub.ToS1.Thresh, err = pk2.EncryptSignedVector(cryptoRNG, threshS1); err != nil {
		return nil, nil, fmt.Errorf("protocol: encrypt threshold shares for S1: %w", err)
	}
	if sub.ToS1.Noisy, err = pk2.EncryptSignedVector(cryptoRNG, noisyS1); err != nil {
		return nil, nil, fmt.Errorf("protocol: encrypt noisy shares for S1: %w", err)
	}
	if sub.ToS2.Votes, err = pk1.EncryptSignedVector(cryptoRNG, b); err != nil {
		return nil, nil, fmt.Errorf("protocol: encrypt b shares: %w", err)
	}
	if sub.ToS2.Thresh, err = pk1.EncryptSignedVector(cryptoRNG, threshS2); err != nil {
		return nil, nil, fmt.Errorf("protocol: encrypt threshold shares for S2: %w", err)
	}
	if sub.ToS2.Noisy, err = pk1.EncryptSignedVector(cryptoRNG, noisyS2); err != nil {
		return nil, nil, fmt.Errorf("protocol: encrypt noisy shares for S2: %w", err)
	}
	return sub, &Disclosure{Votes: votes, Z1: z1, Z2: z2}, nil
}

// SubmissionBytes returns the encoded wire size of one submission half as
// it would cross the user-to-server link, for Table II accounting. It sums
// the half's actual ciphertexts, so packed halves report their packed
// size, not the 3K unpacked equivalent.
func SubmissionBytes(h SubmissionHalf) int {
	size := 0
	for _, group := range [][]*paillier.Ciphertext{h.Votes, h.Thresh, h.Noisy} {
		for _, c := range group {
			// sign byte + 4-byte length + payload, as in the codec.
			size += 5 + len(c.Bytes())
		}
	}
	return size
}

// PlainOutcome is the plaintext reference implementation of Alg. 4 / Alg. 5
// given the aggregated votes and aggregated noise share vectors (all in
// vote units). The crypto path must produce the identical decision for the
// same noise draws; tests assert this.
//
// Tie-breaking: the lowest index among maximal elements wins. The crypto
// path breaks ties by permuted position, i.e. uniformly at random among the
// tied classes, so exact-match tests use tie-free inputs.
func PlainOutcome(votes, z1, z2 []*big.Int, thresholdUnits *big.Int) (consensus bool, label int, err error) {
	if len(votes) == 0 || len(votes) != len(z1) || len(votes) != len(z2) {
		return false, -1, fmt.Errorf("protocol: length mismatch votes=%d z1=%d z2=%d", len(votes), len(z1), len(z2))
	}
	iStar := argmaxBig(votes)
	// SVT check: c_{i*} + 2*Σz1_{i*} >= T (the factor 2 comes from the
	// +z1/-z1 share construction; dp calibrates variances accordingly).
	check := new(big.Int).Add(votes[iStar], new(big.Int).Lsh(z1[iStar], 1))
	if check.Cmp(thresholdUnits) < 0 {
		return false, -1, nil
	}
	noisy := make([]*big.Int, len(votes))
	for i := range votes {
		noisy[i] = new(big.Int).Add(votes[i], new(big.Int).Lsh(z2[i], 1))
	}
	return true, argmaxBig(noisy), nil
}

// argmaxBig returns the lowest index attaining the maximum.
func argmaxBig(vs []*big.Int) int {
	best := 0
	for i := 1; i < len(vs); i++ {
		if vs[i].Cmp(vs[best]) > 0 {
			best = i
		}
	}
	return best
}

// sampleNoiseShares draws the per-user, per-class Gaussian noise shares in
// integer units, clamped to the configured bound.
func (c Config) sampleNoiseShares(noiseRNG *rand.Rand, sigmaVotes float64) ([]*big.Int, error) {
	out := make([]*big.Int, c.Classes)
	if sigmaVotes == 0 {
		for i := range out {
			out[i] = big.NewInt(0)
		}
		return out, nil
	}
	perUser, err := dp.UserNoiseSigma1(sigmaVotes*VoteScale, c.Users)
	if err != nil {
		return nil, fmt.Errorf("protocol: noise calibration: %w", err)
	}
	clamp := c.noiseClamp()
	negClamp := new(big.Int).Neg(clamp)
	for i := range out {
		z := big.NewInt(int64(math.Round(dp.Gaussian(noiseRNG, perUser))))
		if z.Cmp(clamp) > 0 {
			z.Set(clamp)
		} else if z.Cmp(negClamp) < 0 {
			z.Set(negClamp)
		}
		out[i] = z
	}
	return out, nil
}
