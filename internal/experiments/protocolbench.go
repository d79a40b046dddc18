package experiments

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// ProtocolBenchConfig drives the Table I / Table II reproduction: run the
// full cryptographic protocol (Alg. 5) end to end for a number of query
// instances and record per-step time and traffic.
type ProtocolBenchConfig struct {
	Instances int
	Users     int
	Classes   int
	Seed      int64
	// ForceConsensus biases the votes so the threshold check passes and
	// every step (6)-(9) executes, as in the paper's measurements.
	ForceConsensus bool
	// ArgmaxStrategy is forwarded to protocol.Config.ArgmaxStrategy:
	// empty or "tournament" runs the batched bracket, "allpairs" the
	// paper's all-pairs reference schedule Tables I-II were measured with.
	ArgmaxStrategy string
	// Packing is forwarded to protocol.Config.Packing: true encodes each
	// submission sequence into slot-packed Paillier plaintexts. The key
	// must leave room for the packed slot width (see PaillierBits).
	Packing bool
	// PaillierBits overrides the protocol's Paillier modulus size (0 keeps
	// the 64-bit prototype default). Packed runs need larger keys: the
	// slot width derived from the worst-case sums does not fit a 64-bit
	// modulus at the default statistical parameter.
	PaillierBits int
}

// ResolvedArgmaxStrategy names the strategy the run actually uses.
func (c ProtocolBenchConfig) ResolvedArgmaxStrategy() string {
	if c.ArgmaxStrategy == "" {
		return protocol.StrategyTournament
	}
	return c.ArgmaxStrategy
}

// DefaultProtocolBenchConfig mirrors the paper's measurement workload shape
// (10 classes) at a small instance count.
func DefaultProtocolBenchConfig() ProtocolBenchConfig {
	return ProtocolBenchConfig{Instances: 5, Users: 10, Classes: 10, Seed: 1, ForceConsensus: true}
}

// StepRow is one row of Tables I and II.
type StepRow struct {
	Step string
	// AvgTime is the mean per-instance wall time of the step, summed over
	// both servers (Table I).
	AvgTime time.Duration
	// AvgBytesPerParty is the mean per-instance bytes a party sends in
	// this step (Table II's "message size per party").
	AvgBytesPerParty int64
	// Msgs is the mean per-instance message count.
	Msgs float64
}

// ProtocolBenchResult aggregates a protocol benchmark run.
type ProtocolBenchResult struct {
	Config ProtocolBenchConfig
	// Steps holds the server-to-server protocol steps in Alg. 5 order.
	Steps []StepRow
	// UserToServerBytes is the per-user upload for the first secure sum
	// (votes + threshold shares, step 2).
	UserToServerBytes int64
	// UserToServerBytes2 is the per-user upload for the second secure
	// sum (noisy shares, step 6).
	UserToServerBytes2 int64
	// Overall is the mean total per-instance runtime.
	Overall time.Duration
	// Consensus counts instances that passed the threshold.
	Consensus int
}

// stepOrder lists the server-to-server steps in Alg. 5 order.
func stepOrder() []string {
	return []string{
		protocol.StepBlindPerm1,
		protocol.StepCompare1,
		protocol.StepThreshold,
		protocol.StepBlindPerm2,
		protocol.StepCompare2,
		protocol.StepRestoration,
	}
}

// ProtocolBench runs the full crypto protocol cfg.Instances times over an
// in-memory transport and aggregates per-step metrics.
func ProtocolBench(cfg ProtocolBenchConfig) (*ProtocolBenchResult, error) {
	pcfg, err := benchProtocolConfig(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys, err := protocol.GenerateKeys(rng, pcfg)
	if err != nil {
		return nil, err
	}
	return benchWithKeys(cfg, pcfg, keys, rng)
}

// benchWithKeys runs the instances of ProtocolBench under keys, drawing the
// users' submissions from rng.
func benchWithKeys(cfg ProtocolBenchConfig, pcfg protocol.Config, keys *protocol.Keys, rng *rand.Rand) (*ProtocolBenchResult, error) {
	meter := transport.NewMeter()
	res := &ProtocolBenchResult{Config: cfg}
	var overall time.Duration
	var userBytes1, userBytes2 int64

	for inst := 0; inst < cfg.Instances; inst++ {
		subs, err := buildInstance(rng, pcfg, cfg, keys, inst)
		if err != nil {
			return nil, err
		}
		for _, sub := range subs {
			b1, b2 := uploadBytes(sub.ToS1)
			userBytes1 += b1
			userBytes2 += b2
		}

		seed := cfg.Seed + int64(inst)
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		out, err := protocol.RunPair(ctx, pcfg, keys.ForS1(), keys.ForS2(),
			rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1)), subs, meter)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("experiments: instance %d: %w", inst, err)
		}
		overall += time.Since(start)
		if out.Consensus {
			res.Consensus++
		}
	}

	// Sum first, divide once: a per-instance division would truncate once
	// per instance.
	res.UserToServerBytes = userBytes1 / int64(cfg.Instances*cfg.Users)
	res.UserToServerBytes2 = userBytes2 / int64(cfg.Instances*cfg.Users)
	res.Overall = overall / time.Duration(cfg.Instances)
	for _, step := range stepOrder() {
		s, ok := meter.Step(step)
		if !ok {
			res.Steps = append(res.Steps, StepRow{Step: step})
			continue
		}
		// Steps (6)-(9) execute only on instances that reached
		// consensus; normalize them by that count so the per-instance
		// figures match the paper's always-consensus workload.
		denom := cfg.Instances
		switch step {
		case protocol.StepBlindPerm2, protocol.StepCompare2, protocol.StepRestoration:
			if res.Consensus > 0 {
				denom = res.Consensus
			}
		}
		res.Steps = append(res.Steps, StepRow{
			Step:             step,
			AvgTime:          s.Elapsed / time.Duration(denom),
			AvgBytesPerParty: s.BytesSent / int64(2*denom),
			Msgs:             float64(s.MsgsSent) / float64(denom),
		})
	}
	return res, nil
}

// benchProtocolConfig builds and checks the protocol parameters of a run.
func benchProtocolConfig(cfg ProtocolBenchConfig) (protocol.Config, error) {
	if cfg.Instances < 1 || cfg.Users < 1 || cfg.Classes < 2 {
		return protocol.Config{}, fmt.Errorf("experiments: invalid protocol bench config %+v", cfg)
	}
	pcfg := protocol.DefaultConfig(cfg.Users)
	pcfg.Classes = cfg.Classes
	pcfg.ArgmaxStrategy = cfg.ArgmaxStrategy
	pcfg.Packing = cfg.Packing
	if cfg.PaillierBits > 0 {
		pcfg.PaillierBits = cfg.PaillierBits
	}
	return pcfg, pcfg.Validate()
}

// uploadBytes splits one user's upload to S1 into the bytes of the first
// secure sum (votes and threshold shares, step 2) and of the second (noisy
// shares, step 6).
func uploadBytes(h protocol.SubmissionHalf) (step2, step6 int64) {
	return int64(protocol.SubmissionBytes(protocol.SubmissionHalf{Votes: h.Votes, Thresh: h.Thresh})),
		int64(protocol.SubmissionBytes(protocol.SubmissionHalf{Noisy: h.Noisy}))
}

// buildInstance creates all users' submissions for one query instance.
func buildInstance(rng *rand.Rand, pcfg protocol.Config, cfg ProtocolBenchConfig,
	keys *protocol.Keys, inst int) ([]*protocol.Submission, error) {
	subs := make([]*protocol.Submission, cfg.Users)
	majority := rng.Intn(cfg.Classes)
	for u := 0; u < cfg.Users; u++ {
		label := majority
		if !cfg.ForceConsensus {
			label = rng.Intn(cfg.Classes)
		}
		votes := make([]*big.Int, cfg.Classes)
		for i := range votes {
			votes[i] = big.NewInt(0)
		}
		votes[label] = big.NewInt(protocol.VoteScale)
		noise := rand.New(rand.NewSource(cfg.Seed + int64(inst*1000+u)))
		sub, _, err := protocol.BuildSubmission(rng, noise, pcfg, u, votes,
			keys.S1Paillier.Public(), keys.S2Paillier.Public())
		if err != nil {
			return nil, err
		}
		subs[u] = sub
	}
	return subs, nil
}
