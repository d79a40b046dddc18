package experiments

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"github.com/privconsensus/privconsensus/internal/paillier"
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
	// Parallelism is forwarded to protocol.Config.Parallelism: the CPU
	// worker bound (0 uses runtime.NumCPU). It does not touch the wire.
	Parallelism int
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
	if cfg.Instances < 1 || cfg.Users < 1 || cfg.Classes < 2 {
		return nil, fmt.Errorf("experiments: invalid protocol bench config %+v", cfg)
	}
	pcfg := protocol.DefaultConfig(cfg.Users)
	pcfg.Classes = cfg.Classes
	pcfg.Parallelism = cfg.Parallelism
	pcfg.ArgmaxStrategy = cfg.ArgmaxStrategy
	pcfg.Packing = cfg.Packing
	if cfg.PaillierBits > 0 {
		pcfg.PaillierBits = cfg.PaillierBits
	}
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys, err := protocol.GenerateKeys(rng, pcfg)
	if err != nil {
		return nil, err
	}

	meter := transport.NewMeter()
	res := &ProtocolBenchResult{Config: cfg}
	var overall time.Duration

	for inst := 0; inst < cfg.Instances; inst++ {
		subs, userBytes1, userBytes2, err := buildInstance(rng, pcfg, cfg, keys, inst)
		if err != nil {
			return nil, err
		}
		res.UserToServerBytes += userBytes1 / int64(cfg.Instances*cfg.Users)
		res.UserToServerBytes2 += userBytes2 / int64(cfg.Instances*cfg.Users)

		start := time.Now()
		out, err := runCryptoInstance(pcfg, keys, subs, meter, cfg.Seed+int64(inst))
		if err != nil {
			return nil, fmt.Errorf("experiments: instance %d: %w", inst, err)
		}
		overall += time.Since(start)
		if out.Consensus {
			res.Consensus++
		}
	}

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

// buildInstance creates all users' submissions for one query instance.
func buildInstance(rng *rand.Rand, pcfg protocol.Config, cfg ProtocolBenchConfig,
	keys *protocol.Keys, inst int) ([]*protocol.Submission, int64, int64, error) {
	subs := make([]*protocol.Submission, cfg.Users)
	var bytes1, bytes2 int64
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
			return nil, 0, 0, err
		}
		subs[u] = sub
		bytes1 += int64(halfBytes(sub.ToS1.Votes) + halfBytes(sub.ToS1.Thresh))
		bytes2 += int64(halfBytes(sub.ToS1.Noisy))
	}
	return subs, bytes1, bytes2, nil
}

// halfBytes sums the wire size of a ciphertext vector.
func halfBytes(cs []*paillier.Ciphertext) int {
	n := 0
	for _, c := range cs {
		n += 5 + len(c.Bytes())
	}
	return n
}

// runCryptoInstance executes one Alg. 5 run over an in-memory pair.
func runCryptoInstance(pcfg protocol.Config, keys *protocol.Keys,
	subs []*protocol.Submission, meter *transport.Meter, seed int64) (*protocol.Outcome, error) {
	c1, c2 := transport.Pair() // raw: the protocol meters its own link
	defer c1.Close()
	defer c2.Close()

	s1Subs := make([]protocol.SubmissionHalf, len(subs))
	s2Subs := make([]protocol.SubmissionHalf, len(subs))
	for i, s := range subs {
		s1Subs[i] = s.ToS1
		s2Subs[i] = s.ToS2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	type result struct {
		out *protocol.Outcome
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := protocol.RunS1(ctx, rand.New(rand.NewSource(seed)), pcfg, keys.ForS1(), c1, s1Subs, meter)
		ch <- result{out, err}
	}()
	out2, err := protocol.RunS2(ctx, rand.New(rand.NewSource(seed+1)), pcfg, keys.ForS2(), c2, s2Subs, nil)
	if err != nil {
		return nil, err
	}
	r1 := <-ch
	if r1.err != nil {
		return nil, r1.err
	}
	if r1.out.Consensus != out2.Consensus || r1.out.Label != out2.Label {
		return nil, fmt.Errorf("experiments: servers disagree: %+v vs %+v", r1.out, out2)
	}
	return r1.out, nil
}
