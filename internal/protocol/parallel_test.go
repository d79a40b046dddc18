package protocol

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Aggregation must yield bit-identical ciphertexts at every parallelism:
// Paillier addition is ciphertext multiplication mod N^2, which is
// associative and commutative, so the chunked tree reduction is exact.
func TestAggregateParallelMatchesSequential(t *testing.T) {
	cfg := testConfig(9)
	keys, err := GenerateKeys(testRNG(41), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := make([][]*big.Int, cfg.Users)
	for u := range votes {
		votes[u] = oneHotVotes(cfg.Classes, u%cfg.Classes)
	}
	subs, _ := buildAll(t, cfg, keys, votes, 42)
	halves := make([]SubmissionHalf, len(subs))
	for i, s := range subs {
		halves[i] = s.ToS1
	}
	pk := keys.S2Paillier.Public()
	field := func(h SubmissionHalf) []*paillier.Ciphertext { return h.Votes }

	seq, err := aggregate(pk, halves, 1, field)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		got, err := aggregate(pk, halves, par, field)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(got) != len(seq) {
			t.Fatalf("par=%d: %d classes, want %d", par, len(got), len(seq))
		}
		for i := range got {
			if got[i].C.Cmp(seq[i].C) != 0 {
				t.Errorf("par=%d class %d: parallel aggregate differs from sequential", par, i)
			}
		}
	}
}

// shapeConn records the shape of every frame crossing one end of a link:
// direction, kind, flag count and value count.
type shapeConn struct {
	transport.Conn
	shapes []string
}

func (c *shapeConn) Send(ctx context.Context, msg *transport.Message) error {
	c.shapes = append(c.shapes, fmt.Sprintf("> %v %d %d", msg.Kind, len(msg.Flags), len(msg.Values)))
	return c.Conn.Send(ctx, msg)
}

func (c *shapeConn) Recv(ctx context.Context) (*transport.Message, error) {
	msg, err := c.Conn.Recv(ctx)
	if err == nil {
		c.shapes = append(c.shapes, fmt.Sprintf("< %v %d %d", msg.Kind, len(msg.Flags), len(msg.Values)))
	}
	return msg, err
}

// The worker bound is not a wire mode: at GOMAXPROCS 1 and 4 the full
// protocol reaches identical outcomes and exchanges frames of identical
// shape in identical order.
func TestFullProtocolParallelMatchesSequential(t *testing.T) {
	cfg := testConfig(6)
	keys, err := GenerateKeys(testRNG(12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]*big.Int{
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 3),
		oneHotVotes(cfg.Classes, 1),
		oneHotVotes(cfg.Classes, 0),
	}

	outcomes := make(map[int]*Outcome)
	shapes := make(map[int][]string)
	for _, par := range []int{1, 4} {
		setWorkers(t, par)
		subs, _ := buildAll(t, cfg, keys, votes, 77)
		c1, c2 := transport.Pair()
		rec := &shapeConn{Conn: c1}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		out, err := runPair(ctx, cfg, keys.ForS1(), keys.ForS2(), testRNG(101), testRNG(102), subs, nil, rec, c2)
		cancel()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", par, err)
		}
		outcomes[par] = out
		shapes[par] = rec.shapes
	}
	seq, con := outcomes[1], outcomes[4]
	if *seq != *con {
		t.Errorf("parallel outcome %+v != sequential %+v", *con, *seq)
	}
	if !seq.Consensus || seq.Label != 3 {
		t.Errorf("expected consensus on label 3, got (%v, %d)", seq.Consensus, seq.Label)
	}
	if len(shapes[1]) == 0 || !slices.Equal(shapes[1], shapes[4]) {
		t.Errorf("frame shapes differ between 1 and 4 workers:\n%v\n%v", shapes[1], shapes[4])
	}
}
