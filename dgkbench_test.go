package privconsensus

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// replayConn plays party B of one DGK comparison from a recording: Recv
// alternates between B's encrypted bits and a result frame, Send discards.
type replayConn struct {
	frames [2]*transport.Message
	next   int
}

func (c *replayConn) Send(context.Context, *transport.Message) error { return nil }
func (c *replayConn) Close() error                                   { return nil }
func (c *replayConn) Recv(context.Context) (*transport.Message, error) {
	c.next++
	return c.frames[(c.next-1)%2], nil
}

// BenchmarkDGKCompare measures the comparison protocol's kernels at two
// shapes: the deployable one (1024-bit modulus, 160-bit subgroups) and the
// paper's 64-bit regime as the bench's serve_paper64 runs it (192-bit
// modulus, 40-bit subgroups), both with L = 56: one bit encryption on the
// public path and on the key owner's CRT path, party A's round 2 for one
// comparison (blind: L terms and L blinding exponentiations), one zero
// test, and one whole exchange over an in-memory pair. results/dgk_micro.txt
// holds alternated parent/change readings; this file builds at older
// commits too, where owner-encrypt is the public path.
func BenchmarkDGKCompare(b *testing.B) {
	for _, shape := range []struct {
		name   string
		params dgk.Params
	}{
		{"1024", dgk.Params{NBits: 1024, TBits: 160, U: 1009, L: 56}},
		{"paper64", dgk.Params{NBits: 192, TBits: 40, U: 1009, L: 56}},
	} {
		b.Run(shape.name, func(b *testing.B) { benchDGKCompare(b, shape.params) })
	}
}

func benchDGKCompare(b *testing.B, params dgk.Params) {
	rng := rand.New(rand.NewSource(10))
	sk, err := dgk.GenerateKey(rng, params)
	if err != nil {
		b.Fatal(err)
	}
	pk := sk.Public()
	sk.Precompute()
	ctx := context.Background()
	bit := func(i int) *big.Int { return big.NewInt(int64(i % 2)) }

	b.Run("public-encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pk.Encrypt(rng, bit(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("owner-encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.Encrypt(rng, bit(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blind", func(b *testing.B) {
		conn := &replayConn{}
		bits := make([]*big.Int, pk.L)
		for i := range bits {
			c, err := pk.Encrypt(rng, bit(i/3))
			if err != nil {
				b.Fatal(err)
			}
			bits[i] = c.C
		}
		conn.frames[0] = &transport.Message{Kind: transport.KindBits, Values: bits}
		conn.frames[1] = &transport.Message{Kind: transport.KindResult, Flags: []int64{1}}
		a := big.NewInt(0x5a5a5a5a5a5a5a - 1<<(pk.L-1)) // signed form of an unsigned L-bit value
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pk.CompareSignedA(ctx, rng, conn, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zerotest", func(b *testing.B) {
		c, err := pk.Encrypt(rng, big.NewInt(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sk.IsZero(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exchange", func(b *testing.B) {
		ca, cb := transport.Pair()
		defer ca.Close()
		defer cb.Close()
		rngB := rand.New(rand.NewSource(11))
		errB := make(chan error, 1)
		go func() {
			for i := 0; i < b.N; i++ {
				if _, err := sk.CompareSignedB(ctx, rngB, cb, big.NewInt(int64(i)-40)); err != nil {
					cb.Close()
					errB <- err
					return
				}
			}
			errB <- nil
		}()
		for i := 0; i < b.N; i++ {
			if _, err := pk.CompareSignedA(ctx, rng, ca, big.NewInt(1<<39-int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		if err := <-errB; err != nil {
			b.Fatal(err)
		}
	})
}
