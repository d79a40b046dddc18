package dgk

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"slices"

	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/perm"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// This file implements the interactive DGK comparison protocol between two
// parties over a transport.Conn. Party B owns the DGK private key and a
// private value b; party A holds a private value a. Both values are L-bit
// non-negative integers. At the end, both parties learn the single bit
// (a >= b) and nothing else about the other's value.
//
// Round structure:
//
//  1. B -> A: bitwise encryptions E(b_{L-1}), ..., E(b_0).
//  2. A -> B: blinded, permuted E(r_i * c_i) where
//     c_i = a_i - b_i + 1 + 3 * sum_{j>i} (a_j XOR b_j).
//     There exists i with c_i = 0 iff a < b (DGK '07 with the '09
//     correction applied: the XOR prefix sum is multiplied by 3 so
//     non-first-difference positions cannot cancel to zero).
//  3. B -> A: the bit "a >= b" (true iff no blinded value decrypts to 0).
//
// The blinding factors r_i are uniform in [1, u) so B learns only whether
// some c_i is zero; the permutation hides which position. In the paper's
// semi-honest two-server setting the outcome bit itself is the protocol's
// declared output for both servers, so B forwarding it to A leaks nothing
// extra.

// CompareSignedA runs party A's side for a signed value a in
// (-2^(L-1), 2^(L-1)): it learns (a >= b). Both parties shift their inputs
// by +2^(L-1) before the bitwise protocol.
func (pk *PublicKey) CompareSignedA(ctx context.Context, rng io.Reader, conn transport.Conn, a *big.Int) (bool, error) {
	shifted, err := shiftSigned(a, pk.L)
	if err != nil {
		return false, err
	}
	geq, err := pk.exchangeA(ctx, rng, conn, []*big.Int{shifted}, 1, false)
	return err == nil && geq[0], err
}

// CompareSignedB runs party B's side (the key owner) for a signed value b in
// (-2^(L-1), 2^(L-1)): it learns (a >= b).
func (k *PrivateKey) CompareSignedB(ctx context.Context, rng io.Reader, conn transport.Conn, b *big.Int) (bool, error) {
	shifted, err := shiftSigned(b, k.L)
	if err != nil {
		return false, err
	}
	geq, err := k.exchangeB(ctx, rng, conn, []*big.Int{shifted}, 1, false)
	return err == nil && geq[0], err
}

// recvItems receives one round of n comparisons: n items of kind in one
// KindBatch frame, or — the single exchange — one bare message.
func recvItems(ctx context.Context, conn transport.Conn, kind transport.MessageKind, n int, batched bool) ([]*transport.Message, error) {
	if batched {
		return transport.ExpectBatch(ctx, conn, kind, n)
	}
	msg, err := transport.ExpectKind(ctx, conn, kind)
	return []*transport.Message{msg}, err
}

// sendItems sends one round, framed as recvItems expects it.
func sendItems(ctx context.Context, conn transport.Conn, items []*transport.Message, batched bool) error {
	if !batched {
		return conn.Send(ctx, items[0])
	}
	frame, err := transport.WrapBatch(items)
	if err != nil {
		return err
	}
	return conn.Send(ctx, frame)
}

// exchangeA runs party A's three rounds for n = len(vals) comparisons,
// learning the per-item bit (vals[i] >= b_i) in input order.
func (pk *PublicKey) exchangeA(ctx context.Context, rng io.Reader, conn transport.Conn, vals []*big.Int, par int, batched bool) ([]bool, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("dgk: empty comparison batch")
	}
	// Fail fast on a bad input before touching the wire: blocking on round
	// 1 with a value that can never be compared would hang the session.
	for i, v := range vals {
		if err := checkRange(v, pk.L); err != nil {
			return nil, fmt.Errorf("dgk: party A comparison %d: %w", i, err)
		}
	}
	// Round 1: every comparison's encrypted bit vector (little-endian).
	items, err := recvItems(ctx, conn, transport.KindBits, n, batched)
	if err != nil {
		return nil, fmt.Errorf("dgk: receive encrypted bits: %w", err)
	}
	blinded, err := pk.blind(rng, vals, itemValues(items), par)
	if err != nil {
		return nil, err
	}
	// Round 2: every blinded permuted sequence.
	if err := sendItems(ctx, conn, seqItems(transport.KindCipherSeq, blinded), batched); err != nil {
		return nil, fmt.Errorf("dgk: send blinded values: %w", err)
	}
	// Round 3: every outcome bit.
	if items, err = recvItems(ctx, conn, transport.KindResult, n, batched); err != nil {
		return nil, fmt.Errorf("dgk: receive result: %w", err)
	}
	out := make([]bool, n)
	for i, it := range items {
		if len(it.Flags) != 1 {
			return nil, fmt.Errorf("dgk: malformed result of comparison %d", i)
		}
		out[i] = it.Flags[0] == 1
	}
	comparisons.Add(int64(n))
	return out, nil
}

// exchangeB runs party B's side (the key owner): encrypt every comparison's
// bits, zero-test what comes back, and share the outcome bits.
func (k *PrivateKey) exchangeB(ctx context.Context, rng io.Reader, conn transport.Conn, vals []*big.Int, par int, batched bool) ([]bool, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("dgk: empty comparison batch")
	}
	// Round 1: all n*L bitwise encryptions.
	enc, err := k.encryptBits(rng, vals, par)
	if err != nil {
		return nil, err
	}
	if err := sendItems(ctx, conn, seqItems(transport.KindBits, enc), batched); err != nil {
		return nil, fmt.Errorf("dgk: send encrypted bits: %w", err)
	}
	// Round 2: receive every blinded sequence and zero-test all n*L values.
	items, err := recvItems(ctx, conn, transport.KindCipherSeq, n, batched)
	if err != nil {
		return nil, fmt.Errorf("dgk: receive blinded values: %w", err)
	}
	out, err := k.zeroTest(itemValues(items), par)
	if err != nil {
		return nil, err
	}
	// Round 3: share the outcome bits.
	results := make([]*transport.Message, n)
	for i, geq := range out {
		results[i] = &transport.Message{Kind: transport.KindResult, Flags: []int64{0}}
		if geq {
			results[i].Flags[0] = 1
		}
	}
	if err := sendItems(ctx, conn, results, batched); err != nil {
		return nil, fmt.Errorf("dgk: send result: %w", err)
	}
	comparisonsB.Add(int64(n))
	return out, nil
}

// seqItems wraps one value sequence per comparison as round items of kind.
func seqItems(kind transport.MessageKind, seqs [][]*big.Int) []*transport.Message {
	items := make([]*transport.Message, len(seqs))
	for i, vals := range seqs {
		items[i] = &transport.Message{Kind: kind, Values: vals}
	}
	return items
}

// itemValues is the inverse projection.
func itemValues(items []*transport.Message) [][]*big.Int {
	seqs := make([][]*big.Int, len(items))
	for i, it := range items {
		seqs[i] = it.Values
	}
	return seqs
}

// The three compute kernels below are all of the protocol's cryptography.
// Each fans out over the n·L bit positions, not the n comparisons, so a
// bracket level of one comparison still uses every worker; with par > 1 rng
// must be safe for concurrent draws. Each writes its values into one slab
// of big.Int headers over one word arena and works in one scratch per
// worker (see workers), so its allocations do not grow with n·L.

// workers hands each ParallelFor worker its own scratch, built on the
// worker's first call. It lives for one kernel call.
type workers[T any] struct {
	s    []T
	made []bool
	mk   func() T
}

func newWorkers[T any](par int, mk func() T) *workers[T] {
	return &workers[T]{s: make([]T, max(par, 1)), made: make([]bool, max(par, 1)), mk: mk}
}

// get returns worker w's scratch.
func (ws *workers[T]) get(w int) T {
	if !ws.made[w] {
		ws.s[w], ws.made[w] = ws.mk(), true
	}
	return ws.s[w]
}

// slab returns n comparisons' L values each as views of one []big.Int,
// and the flat headers behind them.
func slab(n, l int) ([][]*big.Int, []big.Int) {
	vals, ptrs := make([]big.Int, n*l), make([]*big.Int, n*l)
	for i := range ptrs {
		ptrs[i] = &vals[i]
	}
	out := make([][]*big.Int, n)
	for i := range out {
		out[i] = ptrs[i*l : (i+1)*l : (i+1)*l]
	}
	return out, vals
}

// encryptBits is party B's round 1: the L bitwise encryptions (little-endian)
// of each value, under B's own key at the owner's cost. A bit's g^m is a
// choice between g^0 and g^1 in n's Montgomery domain, so each encryption
// is two CRT table walks, one recombination and one multiplication.
func (k *PrivateKey) encryptBits(rng io.Reader, vals []*big.Int, par int) ([][]*big.Int, error) {
	for i, v := range vals {
		if err := checkRange(v, k.L); err != nil {
			return nil, fmt.Errorf("dgk: comparison %d: %w", i, err)
		}
	}
	ctx, err := k.mont()
	if err != nil {
		return nil, err
	}
	own := k.ownTables()
	if own == nil || own.crt == nil {
		return nil, ErrNoPrivateKey
	}
	w := ctx.Words()
	out, cts := slab(len(vals), k.L)
	arena := make([]big.Word, (len(cts)+2)*w)
	g := arena[len(cts)*w:] // g^0 and g^1 in the domain
	scratch := newWorkers(par, k.newOwnScratch)
	kernel := scratch.get(0).w
	ctx.Enter(g[:w], mathutil.One, kernel)
	ctx.Enter(g[w:], k.G, kernel)
	err = mathutil.ParallelFor(par, len(cts), func(wk, idx int) error {
		i, pos := idx/k.L, idx%k.L
		bit := int(vals[i].Bit(pos))
		z := arena[idx*w : (idx+1)*w : (idx+1)*w]
		if err := k.encryptOwn(z, rng, own, ctx, g[bit*w:(bit+1)*w], scratch.get(wk)); err != nil {
			return fmt.Errorf("dgk: comparison %d bit %d: %w", i, pos, err)
		}
		cts[idx].SetBits(z)
		return nil
	})
	for _, s := range scratch.s {
		if s != nil {
			clear(s.w) // residues modulo p and q
		}
	}
	return out, err
}

// blindScratch is one worker's memory for party A's blinding: the draw,
// its byte buffer and Mont.Exp's scratch for a ≤ 16-bit exponent.
type blindScratch struct {
	r   big.Int
	buf []byte
	w   []big.Word
}

// blind is party A's round 2: for each of its values and B's encrypted bit
// vector, the blinded, permuted E(r_i * c_i) sequence. The E(c_i) of one
// comparison form a chain (multiplications only, see compareTerms); the
// blinding exponentiations are independent per bit. All of it runs in n's
// Montgomery domain, and each blinded value leaves it once.
func (pk *PublicKey) blind(rng io.Reader, vals []*big.Int, encBits [][]*big.Int, par int) ([][]*big.Int, error) {
	ctx, err := pk.mont()
	if err != nil {
		return nil, err
	}
	n, l, w := len(vals), pk.L, ctx.Words()
	// One arena: every comparison's L terms, then every blinded value, w
	// words each.
	arena := make([]big.Word, 2*n*l*w)
	terms, blinded := arena[:n*l*w], arena[n*l*w:]
	pis := make([]perm.Permutation, n)
	chain := newWorkers(par, func() []big.Word { return make([]big.Word, termScratch(l)*w) })
	err = mathutil.ParallelFor(par, n, func(wk, i int) (err error) {
		if err = pk.compareTerms(rng, ctx, vals[i], encBits[i], terms[i*l*w:(i+1)*l*w], chain.get(wk)); err != nil {
			return fmt.Errorf("dgk: comparison %d: %w", i, err)
		}
		// Permute so B cannot tell which bit position (if any) was zero.
		pis[i], err = perm.New(rng, l)
		return err
	})
	if err != nil {
		return nil, err
	}
	bound := new(big.Int).Sub(pk.U, mathutil.One)
	scratch := newWorkers(par, func() *blindScratch {
		return &blindScratch{buf: make([]byte, (bound.BitLen()+7)/8), w: make([]big.Word, 3*w)}
	})
	out, vs := slab(n, l)
	err = mathutil.ParallelFor(par, n*l, func(wk, idx int) error {
		i, pos := idx/l, idx%l
		s := scratch.get(wk)
		// Blind with a random nonzero exponent: zero stays zero, nonzero
		// becomes uniform nonzero.
		r, err := randNonzero(&s.r, rng, bound, s.buf)
		if err != nil {
			return err
		}
		z := blinded[idx*w : (idx+1)*w : (idx+1)*w]
		ctx.Exp(z, terms[idx*w:(idx+1)*w], r, s.w)
		ctx.Leave(z, z, s.w)
		out[i][pis[i][pos]] = vs[idx].SetBits(z)
		return nil
	})
	return out, err
}

// termScratch is compareTerms' scratch per word of n: the bits and the
// bits' inverses, L values each, then xorSum, g, g², a temporary and 3
// words for the multiplications.
func termScratch(l int) int { return 2*l + 7 }

// compareTerms computes E(c_i), i = 0..L-1, in the Montgomery domain of
// ctx (n's), for A's value a against B's encrypted bits, scanning from the
// MSB so the XOR prefix sum over j > i accumulates incrementally:
//
//	c_i = a_i - b_i + 1 + 3 * sum_{j>i} (a_j XOR b_j)
//
// with E(a_j XOR b_j) = E(b_j) when a_j = 0 and E(1 - b_j) otherwise. All of
// it is multiplications: the L negations E(-b_i) = E(b_i)^(-1) come from
// one modular inversion of the bits' product (Montgomery's trick) and 3*sum
// is two more multiplications. It writes the L terms' words, w per term,
// into terms and works in buf, termScratch(L)·w words the caller owns.
func (pk *PublicKey) compareTerms(rng io.Reader, ctx *mathutil.Mont, a *big.Int, encBits []*big.Int, terms, buf []big.Word) error {
	l, w := pk.L, ctx.Words()
	if len(encBits) != l {
		return fmt.Errorf("dgk: expected %d encrypted bits, got %d", l, len(encBits))
	}
	at := func(k int) []big.Word { return buf[k*w : (k+1)*w] }
	term := func(i int) []big.Word { return terms[i*w : (i+1)*w] }
	bit := func(i int) []big.Word { return at(i) }
	neg := func(i int) []big.Word { return at(l + i) }
	xorSum, g, g2, tmp, scratch := at(2*l), at(2*l+1), at(2*l+2), at(2*l+3), buf[(2*l+4)*w:]
	for i, v := range encBits {
		if err := pk.validateCiphertext(&Ciphertext{C: v}); err != nil {
			return fmt.Errorf("dgk: bit %d: %w", i, err)
		}
		ctx.Enter(bit(i), v, scratch)
	}
	// Montgomery's trick: the prefix products b_0···b_i go into neg, the
	// product's one inverse walks back down turning each into b_i^(-1).
	copy(neg(0), bit(0))
	for i := 1; i < l; i++ {
		ctx.Mul(neg(i), neg(i-1), bit(i), scratch)
	}
	ctx.Leave(tmp, neg(l-1), scratch)
	inv, err := mathutil.ModInverse(new(big.Int).SetBits(tmp), pk.N)
	if err != nil {
		return fmt.Errorf("dgk: encrypted bits are not units: %w", err)
	}
	ctx.Enter(tmp, inv, scratch)
	for i := l - 1; i > 0; i-- {
		ctx.Mul(neg(i), tmp, neg(i-1), scratch)
		ctx.Mul(tmp, tmp, bit(i), scratch)
	}
	copy(neg(0), tmp)
	zero, err := pk.Encrypt(rng, mathutil.Zero)
	if err != nil {
		return err
	}
	ctx.Enter(xorSum, zero.C, scratch) // over the processed (higher) positions
	ctx.Enter(g, pk.G, scratch)
	ctx.Mul(g2, g, g, scratch)
	gPlus := [2][]big.Word{g, g2} // E(a_i + 1) with unit randomness
	for i := l - 1; i >= 0; i-- {
		ai := a.Bit(i)
		ctx.Mul(tmp, xorSum, xorSum, scratch)
		ctx.Mul(tmp, tmp, xorSum, scratch)
		ctx.Mul(term(i), neg(i), gPlus[ai], scratch) // the term E(c_i)
		ctx.Mul(term(i), term(i), tmp, scratch)
		if ai == 0 {
			ctx.Mul(xorSum, xorSum, bit(i), scratch)
		} else {
			ctx.Mul(tmp, neg(i), g, scratch) // 1 - b_i
			ctx.Mul(xorSum, xorSum, tmp, scratch)
		}
	}
	return nil
}

// zeroTest is party B's decision of each comparison from its blinded round-2
// sequence: a >= b iff no value decrypts to zero. Every position is tested so
// the work is constant regardless of outcome.
func (k *PrivateKey) zeroTest(blinded [][]*big.Int, par int) ([]bool, error) {
	zt := k.zt
	if zt == nil {
		return nil, ErrNoPrivateKey // zeroized
	}
	for i, vals := range blinded {
		if len(vals) != k.L {
			return nil, fmt.Errorf("dgk: comparison %d: expected %d blinded values, got %d", i, k.L, len(vals))
		}
	}
	isZero := make([]bool, len(blinded)*k.L)
	scratch := newWorkers(par, func() []big.Word { return make([]big.Word, zeroTestWords*zt.Words()) })
	err := mathutil.ParallelFor(par, len(isZero), func(w, idx int) error {
		c := blinded[idx/k.L][idx%k.L]
		if err := k.validateCiphertext(&Ciphertext{C: c}); err != nil {
			return fmt.Errorf("dgk: comparison %d zero-test %d: %w", idx/k.L, idx%k.L, err)
		}
		isZero[idx] = k.isZero(zt, c, scratch.get(w))
		return nil
	})
	for _, x := range scratch.s {
		clear(x) // powers modulo p
	}
	if err != nil {
		return nil, err
	}
	geq := make([]bool, len(blinded))
	for i := range geq {
		geq[i] = !slices.Contains(isZero[i*k.L:(i+1)*k.L], true) // a zero exists iff a < b
	}
	return geq, nil
}

// shiftSigned maps v in (-2^(L-1), 2^(L-1)) to v + 2^(L-1) in (0, 2^L).
func shiftSigned(v *big.Int, l int) (*big.Int, error) {
	half := new(big.Int).Lsh(mathutil.One, uint(l-1))
	out := new(big.Int).Add(v, half)
	if out.Sign() < 0 || out.BitLen() > l {
		return nil, fmt.Errorf("dgk: signed value %v outside (-2^%d, 2^%d)", v, l-1, l-1)
	}
	return out, nil
}

// checkRange verifies v is a non-negative L-bit value.
func checkRange(v *big.Int, l int) error {
	if v == nil || v.Sign() < 0 || v.BitLen() > l {
		return fmt.Errorf("value %v is not a non-negative %d-bit integer", v, l)
	}
	return nil
}

// randNonzero sets z to a uniform draw from [1, u), given bound = u − 1,
// in the caller's byte buffer (see mathutil.RandInt).
func randNonzero(z *big.Int, rng io.Reader, bound *big.Int, buf []byte) (*big.Int, error) {
	r, err := mathutil.RandInt(z, rng, bound, buf)
	if err != nil {
		return nil, err
	}
	return r.Add(r, mathutil.One), nil
}
