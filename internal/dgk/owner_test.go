package dgk

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// ownerKeys are the keys the owner-encryption differential runs on: the
// 192-bit test shape and the 1024-bit/160-bit shape of the deployable bench.
var ownerKeys = sync.OnceValue(func() []*PrivateKey {
	var keys []*PrivateKey
	for i, params := range []Params{testParams(), {NBits: 1024, TBits: 160, U: 1009, L: 56}} {
		key, err := GenerateKey(testRNG(int64(300+i)), params)
		if err != nil {
			panic(err)
		}
		keys = append(keys, key)
	}
	return keys
})

// checkOwnerMatchesPublic encrypts m under the owner's CRT path and under a
// Public() copy from identically seeded rng streams: ciphertexts must agree
// byte for byte and both streams must end at the same position.
func checkOwnerMatchesPublic(t *testing.T, key *PrivateKey, seed int64, m *big.Int) {
	t.Helper()
	rngOwn, rngPub := testRNG(seed), testRNG(seed)
	own, errOwn := key.Encrypt(rngOwn, m)
	pub, errPub := key.Public().Encrypt(rngPub, m)
	if (errOwn == nil) != (errPub == nil) {
		t.Fatalf("Encrypt(%v): owner err %v, public err %v", m, errOwn, errPub)
	}
	if errOwn == nil && !bytes.Equal(own.C.Bytes(), pub.C.Bytes()) {
		t.Fatalf("%d-bit Encrypt(%v) seed %d: owner and public ciphertexts differ", key.N.BitLen(), m, seed)
	}
	if a, b := rngOwn.Int63(), rngPub.Int63(); a != b {
		t.Fatalf("rng streams diverged after identical operations: %d vs %d", a, b)
	}
}

// TestOwnerBitEncryptMatchesPublic is the differential test of the key
// owner's CRT encryption against the public fixed-base path. Byte equality
// alone would still hold with an exponent left unreduced on one side (the
// table falls back to big.Int.Exp), so the table widths are pinned too.
func TestOwnerBitEncryptMatchesPublic(t *testing.T) {
	for _, key := range ownerKeys() {
		for seed, m := range []int64{0, 1, 0, 1, 2, 1008} {
			checkOwnerMatchesPublic(t, key, int64(seed+1), big.NewInt(m))
		}
		checkOwnerMatchesPublic(t, key, 9, big.NewInt(1009)) // out of range on both
		own := key.ownTables()
		if got, want := own.p.MaxBits(), key.vp.BitLen(); got != want {
			t.Errorf("%d-bit key: p-side h table is %d bits wide, want |v_p| = %d", key.N.BitLen(), got, want)
		}
		if got, want := own.q.MaxBits(), key.vq.BitLen(); got != want {
			t.Errorf("%d-bit key: q-side h table is %d bits wide, want |v_q| = %d", key.N.BitLen(), got, want)
		}
		if own.p.Modulus().Cmp(key.p) != 0 || own.q.Modulus().Cmp(key.q) != 0 {
			t.Errorf("%d-bit key: owner tables are not over p and q", key.N.BitLen())
		}
		// ... and every owner exponentiation is a table walk: an exponent
		// left unreduced would be answered by big.Int.Exp, equal and slow.
		const fallbacks = "privconsensus_fixedbase_fallbacks_total"
		fb, rng := obs.Default.CounterValue(fallbacks), testRNG(12)
		for j := 0; j < 200; j++ {
			if _, err := key.Encrypt(rng, big.NewInt(int64(j%2))); err != nil {
				t.Fatal(err)
			}
		}
		if d := obs.Default.CounterValue(fallbacks) - fb; d != 0 {
			t.Errorf("%d-bit key: %d of 200 owner encryptions fell back to big.Int.Exp", key.N.BitLen(), d)
		}
	}
}

// FuzzOwnerBitEncrypt fuzzes the same differential over key, rng seed and
// message (out-of-range messages must be rejected by both paths).
func FuzzOwnerBitEncrypt(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(0))
	f.Add(uint8(1), int64(2), uint16(1))
	f.Add(uint8(1), int64(3), uint16(1009))
	f.Fuzz(func(t *testing.T, sel uint8, seed int64, m uint16) {
		keys := ownerKeys()
		checkOwnerMatchesPublic(t, keys[int(sel)%len(keys)], seed, big.NewInt(int64(m)))
	})
}

// reachablePointers collects every pointer reachable from v through
// exported and unexported fields alike.
func reachablePointers(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		reachablePointers(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reachablePointers(v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			reachablePointers(v.Index(i), seen)
		}
	}
}

// TestPublicCopyCannotReachOwnerTables pins the isolation the owner's tables
// depend on: they are residues modulo the secret factors, so nothing
// reachable from a Public() copy — which is handed to S1 and the keystore's
// S1 file — may point at them, even after both table sets are built.
func TestPublicCopyCannotReachOwnerTables(t *testing.T) {
	key, err := GenerateKey(testRNG(310), testParams())
	if err != nil {
		t.Fatal(err)
	}
	key.Precompute()
	own := key.ownTables()
	if own == nil || own.crt == nil {
		t.Fatal("Precompute did not build the owner's tables")
	}
	pub := key.Public()
	if pub.pre != key.pre || pub.pre.g == nil || pub.pre.h == nil {
		t.Fatal("Public() copy does not share the built public tables")
	}
	seen := map[uintptr]bool{}
	reachablePointers(reflect.ValueOf(pub), seen)
	for name, ptr := range map[string]any{"own": own, "p table": own.p, "q table": own.q, "crt": own.crt} {
		if seen[reflect.ValueOf(ptr).Pointer()] {
			t.Fatalf("owner's %s is reachable from a Public() copy", name)
		}
	}
}

// A zeroized key refuses the owner's encryption (and with it both B-side
// exchanges) with ErrNoPrivateKey and leaves no table behind.
func TestOwnerEncryptAfterZeroize(t *testing.T) {
	key, err := GenerateKey(testRNG(311), testParams())
	if err != nil {
		t.Fatal(err)
	}
	key.Precompute()
	own := key.ownTables()
	hp := own.p.Modulus()
	key.Zeroize()
	if key.own != nil || own.p != nil || own.crt != nil || hp.Sign() != 0 || key.q != nil || key.vq != nil {
		t.Error("owner tables or q-side secrets survived Zeroize")
	}
	if _, err := key.Encrypt(testRNG(1), big.NewInt(1)); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("owner Encrypt on zeroized key: %v, want ErrNoPrivateKey", err)
	}
	connA, connB := transport.Pair()
	defer connA.Close()
	defer connB.Close()
	if _, err := key.CompareSignedB(context.Background(), testRNG(2), connB, big.NewInt(3)); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("CompareSignedB on zeroized key: %v, want ErrNoPrivateKey", err)
	}
	if _, err := key.CompareSignedBatchB(context.Background(), testRNG(2), connB, []*big.Int{big.NewInt(3)}, 2); !errors.Is(err, ErrNoPrivateKey) {
		t.Errorf("CompareSignedBatchB on zeroized key: %v, want ErrNoPrivateKey", err)
	}
}

// signedAll maps every value through toSigned.
func signedAll(vs []*big.Int, l int) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = toSigned(v, l)
	}
	return out
}

// TestCompareMatchesCmp is the differential test of the three kernels
// against a.Cmp(b): the range edges, equal and adjacent values and 1,000
// random pairs, through the single exchange and through the batched one at
// one worker and at four.
func TestCompareMatchesCmp(t *testing.T) {
	key := sharedTestKey(t)
	top := new(big.Int).Lsh(big.NewInt(1), uint(key.L))
	top.Sub(top, big.NewInt(1))
	mid := new(big.Int).Rsh(top, 1)
	var as, bs []*big.Int
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), mid, new(big.Int).Add(mid, big.NewInt(1)), new(big.Int).Sub(top, big.NewInt(1)), top}
	for _, a := range edges {
		for _, b := range edges {
			as, bs = append(as, a), append(bs, b)
		}
	}
	rng := testRNG(320)
	random := 1000
	if testing.Short() {
		random = 50
	}
	for i := 0; i < random; i++ {
		a := new(big.Int).Rand(rng, top)
		b := new(big.Int).Rand(rng, top)
		switch i % 10 {
		case 0:
			b.Set(a) // equal
		case 1:
			b.Add(a, big.NewInt(1)) // adjacent
		}
		as, bs = append(as, a), append(bs, b)
	}
	check := func(how string, geqA, geqB []bool) {
		t.Helper()
		for i := range as {
			if want := as[i].Cmp(bs[i]) >= 0; geqA[i] != want || geqB[i] != want {
				t.Fatalf("%s: compare(%v, %v) = A:%v B:%v, want %v", how, as[i], bs[i], geqA[i], geqB[i], want)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	exchange := func(runA func(transport.Conn) ([]bool, error), runB func(transport.Conn) ([]bool, error)) ([]bool, []bool) {
		t.Helper()
		connA, connB := transport.Pair()
		defer connA.Close()
		defer connB.Close()
		type res struct {
			geq []bool
			err error
		}
		ch := make(chan res, 1)
		go func() {
			geq, err := runA(connA)
			if err != nil {
				connA.Close()
			}
			ch <- res{geq, err}
		}()
		geqB, err := runB(connB)
		if err != nil {
			t.Fatalf("B side: %v", err)
		}
		ra := <-ch
		if ra.err != nil {
			t.Fatalf("A side: %v", ra.err)
		}
		return ra.geq, geqB
	}

	geqA, geqB := exchange(
		func(conn transport.Conn) ([]bool, error) {
			out := make([]bool, len(as))
			for i, a := range as {
				var err error
				if out[i], err = key.Public().CompareSignedA(ctx, lockRNG(321), conn, toSigned(a, key.L)); err != nil {
					return nil, err
				}
			}
			return out, nil
		},
		func(conn transport.Conn) ([]bool, error) {
			out := make([]bool, len(bs))
			for i, b := range bs {
				var err error
				if out[i], err = key.CompareSignedB(ctx, lockRNG(322), conn, toSigned(b, key.L)); err != nil {
					return nil, err
				}
			}
			return out, nil
		})
	check("single exchange", geqA, geqB)

	for _, par := range []int{1, 4} {
		geqA, geqB := exchange(
			func(conn transport.Conn) ([]bool, error) {
				return key.Public().CompareSignedBatchA(ctx, lockRNG(323), conn, signedAll(as, key.L), par)
			},
			func(conn transport.Conn) ([]bool, error) {
				return key.CompareSignedBatchB(ctx, lockRNG(324), conn, signedAll(bs, key.L), par)
			})
		check("batched exchange", geqA, geqB)
	}
}
