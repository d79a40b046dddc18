package keystore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testConfig returns a small protocol configuration.
func testConfig(users int) protocol.Config {
	cfg := protocol.DefaultConfig(users)
	cfg.Classes = 3
	cfg.Kappa = 24
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.DGK = dgk.Params{NBits: 160, TBits: 32, U: 1009, L: 50}
	return cfg
}

func TestSplitAndViews(t *testing.T) {
	cfg := testConfig(2)
	keys, err := protocol.GenerateKeys(testRNG(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2, pub, err := Split(cfg, keys)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if _, err := s1.KeysS1(); err != nil {
		t.Errorf("KeysS1: %v", err)
	}
	if _, err := s2.KeysS2(); err != nil {
		t.Errorf("KeysS2: %v", err)
	}
	if err := pub.Validate(); err != nil {
		t.Errorf("public validate: %v", err)
	}
	if _, _, _, err := Split(cfg, nil); err == nil {
		t.Error("expected error for nil keys")
	}
	bad := cfg
	bad.Classes = 0
	if _, _, _, err := Split(bad, keys); err == nil {
		t.Error("expected error for invalid config")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig(2)
	keys, err := protocol.GenerateKeys(testRNG(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2, pub, err := Split(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s1Path := filepath.Join(dir, "s1.json")
	s2Path := filepath.Join(dir, "s2.json")
	pubPath := filepath.Join(dir, "public.json")
	if err := Save(s1Path, s1, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Save(s2Path, s2, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Save(pubPath, pub, 0o644); err != nil {
		t.Fatal(err)
	}

	var s1Back S1File
	var s2Back S2File
	var pubBack PublicFile
	if err := Load(s1Path, &s1Back); err != nil {
		t.Fatal(err)
	}
	if err := Load(s2Path, &s2Back); err != nil {
		t.Fatal(err)
	}
	if err := Load(pubPath, &pubBack); err != nil {
		t.Fatal(err)
	}
	if s1Back.Config.Classes != cfg.Classes || s2Back.Config.Users != cfg.Users {
		t.Error("config not preserved")
	}
	if pubBack.PK1.N.Cmp(keys.S1Paillier.N) != 0 {
		t.Error("pk1 modulus not preserved")
	}
	if pubBack.PK2.N.Cmp(keys.S2Paillier.N) != 0 {
		t.Error("pk2 modulus not preserved")
	}
	// Only S2's file carries the DGK subgroup orders, v_q included (the
	// owner's CRT encryption walks a table that wide).
	for path, want := range map[string]bool{s1Path: false, s2Path: true, pubPath: false} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Contains(raw, []byte(`"vq"`)); got != want {
			t.Errorf("%s carries \"vq\": %v, want %v", filepath.Base(path), got, want)
		}
	}

	// The reloaded keys must actually run the protocol: full Alg. 5 with
	// loaded S1/S2 key material.
	runWithLoadedKeys(t, cfg, &s1Back, &s2Back, &pubBack)
}

// runWithLoadedKeys executes one protocol instance using only reloaded key
// material, proving serialization preserved every derived constant.
func runWithLoadedKeys(t *testing.T, cfg protocol.Config, s1 *S1File, s2 *S2File, pub *PublicFile) {
	t.Helper()
	keys1, err := s1.KeysS1()
	if err != nil {
		t.Fatal(err)
	}
	keys2, err := s2.KeysS2()
	if err != nil {
		t.Fatal(err)
	}

	votes := make([]*big.Int, cfg.Classes)
	for i := range votes {
		votes[i] = big.NewInt(0)
	}
	votes[1] = big.NewInt(protocol.VoteScale)
	subs := make([]*protocol.Submission, cfg.Users)
	for u := range subs {
		sub, _, err := protocol.BuildSubmission(testRNG(int64(10+u)), testRNG(int64(20+u)), cfg, u, votes, pub.PK1, pub.PK2)
		if err != nil {
			t.Fatal(err)
		}
		subs[u] = sub
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := protocol.RunPair(ctx, cfg, keys1, keys2, testRNG(30), testRNG(31), subs, nil)
	if err != nil {
		t.Fatalf("run with loaded keys: %v", err)
	}
	if !out.Consensus || out.Label != 1 {
		t.Fatalf("loaded-key outcome %+v, want consensus on 1", out)
	}
}

// Key files written while protocol.Config still carried the worker bound
// and the absolute-threshold switch hold those fields in their config. They
// still load — the fields are ignored — and run.
func TestOldKeyFilesWithWorkerBoundLoad(t *testing.T) {
	var s1 S1File
	var s2 S2File
	var pub PublicFile
	for name, v := range map[string]any{"s1": &s1, "s2": &s2, "public": &pub} {
		path := filepath.Join("testdata", "parent_"+name+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Config map[string]json.RawMessage }
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		stale := 0
		for field := range file.Config {
			if _, ok := reflect.TypeOf(protocol.Config{}).FieldByName(field); !ok {
				stale++
			}
		}
		if stale != 2 {
			t.Fatalf("%s config has %d fields Config lacks, want the worker bound and AbsoluteThreshold", path, stale)
		}
		if err := Load(path, v); err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
	}
	runWithLoadedKeys(t, s1.Config, &s1, &s2, &pub)
}

func TestValidateRejectsBadFiles(t *testing.T) {
	if err := (&S1File{Version: 99}).validate(); err == nil {
		t.Error("expected version error")
	}
	if err := (&S2File{Version: Version}).validate(); err == nil {
		t.Error("expected incomplete-file error")
	}
	if err := (&PublicFile{Version: Version}).Validate(); err == nil {
		t.Error("expected incomplete-bundle error")
	}
	if _, err := (&S1File{Version: Version}).KeysS1(); err == nil {
		t.Error("expected error from incomplete S1 file")
	}
	if _, err := (&S2File{Version: Version}).KeysS2(); err == nil {
		t.Error("expected error from incomplete S2 file")
	}
}

// TestValidateChecksModuli is the key-load table: every file kind refuses a
// Paillier modulus (own or peer) whose size is not Config.PaillierBits, Load
// refuses an even one, and an untouched file passes.
func TestValidateChecksModuli(t *testing.T) {
	cfg := testConfig(2)
	keys, err := protocol.GenerateKeys(testRNG(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, err := paillier.GenerateKey(testRNG(4), cfg.PaillierBits/2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(s1 *S1File, s2 *S2File, pub *PublicFile)
		want   error // for all three files; nil = accepted
	}{
		{"good file", func(*S1File, *S2File, *PublicFile) {}, nil},
		{"keys smaller than config", func(s1 *S1File, s2 *S2File, pub *PublicFile) {
			s1.Config.PaillierBits *= 2
			s2.Config.PaillierBits *= 2
			pub.Config.PaillierBits *= 2
		}, protocol.ErrBadConfig},
		{"peer key of another size", func(s1 *S1File, s2 *S2File, pub *PublicFile) {
			s1.PeerPublic, s2.PeerPublic, pub.PK2 = small.Public(), small.Public(), small.Public()
		}, protocol.ErrBadConfig},
		{"own key of another size", func(s1 *S1File, s2 *S2File, pub *PublicFile) {
			s1.Paillier, s2.Paillier, pub.PK1 = small, small, small.Public()
		}, protocol.ErrBadConfig},
	} {
		s1, s2, pub, err := Split(cfg, keys)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(s1, s2, pub)
		_, err1 := s1.KeysS1()
		_, err2 := s2.KeysS2()
		for file, err := range map[string]error{"s1": err1, "s2": err2, "public": pub.Validate()} {
			if !errors.Is(err, tc.want) {
				t.Errorf("%s, %s file: got %v, want %v", tc.name, file, err, tc.want)
			}
		}
	}

	// An even modulus never reaches Validate: the file does not load.
	path := filepath.Join(t.TempDir(), "public.json")
	even := new(big.Int).Lsh(big.NewInt(1), uint(cfg.PaillierBits-1))
	data := fmt.Sprintf(`{"version":%d,"pk1":{"n":"%v"},"pk2":{"n":"%v"}}`, Version, even, keys.S2Paillier.N)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var pub PublicFile
	if err := Load(path, &pub); !errors.Is(err, paillier.ErrInvalidKeyPair) {
		t.Errorf("even modulus: Load returned %v, want ErrInvalidKeyPair", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	var f S1File
	if err := Load(filepath.Join(t.TempDir(), "missing.json"), &f); err == nil {
		t.Error("expected error for missing file")
	}
}
