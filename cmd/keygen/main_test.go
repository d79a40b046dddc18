package main

import (
	"path/filepath"
	"testing"

	"github.com/privconsensus/privconsensus/internal/keystore"
)

func TestRunWritesAllFiles(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-out", dir, "-users", "2", "-classes", "3",
		"-paillier-bits", "64", "-dgk-bits", "160",
	})
	if err != nil {
		t.Fatalf("keygen run: %v", err)
	}
	var s1 keystore.S1File
	if err := keystore.Load(filepath.Join(dir, "s1.json"), &s1); err != nil {
		t.Fatalf("load s1: %v", err)
	}
	if _, err := s1.KeysS1(); err != nil {
		t.Errorf("s1 keys unusable: %v", err)
	}
	var s2 keystore.S2File
	if err := keystore.Load(filepath.Join(dir, "s2.json"), &s2); err != nil {
		t.Fatalf("load s2: %v", err)
	}
	if _, err := s2.KeysS2(); err != nil {
		t.Errorf("s2 keys unusable: %v", err)
	}
	var pub keystore.PublicFile
	if err := keystore.Load(filepath.Join(dir, "public.json"), &pub); err != nil {
		t.Fatalf("load public: %v", err)
	}
	if err := pub.Validate(); err != nil {
		t.Errorf("public bundle invalid: %v", err)
	}
	if pub.Config.Users != 2 || pub.Config.Classes != 3 {
		t.Errorf("config not embedded: %+v", pub.Config)
	}
	if s1.Config.Packing || s2.Config.Packing || pub.Config.Packing {
		t.Error("64-bit paper keys written with packing on")
	}
}

// TestPackingDerivedFromConfig pins the one rule that decides the wire's
// packing mode: keygen packs iff at least two slots fit one plaintext, so a
// packed half is strictly smaller than the unpacked 3K ciphertexts.
func TestPackingDerivedFromConfig(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		slots int
		want  bool
	}{
		{"paper default, 64-bit", nil, 0, false},
		{"exactly one slot fits, 128-bit", []string{"-paillier-bits", "128"}, 1, false},
		{"two slots fit, 192-bit", []string{"-paillier-bits", "192"}, 2, true},
		{"1024-bit at K=10", []string{"-paillier-bits", "1024", "-classes", "10"}, 11, true},
		{"2048-bit at K=10", []string{"-paillier-bits", "2048", "-classes", "10"}, 23, true},
	}
	for _, c := range cases {
		cfg, _, err := parseConfig(c.args)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := cfg.PackedSlotsPerPlaintext(); got != c.slots {
			t.Errorf("%s: %d slots per plaintext, want %d", c.name, got, c.slots)
		}
		if cfg.Packing != c.want {
			t.Errorf("%s: Packing = %v, want %v", c.name, cfg.Packing, c.want)
		}
		if packed, plain := cfg.HalfLens(), 3*cfg.Classes; c.want && packed[0]+packed[1]+packed[2] >= plain {
			t.Errorf("%s: packed half costs %v ciphertexts, not fewer than %d", c.name, packed, plain)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run([]string{"-users", "0"}); err == nil {
		t.Error("expected error for zero users")
	}
	if err := run([]string{"-threshold", "3"}); err == nil {
		t.Error("expected error for threshold > 1")
	}
}
