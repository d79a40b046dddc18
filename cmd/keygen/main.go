// Command keygen acts as the deployment's trusted dealer: it generates all
// protocol key material once and writes three files — s1.json and s2.json
// (each server's private view, mode 0600) and public.json (the bundle users
// need). The protocol configuration is embedded in every file so all
// parties agree on it.
//
// Usage:
//
//	keygen -out ./keys -users 10 -classes 10 -threshold 0.6 -sigma1 4 -sigma2 2
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "keygen:", err)
		os.Exit(1)
	}
}

// parseConfig turns the command line into the protocol configuration every
// key file embeds, and the output directory.
func parseConfig(args []string) (protocol.Config, string, error) {
	fs := flag.NewFlagSet("keygen", flag.ContinueOnError)
	var (
		outDir    = fs.String("out", ".", "output directory for key files")
		users     = fs.Int("users", 10, "number of users")
		classes   = fs.Int("classes", 10, "number of classes")
		threshold = fs.Float64("threshold", 0.6, "consensus threshold fraction")
		sigma1    = fs.Float64("sigma1", 4, "SVT noise deviation (votes)")
		sigma2    = fs.Float64("sigma2", 2, "report-noisy-max deviation (votes)")
		paillier  = fs.Int("paillier-bits", 64, "Paillier modulus bits (paper: 64; production: >= 2048)")
		dgkBits   = fs.Int("dgk-bits", 192, "DGK modulus bits (v_p, v_q stay 40 bits at every size: ord(h) ~80 bits, found in ~2^40 group operations)")
	)
	if err := fs.Parse(args); err != nil {
		return protocol.Config{}, "", err
	}

	cfg := protocol.DefaultConfig(*users)
	cfg.Classes = *classes
	cfg.ThresholdFrac = *threshold
	cfg.Sigma1, cfg.Sigma2 = *sigma1, *sigma2
	// Every party reads the packing mode from its key file, so it is
	// decided here, once, with the key sizes.
	cfg = cfg.KeyShape(*paillier, *dgkBits)
	return cfg, *outDir, cfg.Validate()
}

func run(args []string) error {
	cfg, outDir, err := parseConfig(args)
	if err != nil {
		return err
	}

	fmt.Printf("generating keys (%d-bit Paillier, %d-bit DGK, packed submissions: %v)...\n",
		cfg.PaillierBits, cfg.DGK.NBits, cfg.Packing)
	keys, err := protocol.GenerateKeys(rand.Reader, cfg)
	if err != nil {
		return err
	}
	s1, s2, pub, err := keystore.Split(cfg, keys)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		v    any
		mode os.FileMode
	}{
		{"s1.json", s1, 0o600},
		{"s2.json", s2, 0o600},
		{"public.json", pub, 0o644},
	}
	for _, f := range files {
		path := filepath.Join(outDir, f.name)
		if err := keystore.Save(path, f.v, f.mode); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	fmt.Println("distribute s1.json to server S1, s2.json to server S2, public.json to every user")
	return nil
}
