// Package keystore persists protocol key material for the multi-process
// deployment: a dealer generates all keys once (cmd/keygen), each server
// loads only its own view, and users load the public bundle. Files are
// JSON; private-key files should be chmod 0600.
package keystore

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

// Version tags the file format.
const Version = 1

// S1File is the key material server S1 may hold: its own Paillier private
// key, S2's Paillier public key, and the DGK public key.
type S1File struct {
	Version     int                  `json:"version"`
	Config      protocol.Config      `json:"config"`
	Paillier    *paillier.PrivateKey `json:"paillier"`
	PeerPublic  *paillier.PublicKey  `json:"peerPublic"`
	DGKPublic   *dgk.PublicKey       `json:"dgkPublic"`
	Description string               `json:"description,omitempty"`
}

// S2File is the key material server S2 may hold: its own Paillier private
// key, S1's public key, and the full DGK private key.
type S2File struct {
	Version     int                  `json:"version"`
	Config      protocol.Config      `json:"config"`
	Paillier    *paillier.PrivateKey `json:"paillier"`
	PeerPublic  *paillier.PublicKey  `json:"peerPublic"`
	DGK         *dgk.PrivateKey      `json:"dgk"`
	Description string               `json:"description,omitempty"`
}

// PublicFile is the bundle users need: both servers' Paillier public keys.
type PublicFile struct {
	Version int                 `json:"version"`
	Config  protocol.Config     `json:"config"`
	PK1     *paillier.PublicKey `json:"pk1"`
	PK2     *paillier.PublicKey `json:"pk2"`
}

// Split decomposes dealer-generated keys into the three per-party files,
// embedding the protocol configuration so all parties agree on it.
func Split(cfg protocol.Config, keys *protocol.Keys) (*S1File, *S2File, *PublicFile, error) {
	if keys == nil || keys.S1Paillier == nil || keys.S2Paillier == nil || keys.S2DGK == nil {
		return nil, nil, nil, fmt.Errorf("keystore: incomplete key material")
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	s1 := &S1File{
		Version:    Version,
		Config:     cfg,
		Paillier:   keys.S1Paillier,
		PeerPublic: keys.S2Paillier.Public(),
		DGKPublic:  keys.S2DGK.Public(),
	}
	s2 := &S2File{
		Version:    Version,
		Config:     cfg,
		Paillier:   keys.S2Paillier,
		PeerPublic: keys.S1Paillier.Public(),
		DGK:        keys.S2DGK,
	}
	pub := &PublicFile{
		Version: Version,
		Config:  cfg,
		PK1:     keys.S1Paillier.Public(),
		PK2:     keys.S2Paillier.Public(),
	}
	return s1, s2, pub, nil
}

// KeysS1 converts the file into the protocol engine's S1 view.
func (f *S1File) KeysS1() (protocol.KeysS1, error) {
	if err := f.validate(); err != nil {
		return protocol.KeysS1{}, err
	}
	return protocol.KeysS1{Own: f.Paillier, PeerPub: f.PeerPublic, DGKPub: f.DGKPublic}, nil
}

// validate checks file integrity.
func (f *S1File) validate() error {
	if f.Version != Version {
		return fmt.Errorf("keystore: unsupported S1 file version %d", f.Version)
	}
	if f.Paillier == nil || f.PeerPublic == nil || f.DGKPublic == nil {
		return fmt.Errorf("keystore: incomplete S1 key file")
	}
	return checkModuli(f.Config, &f.Paillier.PublicKey, f.PeerPublic)
}

// KeysS2 converts the file into the protocol engine's S2 view.
func (f *S2File) KeysS2() (protocol.KeysS2, error) {
	if err := f.validate(); err != nil {
		return protocol.KeysS2{}, err
	}
	return protocol.KeysS2{Own: f.Paillier, PeerPub: f.PeerPublic, DGK: f.DGK}, nil
}

// validate checks file integrity.
func (f *S2File) validate() error {
	if f.Version != Version {
		return fmt.Errorf("keystore: unsupported S2 file version %d", f.Version)
	}
	if f.Paillier == nil || f.PeerPublic == nil || f.DGK == nil {
		return fmt.Errorf("keystore: incomplete S2 key file")
	}
	return checkModuli(f.Config, &f.Paillier.PublicKey, f.PeerPublic)
}

// Validate checks the public bundle.
func (f *PublicFile) Validate() error {
	if f.Version != Version {
		return fmt.Errorf("keystore: unsupported public file version %d", f.Version)
	}
	if f.PK1 == nil || f.PK2 == nil {
		return fmt.Errorf("keystore: incomplete public key bundle")
	}
	return checkModuli(f.Config, f.PK1, f.PK2)
}

// checkModuli refuses Paillier moduli that are not Config.PaillierBits long:
// the packed layout and the blinding width derive from that size; a smaller
// key would surface only as ErrMessageRange after admission has reserved ε.
func checkModuli(cfg protocol.Config, keys ...*paillier.PublicKey) error {
	for _, pk := range keys {
		if got := pk.N.BitLen(); got != cfg.PaillierBits {
			return fmt.Errorf("keystore: %w: Paillier modulus has %d bits, config says %d", protocol.ErrBadConfig, got, cfg.PaillierBits)
		}
	}
	return nil
}

// Save writes v as indented JSON to path with the given mode.
func Save(path string, v any, mode os.FileMode) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("keystore: encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), mode); err != nil {
		return fmt.Errorf("keystore: write %s: %w", path, err)
	}
	return nil
}

// Load reads JSON from path into v.
func Load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("keystore: read %s: %w", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("keystore: decode %s: %w", path, err)
	}
	return nil
}
