package paillier

import "github.com/privconsensus/privconsensus/internal/obs"

// Process-wide operation counters on the obs default registry. They count
// only operations — never plaintexts, nonces or key material.
var (
	encOps = obs.Default.Counter("paillier_encrypt_total",
		"Paillier encryptions.")
	ownEncOps = obs.Default.Counter("paillier_encrypt_ownkey_total",
		"Blinding factors the key owner computed through its CRT tables; each is also counted in paillier_encrypt_total.")
	decOps = obs.Default.Counter("paillier_decrypt_total",
		"Paillier decryptions, CRT and slow path.")
	addOps = obs.Default.Counter("paillier_add_total",
		"Homomorphic additions (ciphertext multiplications), including AddPlain.")
)

// WatchOps registers this package's operation counters on a tracer so each
// QueryTrace span records the Paillier work done during its phase.
func WatchOps(t *obs.Tracer) {
	t.Watch("paillier_enc", encOps)
	t.Watch("paillier_dec", decOps)
	t.Watch("paillier_add", addOps)
}
