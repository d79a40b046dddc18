package dgk

import "github.com/privconsensus/privconsensus/internal/obs"

// Process-wide operation counters on the obs default registry. They count
// only operations — never compared values, bits or key material.
var (
	encOps = obs.Default.Counter("dgk_encrypt_total",
		"DGK encryptions (bit encryptions included).")
	zeroTests = obs.Default.Counter("dgk_zerotest_total",
		"DGK zero tests (the comparison protocol's decryption primitive).")
	comparisons = obs.Default.Counter("dgk_comparisons_total",
		"Completed interactive DGK comparisons, labelled by party.",
		obs.L("party", "a"))
	comparisonsB = obs.Default.Counter("dgk_comparisons_total",
		"Completed interactive DGK comparisons, labelled by party.",
		obs.L("party", "b"))
)

// WatchOps registers this package's operation counters on a tracer so each
// QueryTrace span records the DGK work done during its phase.
func WatchOps(t *obs.Tracer) {
	t.Watch("dgk_enc", encOps)
	t.Watch("dgk_zerotest", zeroTests)
	t.Watch("dgk_cmp_a", comparisons)
	t.Watch("dgk_cmp_b", comparisonsB)
}
