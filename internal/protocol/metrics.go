package protocol

import "github.com/privconsensus/privconsensus/internal/obs"

// Protocol-level metrics on the obs default registry.
var (
	cmpJobsTotal = obs.Default.Counter("protocol_comparison_jobs_total",
		"DGK comparison jobs executed across all phases.")
	cmpTournament = obs.Default.Counter("privconsensus_comparisons_total",
		"Secure comparisons executed, labelled by argmax strategy.",
		obs.L("strategy", StrategyTournament))
	cmpAllPairs = obs.Default.Counter("privconsensus_comparisons_total",
		"Secure comparisons executed, labelled by argmax strategy.",
		obs.L("strategy", StrategyAllPairs))
)

// strategyComparisons returns the per-strategy comparison counter for cfg.
func strategyComparisons(cfg Config) *obs.Counter {
	if cfg.tournament() {
		return cmpTournament
	}
	return cmpAllPairs
}

// phaseSeconds returns the wall-time histogram for one protocol step.
func phaseSeconds(step string) *obs.Histogram {
	return obs.Default.Histogram("protocol_phase_seconds",
		"Wall time of each protocol phase.",
		obs.DurationBuckets(), obs.L("step", step))
}
