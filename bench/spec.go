package main

import "time"

// spec.go names everything the benchmark reports. BENCHMARK.json at the
// repository root repeats these names for the driver; bench_test.go fails
// when the two drift apart.

// workloadDef is one set of inputs the benchmark runs. Every workload is a
// closed loop: a tenant waits for its label before asking again, an
// uploader for both acks before its next user.
type workloadDef struct {
	Name    string
	Why     string // one line, repeated in BENCHMARK.json
	Shape   string
	Users   int // per query (serve) or per round (ingest)
	Tenants int // concurrent closed-loop tenants (serve) or uploaders (ingest)
	Warmups int // untimed queries (serve) or rounds (ingest) before the window
	Ingest  bool
}

var workloads = []workloadDef{
	{
		Name: "serve_paper64", Shape: shapePaper64, Users: 10, Tenants: 1, Warmups: 3,
		Why: "64-bit paper keys: crypto is cheapest, so admission, dials, ledger fsyncs and the journal chain have their largest share",
	},
	{
		Name: "serve_small2048", Shape: shapeDeploy2048, Users: 10, Tenants: 1, Warmups: 3,
		Why: "deployable keys, 10 users: server-side protocol phases dominate, Paillier and DGK work both large, client encryption small",
	},
	{
		Name: "serve_crowd2048", Shape: shapeDeploy2048, Users: 120, Tenants: 2, Warmups: 2,
		Why: "deployable keys, 120 users, 2 tenants: per-user client encryption and collection dominate and queries pipeline",
	},
	{
		Name: "ingest_tree2048", Shape: shapeDeploy2048, Users: 8000, Tenants: 2, Warmups: 1, Ingest: true,
		Why: "8,000-user rounds through two relays into two sinks: the only workload that runs the relay tier, with no DGK and no client encryption",
	},
}

// Ingest tree shape: leaf relays and their pre-sum batch size.
const (
	ingestRelays = 2
	ingestBatch  = 64
)

// A timed run sets the workload up setupRepeatsMin times, and again while
// the set-ups so far took less than setupBudget, up to setupRepeatsMax;
// setup_s is the median.
const (
	setupRepeatsMin = 3
	setupRepeatsMax = 15
	setupBudget     = time.Second
)

// tracedQueries is the length of the traced pass: one schedule block, so
// every traced pass has the same mix of outcomes and its operation counts
// repeat exactly.
const tracedQueries = len(blockKinds)

// metricDef is one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves, per-layer only, is the prediction written down before
	// measuring: the end-to-end metric this one should move, and on which
	// workload. BENCHMARK.json has no field for it; a traced run prints it.
	Moves string
}

// endToEnd are the metrics a tenant or an operator sees. Every workload
// reports every one of them and none is ever 0. Values are wall clock as
// measured. The bounds are what this 2-vCPU virtual machine supports: ten
// seeds of one commit spread 2-6% of their median when the box is calm and
// up to 15% when something runs beside them (README.md has the table), so
// a tighter bound would reject unchanged code.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "users_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// The predictions most per-layer metrics share.
const (
	movesCrowd  = "users_per_s, query_p50_ms on serve_crowd2048"
	movesSmall  = "query_p50_ms, queries_per_s on serve_small2048"
	movesPaper  = "query_p50_ms, queries_per_s on serve_paper64"
	movesIngest = "users_per_s, query_p50_ms on ingest_tree2048"
	movesDGK    = "query_p50_ms on serve_paper64 (most), serve_small2048 (a third)"
)

// perLayer are the metrics of single layers, taken in the traced run
// (--trace 1). A metric whose layer a workload does not run reports 0.
var perLayer = []metricDef{
	{Name: "client.build_ms_per_user", Unit: "ms", Better: "lower", Moves: movesCrowd},
	{Name: "client.encryptions_per_user", Unit: "count", Better: "lower", Moves: movesCrowd},
	{Name: "client.upload_bytes_per_user", Unit: "B", Better: "lower", Moves: movesCrowd},

	{Name: "paillier.encrypt_us", Unit: "us", Better: "lower", Moves: "users_per_s on serve_crowd2048"},
	{Name: "paillier.add_us", Unit: "us", Better: "lower", Moves: "users_per_s on ingest_tree2048"},
	{Name: "paillier.rerandomize_us", Unit: "us", Better: "lower", Moves: movesSmall},
	{Name: "paillier.decrypt_us", Unit: "us", Better: "lower", Moves: movesSmall},
	{Name: "paillier.encrypts_per_query", Unit: "count", Better: "lower", Moves: "users_per_s on serve_crowd2048"},
	{Name: "paillier.decrypts_per_query", Unit: "count", Better: "lower", Moves: movesSmall},

	{Name: "dgk.encrypt_us", Unit: "us", Better: "lower", Moves: movesDGK},
	{Name: "dgk.zerotest_us", Unit: "us", Better: "lower", Moves: movesDGK},
	{Name: "dgk.compare_ms", Unit: "ms", Better: "lower", Moves: movesDGK},
	{Name: "dgk.encrypts_per_query", Unit: "count", Better: "lower", Moves: movesDGK},
	{Name: "dgk.zerotests_per_query", Unit: "count", Better: "lower", Moves: movesDGK},
	{Name: "dgk.comparisons_per_query", Unit: "count", Better: "lower", Moves: movesDGK},
	{Name: "dgk.material_hit_frac", Unit: "ratio", Better: "higher", Moves: movesDGK},

	{Name: "mathutil.fixedbase_hit_frac", Unit: "ratio", Better: "higher", Moves: "query_p50_ms on serve_small2048, users_per_s on serve_crowd2048"},

	{Name: "protocol.secure_sum_ms", Unit: "ms", Better: "lower", Moves: movesSmall},
	{Name: "protocol.unpack_ms", Unit: "ms", Better: "lower", Moves: movesSmall},
	{Name: "protocol.blind_permute_ms", Unit: "ms", Better: "lower", Moves: movesSmall},
	{Name: "protocol.compare_ms", Unit: "ms", Better: "lower", Moves: movesDGK},
	{Name: "protocol.threshold_ms", Unit: "ms", Better: "lower", Moves: movesDGK},
	{Name: "protocol.restore_ms", Unit: "ms", Better: "lower", Moves: movesSmall},
	{Name: "protocol.total_ms", Unit: "ms", Better: "lower", Moves: movesSmall},
	{Name: "protocol.peer_bytes_per_query", Unit: "B", Better: "lower", Moves: "nothing on loopback: the bandwidth record"},
	{Name: "protocol.peer_msgs_per_query", Unit: "count", Better: "lower", Moves: "nothing on loopback: the message record"},
	{Name: "protocol.peer_rounds_per_query", Unit: "count", Better: "lower", Moves: "nothing on loopback: the round record"},

	{Name: "transport.frame_us", Unit: "us", Better: "lower", Moves: movesPaper},
	{Name: "transport.wire_bytes_per_query", Unit: "B", Better: "lower", Moves: movesPaper},

	{Name: "ingest.relay_users_per_s", Unit: "1/s", Better: "higher", Moves: movesIngest},
	{Name: "ingest.users_per_batch", Unit: "count", Better: "higher", Moves: movesIngest},
	{Name: "ingest.fanin_bytes_ratio", Unit: "ratio", Better: "higher", Moves: movesIngest},
	{Name: "ingest.ack_p50_ms", Unit: "ms", Better: "lower", Moves: movesIngest},
	{Name: "ingest.ack_p99_ms", Unit: "ms", Better: "lower", Moves: movesIngest},
	{Name: "ingest.release_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms on ingest_tree2048"},
	{Name: "ingest.rejected", Unit: "count", Better: "lower", Moves: movesIngest},
	{Name: "ingest.rehomes", Unit: "count", Better: "lower", Moves: movesIngest},
	{Name: "ingest.forward_retries", Unit: "count", Better: "lower", Moves: movesIngest},

	{Name: "deploy.collect_ms_per_user", Unit: "ms", Better: "lower", Moves: "users_per_s on serve_crowd2048, ingest_tree2048"},
	{Name: "deploy.admit_ms", Unit: "ms", Better: "lower", Moves: movesPaper},
	{Name: "deploy.query_ms_consensus", Unit: "ms", Better: "lower", Moves: "query_p50_ms on serve_*"},
	{Name: "deploy.query_ms_bottom", Unit: "ms", Better: "lower", Moves: "queries_per_s on serve_*"},
	{Name: "deploy.query_tail_ms", Unit: "ms", Better: "lower", Moves: "nothing: the tail query_p50_ms does not show, serve_paper64"},
	{Name: "deploy.query_tail_pct", Unit: "%", Better: "higher", Moves: "nothing: the percentile query_tail_ms is read at"},
	{Name: "deploy.residual_ms", Unit: "ms", Better: "lower", Moves: movesPaper},
	{Name: "deploy.residual_frac", Unit: "ratio", Better: "lower", Moves: movesPaper},
	{Name: "deploy.retries", Unit: "count", Better: "lower", Moves: "query_p50_ms on serve_*"},
	{Name: "deploy.refused", Unit: "count", Better: "lower", Moves: "queries_per_s on serve_*"},

	{Name: "fsx.write_sync_us", Unit: "us", Better: "lower", Moves: movesPaper},
	{Name: "obs.journal_append_us", Unit: "us", Better: "lower", Moves: movesPaper},
	{Name: "obs.journal_records_per_query", Unit: "count", Better: "lower", Moves: movesPaper},
	{Name: "dp.account_us", Unit: "us", Better: "lower", Moves: movesPaper},

	{Name: "harness.samples", Unit: "count", Better: "higher", Moves: "nothing: qualifies the medians"},
	{Name: "harness.warmup_s", Unit: "s", Better: "lower", Moves: "nothing: lazy set-up outside setup_s"},
	{Name: "harness.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "nothing: qualifies the traced numbers"},
	{Name: "harness.peak_heap_mb", Unit: "MB", Better: "lower", Moves: "nothing: memory moved into set-up shows here"},
	{Name: "harness.failed_frac", Unit: "ratio", Better: "lower", Moves: "nothing: must stay 0"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}
