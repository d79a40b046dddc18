package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// IngestJSON is the machine-readable ingestion record cmd/loadgen writes
// with -out. The schema field versions the layout; two records describe the
// same workload only when every shape key below matches.
type IngestJSON struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`

	// Shape keys: two records are comparable only when all of these match.
	Mode         string `json:"mode"` // "tree" or "direct"
	Users        int    `json:"users"`
	Relays       int    `json:"relays"`
	Levels       int    `json:"levels"`
	Batch        int    `json:"batch"`
	Workers      int    `json:"workers"`
	Arrival      string `json:"arrival"`
	PaillierBits int    `json:"paillier_bits"`
	Classes      int    `json:"classes"`
	Instances    int    `json:"instances"`
	Seed         int64  `json:"seed"`
	// Packing (schema v2) reports whether the measured run used
	// slot-packed submissions; packed and unpacked runs move very
	// different byte volumes, so it is a shape key.
	Packing bool `json:"packing"`

	// ElapsedNs is the wall time from the first frame sent to the last
	// upload confirmed.
	ElapsedNs int64 `json:"elapsed_ns"`
	// ThroughputUsersPerSec is Users / Elapsed — the harness's primary
	// number.
	ThroughputUsersPerSec float64 `json:"throughput_users_per_sec"`
	// Ack percentiles are per-user confirmation latencies: from the first
	// frame sent to both servers' halves durably acked.
	AckP50Ns int64 `json:"ack_p50_ns"`
	AckP95Ns int64 `json:"ack_p95_ns"`
	AckP99Ns int64 `json:"ack_p99_ns"`
	// Quorum waits are each sink's time from listening to the collector's
	// release — what a real query would have paid before protocol start.
	QuorumWaitS1Ns int64 `json:"quorum_wait_s1_ns"`
	QuorumWaitS2Ns int64 `json:"quorum_wait_s2_ns"`
	// Rehomes counts uploader endpoint failovers during the measured run
	// (expected 0 — the harness kills nothing).
	Rehomes int `json:"rehomes"`

	// BytesPerUser (schema v2) is the wire size of one user's upload for
	// one query instance (both submission halves) in the measured run's
	// packing mode.
	BytesPerUser int64 `json:"bytes_per_user"`

	// Parity: whether the relay tree and direct ingestion produced identical
	// consensus outcomes on a small full-protocol run.
	ParityChecked bool `json:"parity_checked"`
	ParityOK      bool `json:"parity_ok"`
	ParityUsers   int  `json:"parity_users"`

	// Packed comparison (schema v2): the same workload re-measured with
	// slot packing on, appended when the harness runs the compare arm so
	// one record carries the before/after numbers.
	PackedThroughputUsersPerSec float64 `json:"packed_throughput_users_per_sec,omitempty"`
	PackedAckP99Ns              int64   `json:"packed_ack_p99_ns,omitempty"`
	PackedBytesPerUser          int64   `json:"packed_bytes_per_user,omitempty"`

	// Large-run fields: a second measurement at -large scale, appended when
	// requested.
	LargeUsers                 int     `json:"large_users,omitempty"`
	LargeElapsedNs             int64   `json:"large_elapsed_ns,omitempty"`
	LargeThroughputUsersPerSec float64 `json:"large_throughput_users_per_sec,omitempty"`
	LargeAckP99Ns              int64   `json:"large_ack_p99_ns,omitempty"`
	LargeQuorumWaitS1Ns        int64   `json:"large_quorum_wait_s1_ns,omitempty"`
}

// WriteIngestJSON stamps the environment fields and writes the record to
// path, indented for diffing.
func WriteIngestJSON(path string, rec IngestJSON) error {
	rec.Schema = "privconsensus/ingest-bench/v2"
	rec.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rec.GoVersion = runtime.Version()
	rec.GOOS = runtime.GOOS
	rec.GOARCH = runtime.GOARCH
	rec.NumCPU = runtime.NumCPU()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: marshal ingest json: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
