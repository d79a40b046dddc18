package privconsensus

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/obs"
)

// stepBytes reads the process-wide transport_step_bytes_total series:
// step → dir ("sent", "received") → bytes.
func stepBytes() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, p := range obs.Default.Snapshot() {
		if p.Name != "transport_step_bytes_total" {
			continue
		}
		var step, dir string
		for _, l := range p.Labels {
			switch l.Key {
			case "step":
				step = l.Value
			case "dir":
				dir = l.Value
			}
		}
		if out[step] == nil {
			out[step] = map[string]float64{}
		}
		out[step][dir] += p.Value
	}
	return out
}

// labelTraced runs one query on e and returns the traces its two servers
// published to obs.DefaultTraces, keyed "s1" and "s2".
func labelTraced(t *testing.T, e *Engine, votes [][]float64) (*Outcome, map[string]*obs.QueryTrace) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	before := obs.DefaultTraces.Total()
	out, err := e.LabelInstance(ctx, votes)
	if err != nil {
		t.Fatalf("LabelInstance: %v", err)
	}
	all := obs.DefaultTraces.Traces()
	added := int(obs.DefaultTraces.Total() - before)
	traces := map[string]*obs.QueryTrace{}
	for _, tr := range all[len(all)-added:] {
		role, _, _ := strings.Cut(tr.ID, "-")
		traces[role] = tr
	}
	if added != 2 || traces["s1"] == nil || traces["s2"] == nil {
		t.Fatalf("query published %d traces %v, want one per server", added, traces)
	}
	return out, traces
}

// TestTraceBytesMatchMeterExactly is the observability acceptance check:
// per phase, the bytes the two servers' QueryTraces record equal what their
// transport meters fed the process-wide transport_step_bytes_total series,
// and what S1 sent S2 received — at every worker bound.
func TestTraceBytesMatchMeterExactly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range []int{1, 4} {
		runtime.GOMAXPROCS(par)
		e := testEngine(t, 5, 4)
		votes := [][]float64{
			oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 1),
		}
		before := stepBytes()
		out, traces := labelTraced(t, e, votes)
		after := stepBytes()
		if !out.Consensus {
			t.Fatalf("par=%d: expected consensus", par)
		}
		traced := map[string]map[string]float64{}
		for _, tr := range traces {
			if tr.Result == "" || tr.Duration <= 0 || len(tr.Spans) < 5 {
				t.Fatalf("par=%d: trace %s not sealed: %+v", par, tr.ID, tr)
			}
			for _, sp := range tr.Spans {
				if traced[sp.Phase] == nil {
					traced[sp.Phase] = map[string]float64{}
				}
				traced[sp.Phase]["sent"] += float64(sp.BytesSent)
				traced[sp.Phase]["received"] += float64(sp.BytesReceived)
			}
		}
		if traced["secure-comparison(4)"]["sent"] == 0 {
			t.Fatalf("par=%d: comparison phase missing from the traces", par)
		}
		for step, dirs := range after {
			for dir, v := range dirs {
				if got := traced[step][dir]; got != v-before[step][dir] {
					t.Errorf("par=%d: step %q %s: traces %g bytes, meters %g", par, step, dir, got, v-before[step][dir])
				}
			}
		}
		for step, dirs := range traced {
			if dirs["sent"] != dirs["received"] {
				t.Errorf("par=%d: step %q: %g bytes sent, %g received", par, step, dirs["sent"], dirs["received"])
			}
		}
	}
}

// TestTraceRecordsOpsAndUnmeteredQueries covers what a library query
// leaves behind: S1's trace carries the per-phase operation counts and
// traffic, and a readable summary.
func TestTraceRecordsOpsAndUnmeteredQueries(t *testing.T) {
	e := testEngine(t, 4, 3)
	_, traces := labelTraced(t, e, [][]float64{oneHot(3, 1), oneHot(3, 1), oneHot(3, 1), oneHot(3, 0)})
	tr := traces["s1"]
	if sent, recvd := tr.TotalBytes(); sent == 0 || recvd == 0 {
		t.Fatalf("S1 trace has no traffic: %d/%d", sent, recvd)
	}
	found := false
	for _, sp := range tr.Spans {
		if sp.Phase == "secure-comparison(4)" {
			found = true
			if sp.Ops["dgk_enc"] == 0 {
				t.Fatalf("comparison span recorded no DGK encryptions: %+v", sp.Ops)
			}
		}
	}
	if !found {
		t.Fatal("comparison span missing")
	}
	if tr.Summary() == "" {
		t.Fatal("empty trace summary")
	}
}

// TestEngineJournalMatchesMeter extends the byte-equality acceptance check
// to the durable journal: with Config.JournalPath set, S1 journals every
// call under its own trace ID, its span events carry exactly the bytes the
// transport meters counted, the chain verifies across calls, and the
// ledger's spends are on the record.
func TestEngineJournalMatchesMeter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.jsonl")
	cfg := DefaultConfig(5)
	cfg.Classes = 4
	cfg.Sigma1, cfg.Sigma2 = 0.5, 0.3
	cfg.Seed = 42
	cfg.JournalPath = path
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]float64{
		oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 2),
	}
	before := stepBytes()
	labelTraced(t, e, votes)
	after := stepBytes()
	// A second call appends to the same journal under a new trace ID.
	labelTraced(t, e, votes)

	if n, err := obs.VerifyJournalFile(path); err != nil || n == 0 {
		t.Fatalf("engine journal: %d records, err %v", n, err)
	}
	evs, err := obs.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if evs[0].Type != obs.EventTraceBegin || !strings.HasPrefix(evs[0].Trace, "t-") {
		t.Fatalf("first record %+v, want a trace-begin anchor with a minted t-… ID", evs[0])
	}
	var meter float64 // bytes both servers sent in the first call
	for step, dirs := range after {
		meter += dirs["sent"] - before[step]["sent"]
	}
	var spanBytes float64
	traces := map[string]bool{}
	var queries, spends int
	for _, ev := range evs {
		if ev.Role != "s1" {
			t.Fatalf("record %+v not written by S1", ev)
		}
		traces[ev.Trace] = true
		switch ev.Type {
		case obs.EventSpan:
			if ev.Trace == evs[0].Trace {
				// S1 received what S2 sent: both directions of S1's
				// spans add up to all the bytes both servers sent.
				spanBytes += float64(ev.BytesSent + ev.BytesReceived)
			}
		case obs.EventQuery:
			queries++
		case obs.EventSpend:
			spends++
		}
	}
	if spanBytes != meter {
		t.Errorf("journaled span bytes %g != metered bytes %g (the invariant must survive the trip to disk)", spanBytes, meter)
	}
	if len(traces) != 2 || queries != 2 {
		t.Errorf("journal holds %d traces and %d query records, want 2 and 2 (one per call)", len(traces), queries)
	}
	// One SVT spend always, one RNM spend only on consensus release.
	if spends < 2 {
		t.Errorf("%d spend events journaled for 2 queries at σ > 0", spends)
	}
}

// TestEngineStats checks that an engine's queries feed the process-wide
// metric families the admin endpoint exposes.
func TestEngineStats(t *testing.T) {
	e := testEngine(t, 3, 3)
	labelTraced(t, e, [][]float64{oneHot(3, 0), oneHot(3, 0), oneHot(3, 0)})
	seen := map[string]float64{}
	for _, p := range obs.Default.Snapshot() {
		seen[p.Name] += p.Value
	}
	for _, want := range []string{
		"paillier_encrypt_total", "paillier_decrypt_total", "paillier_add_total",
		"dgk_encrypt_total", "dgk_comparisons_total", "dgk_zerotest_total",
		"transport_step_bytes_total", "protocol_phase_seconds",
	} {
		if _, ok := seen[want]; !ok {
			t.Errorf("metrics missing family %q", want)
		}
	}
	if seen["paillier_encrypt_total"] == 0 {
		t.Error("paillier encrypt counter is zero after a query")
	}
}
