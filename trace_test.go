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

// TestTraceBytesMatchMeterExactly is the observability acceptance check:
// the QueryTrace's per-phase byte totals must equal the transport meter's
// totals exactly, because step labels and trace phases are the same strings
// and FillTrace copies the meter's numbers verbatim — at every worker bound.
func TestTraceBytesMatchMeterExactly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range []int{1, 4} {
		runtime.GOMAXPROCS(par)
		e := testEngine(t, 5, 4)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		votes := [][]float64{
			oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 1),
		}
		out, stats, err := e.LabelInstanceMetered(ctx, votes)
		cancel()
		if err != nil {
			t.Fatalf("par=%d: LabelInstanceMetered: %v", par, err)
		}
		if !out.Consensus {
			t.Fatalf("par=%d: expected consensus", par)
		}
		tr := e.LastTrace()
		if tr == nil {
			t.Fatalf("par=%d: LastTrace is nil after a query", par)
		}

		var meterSent, meterRecvd int64
		byStep := map[string]StepStats{}
		for _, s := range stats {
			meterSent += s.BytesSent
			meterRecvd += s.BytesReceived
			byStep[s.Step] = s
		}
		traceSent, traceRecvd := tr.TotalBytes()
		if traceSent != meterSent || traceRecvd != meterRecvd {
			t.Fatalf("par=%d: trace bytes %d/%d != meter bytes %d/%d",
				par, traceSent, traceRecvd, meterSent, meterRecvd)
		}
		// Per-phase equality, not just totals.
		for step, ms := range byStep {
			span, ok := tr.Span(step)
			if !ok {
				t.Fatalf("par=%d: metered step %q has no trace span", par, step)
			}
			if span.BytesSent != ms.BytesSent || span.BytesReceived != ms.BytesReceived {
				t.Fatalf("par=%d: step %q trace %d/%d != meter %d/%d",
					par, step, span.BytesSent, span.BytesReceived, ms.BytesSent, ms.BytesReceived)
			}
		}

		if tr.Result == "" || tr.Duration <= 0 {
			t.Fatalf("par=%d: trace not sealed: %+v", par, tr)
		}
		if len(tr.Spans) < 5 {
			t.Fatalf("par=%d: expected >= 5 phase spans, got %d", par, len(tr.Spans))
		}
		if _, ok := tr.Span("secure-comparison(4)"); !ok {
			t.Fatalf("par=%d: comparison phase missing from trace", par)
		}
	}
}

// TestTraceRecordsOpsAndUnmeteredQueries covers the plain LabelInstance
// path: even without the metered entry point every query produces a trace
// with op counts and traffic.
func TestTraceRecordsOpsAndUnmeteredQueries(t *testing.T) {
	e := testEngine(t, 4, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	votes := [][]float64{oneHot(3, 1), oneHot(3, 1), oneHot(3, 1), oneHot(3, 0)}
	if _, err := e.LabelInstance(ctx, votes); err != nil {
		t.Fatal(err)
	}
	tr := e.LastTrace()
	if tr == nil {
		t.Fatal("LastTrace nil after unmetered query")
	}
	if sent, recvd := tr.TotalBytes(); sent == 0 || recvd == 0 {
		t.Fatalf("unmetered query trace has no traffic: %d/%d", sent, recvd)
	}
	cmp, ok := tr.Span("secure-comparison(4)")
	if !ok {
		t.Fatal("comparison span missing")
	}
	if cmp.Ops["dgk_enc"] == 0 {
		t.Fatalf("comparison span recorded no DGK encryptions: %+v", cmp.Ops)
	}
	if tr.Summary() == "" {
		t.Fatal("empty trace summary")
	}
}

// TestEngineJournalMatchesMeter extends the byte-equality acceptance check
// to the durable journal: with Config.JournalPath set, the span events
// written to disk must carry exactly the transport meter's numbers, the
// chain must verify, and accountant spends must be on the record.
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
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	votes := [][]float64{
		oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 2), oneHot(4, 2),
	}
	_, stats, err := e.LabelInstanceMetered(ctx, votes)
	if err != nil {
		t.Fatal(err)
	}
	// A batch query on top records privacy spends (σ > 0).
	if _, err := e.LabelBatch(ctx, [][][]float64{votes}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

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

	var meterSent, meterRecvd int64
	for _, s := range stats {
		meterSent += s.BytesSent
		meterRecvd += s.BytesReceived
	}
	var spanSent, spanRecvd int64
	var queries, spends int
	for _, ev := range evs {
		switch ev.Type {
		case obs.EventSpan:
			if ev.Instance == 0 { // the metered query
				spanSent += ev.BytesSent
				spanRecvd += ev.BytesReceived
			}
		case obs.EventQuery:
			queries++
		case obs.EventSpend:
			spends++
		}
	}
	if spanSent != meterSent || spanRecvd != meterRecvd {
		t.Errorf("journaled span bytes %d/%d != meter totals %d/%d (the invariant must survive the trip to disk)",
			spanSent, spanRecvd, meterSent, meterRecvd)
	}
	if queries != 2 {
		t.Errorf("journaled %d query records, want 2 (metered + batch)", queries)
	}
	// One SVT spend always, one RNM spend only on consensus release.
	if spends < 1 {
		t.Error("no accountant spend events journaled despite σ > 0")
	}
}

// TestEngineStats checks the library-level metrics snapshot carries the
// counter families the admin endpoint exposes.
func TestEngineStats(t *testing.T) {
	e := testEngine(t, 3, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	votes := [][]float64{oneHot(3, 0), oneHot(3, 0), oneHot(3, 0)}
	if _, err := e.LabelInstance(ctx, votes); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range e.Stats() {
		seen[p.Name] = true
	}
	for _, want := range []string{
		"paillier_encrypt_total", "paillier_decrypt_total", "paillier_add_total",
		"dgk_encrypt_total", "dgk_comparisons_total", "dgk_zerotest_total",
		"transport_step_bytes_total", "protocol_phase_seconds",
	} {
		if !seen[want] {
			t.Errorf("Stats missing metric family %q", want)
		}
	}
	if obs.Default.CounterValue("paillier_encrypt_total") == 0 {
		t.Error("paillier encrypt counter is zero after a query")
	}
}
