package obs

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) returns the same series.
	if r.Counter("test_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3)
	g.Add(2.5)
	if got := g.Value(); got != 5.5 {
		t.Fatalf("gauge = %v, want 5.5", got)
	}

	var nilC *Counter
	nilC.Inc() // must not panic
	var nilG *Gauge
	nilG.Set(1)
	var nilH *Histogram
	nilH.Observe(1)
}

func TestLabelsDistinguishSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_bytes_total", "bytes", L("dir", "sent"))
	b := r.Counter("test_bytes_total", "bytes", L("dir", "received"))
	if a == b {
		t.Fatal("differently labelled series aliased")
	}
	a.Add(10)
	b.Add(20)
	if got := r.CounterValue("test_bytes_total", L("dir", "received")); got != 20 {
		t.Fatalf("CounterValue = %d, want 20", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 556.5 {
		t.Fatalf("sum = %v, want 556.5", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="10"} 3`,
		`test_latency_seconds_bucket{le="100"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_sum 556.5`,
		`test_latency_seconds_count 5`,
		"# TYPE test_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestDisabledRegistryIsInert(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	h := r.Histogram("test_hist", "t", DurationBuckets())
	r.SetEnabled(false)
	c.Inc()
	h.Observe(1)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled registry recorded: counter=%d hist=%d", c.Value(), h.Count())
	}
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("re-enabled counter = %d, want 1", c.Value())
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_b_total", "b").Add(2)
	r.Counter("test_a_total", "a", L("step", "x")).Add(1)
	r.Counter("test_a_total", "a", L("step", "w")).Add(3)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != 3 || len(s2) != 3 {
		t.Fatalf("snapshot sizes %d/%d, want 3", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || s1[i].Value != s2[i].Value {
			t.Fatalf("snapshots differ at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	// Sorted: test_a{step=w}, test_a{step=x}, test_b.
	if s1[0].Labels[0].Value != "w" || s1[1].Labels[0].Value != "x" || s1[2].Name != "test_b_total" {
		t.Fatalf("snapshot order wrong: %+v", s1)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("test_conc_total", "c", L("worker", fmt.Sprint(i%2)))
			h := r.Histogram("test_conc_hist", "h", DurationBuckets())
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 8))
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	total := r.CounterValue("test_conc_total", L("worker", "0")) +
		r.CounterValue("test_conc_total", L("worker", "1"))
	if total != 8000 {
		t.Fatalf("concurrent counter total = %d, want 8000", total)
	}
}

func TestTracerSpans(t *testing.T) {
	reg := NewRegistry()
	ops := reg.Counter("test_tracer_ops_total", "ops")
	tr := NewTracer("q1")
	tr.Watch("enc", ops)

	tr.StartPhase("phase-a")
	ops.Add(3)
	tr.EndPhase("phase-a", nil)

	tr.StartPhase("phase-b")
	ops.Add(2)
	if got := tr.OpenPhase(); got != "phase-b" {
		t.Fatalf("OpenPhase = %q, want phase-b", got)
	}
	tr.Finish("done", errors.New("boom"))

	q := tr.Trace()
	if len(q.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(q.Spans))
	}
	if q.Spans[0].Ops["enc"] != 3 || q.Spans[1].Ops["enc"] != 2 {
		t.Fatalf("op deltas wrong: %+v", q.Spans)
	}
	if q.Spans[1].Err != "boom" || q.Err != "boom" {
		t.Fatalf("error not recorded: %+v", q)
	}
	if q.Result != "done" || q.Duration <= 0 {
		t.Fatalf("finish not sealed: %+v", q)
	}
	// After Finish, OpenPhase falls back to the last errored span.
	if got := tr.OpenPhase(); got != "phase-b" {
		t.Fatalf("OpenPhase after finish = %q, want phase-b", got)
	}
}

func TestTracerSetPhaseIOAndTotals(t *testing.T) {
	tr := NewTracer("q2")
	tr.StartPhase("phase-a")
	tr.EndPhase("phase-a", nil)
	tr.SetPhaseIO("phase-a", 100, 50, 3, 2, 2)
	tr.SetPhaseIO("phase-unopened", 7, 7, 1, 1, 1)
	tr.Finish("", nil)
	q := tr.Trace()
	sent, recvd := q.TotalBytes()
	if sent != 107 || recvd != 57 {
		t.Fatalf("totals = %d/%d, want 107/57", sent, recvd)
	}
	s, ok := q.Span("phase-a")
	if !ok || s.BytesSent != 100 || s.Rounds != 2 {
		t.Fatalf("phase-a span wrong: %+v ok=%v", s, ok)
	}
	sum := q.Summary()
	for _, want := range []string{"query=q2", "tx=107B", "rx=57B", "phase-a="} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q: %s", want, sum)
		}
	}
}

func TestTracerImplicitEndOnNextPhase(t *testing.T) {
	tr := NewTracer("q3")
	tr.StartPhase("a")
	tr.StartPhase("b") // implicitly ends "a"
	q := tr.Trace()
	if len(q.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(q.Spans))
	}
	if q.Spans[0].Duration < 0 {
		t.Fatalf("implicitly ended span has no duration: %+v", q.Spans[0])
	}
}

func TestTracerContext(t *testing.T) {
	tr := NewTracer("q4")
	ctx := WithTracer(t.Context(), tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("TracerFrom did not round-trip")
	}
	if TracerFrom(t.Context()) != nil {
		t.Fatal("TracerFrom on bare context not nil")
	}
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_admin_total", "admin test counter").Add(42)
	srv, err := StartAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "test_admin_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "{") {
		t.Fatalf("/debug/vars = %d %q", code, body)
	}
}

func TestHistogramDefaultsAndPanics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_default_hist", "", nil) // defaults to DurationBuckets
	h.Observe(0.001)
	if h.Count() != 1 {
		t.Fatal("default-bucket histogram did not record")
	}
	mustPanic(t, "invalid name", func() { r.Counter("bad name", "") })
	mustPanic(t, "kind mismatch", func() { r.Gauge("test_default_hist", "") })
	mustPanic(t, "descending buckets", func() { r.Histogram("test_bad_buckets", "", []float64{2, 1}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func BenchmarkCounterEnabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	r.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_hist", "", DurationBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.01)
	}
}

// TestMintTraceID checks determinism, stream separation and rendering. The
// seeded IDs are pinned: a seeded engine and a seeded S1 journal exactly
// these.
func TestMintTraceID(t *testing.T) {
	for seed, want := range map[int64]string{7: "t-17fe391018162ef9", 42: "t-78c6ba50ea2ecfbc"} {
		id, err := MintTraceID(seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := TraceIDString(id); got != want {
			t.Errorf("seed %d minted %s, want %s", seed, got, want)
		}
	}
	a, err := MintTraceID(42)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := MintTraceID(43); err != nil || c == a {
		t.Errorf("seeds 42 and 43 minted %d and %d (%v)", a, c, err)
	}
	if random, err := MintTraceID(0); err != nil || random <= 0 {
		t.Errorf("unseeded mint returned %d (%v), want positive", random, err)
	}
	if got := TraceIDString(0x1f); got != "t-000000000000001f" {
		t.Errorf("TraceIDString(0x1f) = %q", got)
	}
	if got := TraceIDString(0); got != "" {
		t.Errorf("TraceIDString(0) = %q, want empty (untraced)", got)
	}
}
