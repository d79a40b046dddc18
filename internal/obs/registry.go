// Package obs is the repo's dependency-free observability layer: a
// concurrency-safe metrics registry exposed in Prometheus text format, a
// lightweight per-query span/trace recorder, and an HTTP admin mux serving
// /metrics, /healthz, /debug/pprof and /debug/vars.
//
// Everything is stdlib-only so the crypto primitives (paillier, dgk), the
// transport and the protocol engine can all register metrics without pulling
// external dependencies into the trust base.
//
// Privacy: instrumentation records *quantities* — operation counts, byte
// totals, durations, queue depths. It must never log plaintext votes,
// shares, blinding factors or key material; see docs/OBSERVABILITY.md.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "step", Value: "secure-sum(2)"}.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the registry's metric types.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing metric. A nil *Counter is a valid
// no-op, and a counter whose registry is disabled skips the atomic update,
// so instrumented hot paths stay cheap when observability is off.
type Counter struct {
	v  atomic.Int64
	on *atomic.Bool
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Stored as float64 bits so Set
// and Add are lock-free.
type Gauge struct {
	bits atomic.Uint64
	on   *atomic.Bool
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil || !g.on.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: one atomic add on the owning bucket plus a CAS on the sum.
type Histogram struct {
	on      *atomic.Bool
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.on.Load() {
		return
	}
	// Buckets are few (tens); linear scan beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DurationBuckets covers protocol phase timings: 100µs up to 2 minutes in
// roughly 4x steps (seconds, as Prometheus convention dictates).
func DurationBuckets() []float64 {
	return []float64{0.0001, 0.0005, 0.002, 0.01, 0.05, 0.25, 1, 4, 15, 60, 120}
}

// metric is one registered series: a name, an optional label set, and
// exactly one of the value types.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics and renders them in Prometheus text format.
// Get-or-create accessors make registration idempotent, so packages can
// declare their metrics at init and tests can look the same series up by
// name. The zero value is not usable; use NewRegistry or the package Default.
type Registry struct {
	enabled atomic.Bool
	mu      sync.Mutex
	metrics map[string]*metric
}

// Default is the process-wide registry used by the instrumented packages.
var Default = NewRegistry()

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{metrics: make(map[string]*metric)}
	r.enabled.Store(true)
	return r
}

// SetEnabled toggles collection. While disabled, every Counter.Add,
// Gauge.Set and Histogram.Observe created from this registry is a cheap
// early return; already-recorded values remain readable.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether collection is on.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// seriesKey renders the unique identity of a series (name plus sorted
// labels) used as the registry map key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	return string(appendSeriesKey(nil, name, labels))
}

// appendSeriesKey appends seriesKey(name, labels) to b.
func appendSeriesKey(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return append(b, '}')
}

// sortLabels appends labels to dst ordered by key: an insertion sort, as a
// series has a handful of labels.
func sortLabels(dst, labels []Label) []Label {
	dst = append(dst, labels...)
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Key < dst[j-1].Key; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// validName reports whether name is a legal Prometheus metric/label name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the series for (name, labels), creating it on first use.
// Registering an existing name with a different kind panics: that is a
// programming error, not a runtime condition.
//
// Instrumented code looks its labeled series up on every use (a frame's
// meter, a phase's histogram), so a lookup of an existing series builds its
// key in stack buffers and allocates nothing.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *metric {
	var labelBuf [4]Label
	var keyBuf [128]byte
	sorted := sortLabels(labelBuf[:0], labels)
	key := appendSeriesKey(keyBuf[:0], name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[string(key)]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	// A new series: the key spells out the name and label keys, so an
	// existing one was checked when it was registered.
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q on metric %q", l.Key, name))
		}
	}
	m := &metric{name: name, help: help, kind: kind, labels: slices.Clone(sorted)}
	switch kind {
	case counterKind:
		m.c = &Counter{on: &r.enabled}
	case gaugeKind:
		m.g = &Gauge{on: &r.enabled}
	}
	r.metrics[string(key)] = m
	return m
}

// Counter returns the counter for (name, labels), creating it on first use.
// help is recorded on first registration and ignored afterwards.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, counterKind, labels).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, gaugeKind, labels).g
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given bucket upper bounds (ascending; +Inf is implicit).
// Buckets are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	m := r.register(name, help, histogramKind, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.h == nil {
		if len(buckets) == 0 {
			buckets = DurationBuckets()
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
			}
		}
		m.h = &Histogram{
			on:     &r.enabled,
			bounds: append([]float64(nil), buckets...),
			counts: make([]atomic.Int64, len(buckets)+1),
		}
	}
	return m.h
}

// Point is one series value in a Snapshot.
type Point struct {
	Name   string
	Labels []Label
	Kind   string
	// Value is the counter value or gauge value; for histograms it is the
	// observation count (Sum carries the sum).
	Value float64
	Sum   float64
}

// Snapshot returns every registered series' current value, sorted by name
// then label set — deterministic across runs for golden tests.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	metrics := make([]*metric, 0, len(r.metrics))
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		metrics = append(metrics, r.metrics[k])
	}
	r.mu.Unlock()

	out := make([]Point, 0, len(metrics))
	for _, m := range metrics {
		p := Point{Name: m.name, Labels: m.labels, Kind: m.kind.String()}
		switch m.kind {
		case counterKind:
			p.Value = float64(m.c.Value())
		case gaugeKind:
			p.Value = m.g.Value()
		case histogramKind:
			p.Value = float64(m.h.Count())
			p.Sum = m.h.Sum()
		}
		out = append(out, p)
	}
	return out
}

// CounterValue returns the value of a registered counter series, or 0 if it
// does not exist. Useful for tests and Engine.Stats.
func (r *Registry) CounterValue(name string, labels ...Label) int64 {
	sorted := sortLabels(nil, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[seriesKey(name, sorted)]
	if !ok || m.kind != counterKind {
		return 0
	}
	return m.c.Value()
}

// WritePrometheus renders every series in the Prometheus text exposition
// format, grouped by metric family and sorted deterministically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	byName := make(map[string][]*metric)
	names := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		if _, seen := byName[m.name]; !seen {
			names = append(names, m.name)
		}
		byName[m.name] = append(byName[m.name], m)
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		family := byName[name]
		sort.Slice(family, func(i, j int) bool {
			return seriesKey(family[i].name, family[i].labels) < seriesKey(family[j].name, family[j].labels)
		})
		if help := family[0].help; help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, family[0].kind)
		for _, m := range family {
			switch m.kind {
			case counterKind:
				fmt.Fprintf(&b, "%s %d\n", seriesKey(m.name, m.labels), m.c.Value())
			case gaugeKind:
				fmt.Fprintf(&b, "%s %s\n", seriesKey(m.name, m.labels), formatFloat(m.g.Value()))
			case histogramKind:
				writeHistogram(&b, m)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series with cumulative buckets.
func writeHistogram(b *strings.Builder, m *metric) {
	cum := int64(0)
	for i, bound := range m.h.bounds {
		cum += m.h.counts[i].Load()
		fmt.Fprintf(b, "%s %d\n", seriesKey(m.name+"_bucket", withLE(m.labels, formatFloat(bound))), cum)
	}
	cum += m.h.counts[len(m.h.bounds)].Load()
	fmt.Fprintf(b, "%s %d\n", seriesKey(m.name+"_bucket", withLE(m.labels, "+Inf")), cum)
	fmt.Fprintf(b, "%s %s\n", seriesKey(m.name+"_sum", m.labels), formatFloat(m.h.Sum()))
	fmt.Fprintf(b, "%s %d\n", seriesKey(m.name+"_count", m.labels), m.h.Count())
}

// withLE appends the le bucket label to a label set.
func withLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Key: "le", Value: le})
}

// formatFloat renders a float the way Prometheus expects (no exponent for
// integral values in our ranges).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
