package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{50, 30}, {90, 50}, {20, 10}, {21, 20}, {100, 50}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The driver judges spreads with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v, %v, want 1, 4.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	render := func(seed int64) string {
		s, err := NewSchedule(seed, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		return s.Render(40)
	}
	if render(7) != render(7) {
		t.Error("same seed gave different schedules")
	}
	if render(7) == render(8) {
		t.Error("different seeds gave the same schedule")
	}
	s, _ := NewSchedule(7, 120, 10)
	kinds := map[string]int{}
	for i := 0; i < 40; i++ {
		q := s.Next()
		kinds[q.Kind]++
		sum := 0
		for _, c := range q.Counts {
			sum += c
		}
		if sum != 120 || len(q.Labels) != 120 {
			t.Fatalf("query %d covers %d users in counts, %d in labels", i, sum, len(q.Labels))
		}
	}
	if kinds[kindUnanimous] != 20 || kinds[kindMajority] != 10 || kinds[kindBottom] != 10 {
		t.Errorf("kind mix over ten blocks: %v", kinds)
	}
	if _, err := NewSchedule(1, 9, 10); err == nil {
		t.Error("a 9-user schedule was accepted")
	}
}

func TestOracleAssertsMargins(t *testing.T) {
	dep, err := NewDeployment(shapePaper64, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Expect(dep, Query{Kind: kindMajority, Counts: []int{0, 8, 2, 0, 0, 0, 0, 0, 0, 0}})
	if err != nil || !exp.Consensus || exp.Label != 1 {
		t.Fatalf("80/20: %+v, %v", exp, err)
	}
	if exp.Check(QueryResult{Consensus: true, Label: 2}) == nil || exp.Check(QueryResult{Label: -1}) == nil {
		t.Error("a wrong label or a missing consensus passed the oracle")
	}
	if err := exp.Check(QueryResult{Consensus: true, Label: 1}); err != nil {
		t.Error(err)
	}
	// 7 votes against a 6-vote threshold: one vote of margin is not enough.
	if _, err := Expect(dep, Query{Kind: kindMajority, Counts: []int{7, 3, 0, 0, 0, 0, 0, 0, 0, 0}}); err == nil {
		t.Error("a 1-vote threshold margin was accepted")
	}
	if _, err := Expect(dep, Query{Kind: kindBottom, Counts: []int{9, 1, 0, 0, 0, 0, 0, 0, 0, 0}}); err == nil {
		t.Error("a consensus query was accepted as a no-consensus one")
	}
	if _, err := NewDeployment("rsa512", 10, 1); err == nil {
		t.Error("an unknown key shape was accepted")
	}
}

var spansEpoch time.Time

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Name: "root", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "s1", Start: 10, End: 60, Parent: 0},
		{ID: 2, Name: "s2", Start: 40, End: 80, Parent: 0},    // overlaps s1: union is 10..80
		{ID: 3, Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{ID: 4, Name: "step", Start: 10, End: 30, Parent: 1},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 70 - 10, 1: 30, 2: 40, 3: 30, 4: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	rows := traceTable(spans)
	if len(rows) != 5 || rows[0].Name != "root" || rows[0].SelfMs != 20e-6 {
		t.Errorf("trace table %+v", rows)
	}
	var off *Recorder
	if off.Add("x", -1, 0, spansEpoch, 1) != -1 || off.Spans() != nil {
		t.Error("a nil recorder recorded")
	}
	off.End(0, spansEpoch)
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %q / %q", i, f.Workloads[i], w.Name, w.Why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, got, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := f.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, got, d)
		}
		// Every per-layer metric says which end-to-end metric it should
		// move and on which workload, or that it moves nothing and why.
		if !strings.HasPrefix(d.Moves, "nothing") && !movesNamesKnown(d.Moves) {
			t.Errorf("per-layer %s: Moves %q names no end-to-end metric and workload", d.Name, d.Moves)
		}
	}
}

// movesNamesKnown reports whether a prediction names an end-to-end metric
// and a workload (or the serve_* family).
func movesNamesKnown(moves string) bool {
	metric := false
	for _, d := range endToEnd {
		metric = metric || strings.Contains(moves, d.Name)
	}
	workload := strings.Contains(moves, "serve_*")
	for _, w := range workloads {
		workload = workload || strings.Contains(moves, w.Name)
	}
	return metric && workload
}

// contractLine is the one-line JSON object the driver reads.
type contractLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestSmokeAllWorkloads runs every workload, timed and traced, on paper64
// keys with short windows, and checks that what the binary prints is what
// spec.go and BENCHMARK.json name.
func TestSmokeAllWorkloads(t *testing.T) {
	tmp := t.TempDir()
	out := filepath.Join(tmp, "out")
	var stdout bytes.Buffer
	err := run(context.Background(), []string{"-smoke", "-seconds", "0.5", "-seed", "3",
		"-scratch", filepath.Join(tmp, "scratch"), "-out", out}, &stdout)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	var lines []contractLine
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "{") {
			continue
		}
		var l contractLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 2*len(workloads) {
		t.Fatalf("%d result lines, want %d", len(lines), 2*len(workloads))
	}
	for i, l := range lines {
		defs := defsFor(i%2 == 1) // timed then traced, per workload
		if !l.Correct || l.Attempted < 1 || l.Failed != 0 {
			t.Errorf("line %d: correct=%v attempted=%d failed=%d", i, l.Correct, l.Attempted, l.Failed)
		}
		if len(l.Metrics) != len(defs) {
			t.Errorf("line %d prints %d metrics, spec names %d", i, len(l.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := l.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("line %d: metric %s missing or in unit %q, want %q", i, d.Name, m.Unit, d.Unit)
			}
			if i%2 == 0 && !(m.Value > 0) {
				t.Errorf("line %d: end-to-end metric %s is %v, must never be 0", i, d.Name, m.Value)
			}
		}
	}
	// The layers each workload runs show up, and only those.
	serveTraced, ingestTraced := lines[1].Metrics, lines[7].Metrics
	for _, name := range []string{"client.build_ms_per_user", "dgk.comparisons_per_query", "protocol.total_ms",
		"deploy.admit_ms", "obs.journal_records_per_query", "fsx.write_sync_us", "transport.wire_bytes_per_query"} {
		if !(serveTraced[name].Value > 0) {
			t.Errorf("serve_paper64 traced: %s = %v", name, serveTraced[name].Value)
		}
	}
	for _, name := range []string{"ingest.relay_users_per_s", "ingest.users_per_batch", "ingest.ack_p50_ms", "paillier.add_us"} {
		if !(ingestTraced[name].Value > 0) {
			t.Errorf("ingest_tree2048 traced: %s = %v", name, ingestTraced[name].Value)
		}
	}
	for name, m := range serveTraced {
		if strings.HasPrefix(name, "ingest.") && m.Value != 0 {
			t.Errorf("serve_paper64 reports %s = %v", name, m.Value)
		}
	}
	for name, m := range ingestTraced {
		if (strings.HasPrefix(name, "dgk.") || strings.HasPrefix(name, "protocol.")) && m.Value != 0 {
			t.Errorf("ingest_tree2048 reports %s = %v", name, m.Value)
		}
	}
	// 25 comparisons and three more per ⊥: exact, whatever the seed.
	if got := serveTraced["dgk.comparisons_per_query"].Value; got != 25.75 {
		t.Errorf("dgk.comparisons_per_query = %v, want 25.75", got)
	}

	// Records: one per run, spans beside the traced ones, and the run set.
	for _, name := range []string{"serve_paper64.trace0.seed3.run0.json", "serve_paper64.trace1.seed3.run0.json",
		"serve_paper64.trace1.seed3.run0.spans.json", "ingest_tree2048.trace1.seed3.run0.spans.json", "runset.json"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Error(err)
		}
	}
	set, err := loadRunSet(filepath.Join(out, "runset.json"))
	if err != nil {
		t.Fatal(err)
	}
	if set.Env.NProc < 1 || set.Env.GoVersion == "" || set.Env.Seed != 3 || !set.Env.Smoke || len(set.Runs) != len(lines) {
		t.Errorf("run set env %+v with %d runs", set.Env, len(set.Runs))
	}
	if !strings.HasPrefix(set.Runs[0].KeyShape, "paper64/") || set.Runs[0].Samples < 1 {
		t.Errorf("run 0: key shape %q, %d samples", set.Runs[0].KeyShape, set.Runs[0].Samples)
	}
	if left, _ := os.ReadDir(filepath.Join(tmp, "scratch")); len(left) != 0 {
		t.Errorf("scratch not cleaned: %v", left)
	}
}

func TestCompare(t *testing.T) {
	tmp := t.TempDir()
	mk := func(name string, nproc int, shape string, latency ...float64) string {
		set := RunSet{Env: Env{NProc: nproc, GitHead: name}}
		for _, l := range latency {
			set.Runs = append(set.Runs, Result{Workload: "serve_paper64", KeyShape: shape, Attempted: 100, Metrics: map[string]float64{
				"setup_s": 1, "query_p50_ms": l, "queries_per_s": 1000 / l, "users_per_s": 10000 / l}})
		}
		set.Runs = append(set.Runs, Result{Workload: "serve_paper64", Trace: true, KeyShape: shape}) // ignored
		path := filepath.Join(tmp, name+".json")
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base", 2, "paper64", 50, 51, 52, 51, 50)
	same := mk("same", 2, "paper64", 51, 50, 52, 50, 51)
	slow := mk("slow", 2, "paper64", 70, 71, 72, 71, 70)
	noisy := mk("noisy", 2, "paper64", 30, 51, 90, 40, 75)
	var buf bytes.Buffer
	if err := compareFiles(&buf, base, same); err != nil || strings.Contains(buf.String(), "unresolved") {
		t.Errorf("same commit: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := compareFiles(&buf, base, slow); err == nil || !strings.Contains(buf.String(), "BREACH") {
		t.Errorf("a 40%% slowdown passed:\n%s", buf.String())
	}
	buf.Reset()
	if err := compareFiles(&buf, slow, base); err != nil {
		t.Errorf("an improvement failed: %v", err)
	}
	buf.Reset()
	if err := compareFiles(&buf, base, noisy); err != nil || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a spread wider than the bound was not marked unresolved: %v\n%s", err, buf.String())
	}
	if err := compareFiles(&buf, base, mk("cpus", 4, "paper64", 50)); err == nil {
		t.Error("sets from different CPU counts were compared")
	}
	if err := compareFiles(&buf, base, mk("shape", 2, "deploy2048", 50)); err == nil {
		t.Error("sets from different key shapes were compared")
	}
	edit := func(name, from string, change func(*RunSet)) string {
		set, err := loadRunSet(from)
		if err != nil {
			t.Fatal(err)
		}
		change(set)
		path := filepath.Join(tmp, name+".json")
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	failing := edit("failing", same, func(s *RunSet) { s.Runs[2].Failed = 1 })
	buf.Reset()
	if err := compareFiles(&buf, base, failing); err == nil || !strings.Contains(buf.String(), "BREACH") {
		t.Errorf("one more failed operation passed:\n%s", buf.String())
	}
	if err := compareFiles(&buf, failing, base); err != nil {
		t.Errorf("fewer failed operations failed: %v", err)
	}
	if err := compareFiles(&buf, base, edit("seed", same, func(s *RunSet) { s.Env.Seed = 2 })); err == nil {
		t.Error("sets from different seeds were compared")
	}
	if err := compareFiles(&buf, base, edit("seconds", same, func(s *RunSet) { s.Env.Seconds = 5 })); err == nil {
		t.Error("sets from different window lengths were compared")
	}
	if err := compareFiles(&buf, base, edit("smoke", same, func(s *RunSet) { s.Env.Smoke = true })); err == nil {
		t.Error("a smoke set was compared with a full one")
	}
	if err := run(context.Background(), []string{"-compare", base}, &buf); err == nil {
		t.Error("-compare with one file was accepted")
	}
	if err := run(context.Background(), []string{"-compare", base, same}, &buf); err != nil {
		t.Error(err)
	}
}

func TestFlagsAndEnv(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-repeat", "0"}, {"-bogus"}} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v was accepted", args)
		}
	}
	root := t.TempDir()
	if got := gitHead(root); got != "unknown" {
		t.Errorf("git head outside a repository: %q", got)
	}
	git := filepath.Join(root, ".git")
	os.MkdirAll(filepath.Join(git, "refs", "heads"), 0o755)
	os.WriteFile(filepath.Join(git, "HEAD"), []byte("ref: refs/heads/main\n"), 0o644)
	os.WriteFile(filepath.Join(git, "packed-refs"), []byte("# pack-refs\nabc123 refs/heads/main\n"), 0o644)
	if got := gitHead(root); got != "abc123" {
		t.Errorf("packed ref: %q", got)
	}
	os.WriteFile(filepath.Join(git, "refs", "heads", "main"), []byte("def456\n"), 0o644)
	if got := gitHead(root); got != "def456" {
		t.Errorf("loose ref: %q", got)
	}
	os.WriteFile(filepath.Join(git, "HEAD"), []byte("0123abc\n"), 0o644)
	if got := gitHead(root); got != "0123abc" {
		t.Errorf("detached head: %q", got)
	}
	if math.IsNaN(ratio(1, 0)) || ratio(1, 0) != 0 {
		t.Error("ratio by zero")
	}
}
