package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/privconsensus/privconsensus/internal/obs"
)

// writeTestJournal builds a journal with one completed query plus a retry
// annotation, as role under dir, stamped with trace.
func writeTestJournal(t *testing.T, dir, role, trace string) string {
	t.Helper()
	path := filepath.Join(dir, role+".jsonl")
	j, err := obs.OpenJournal(path, obs.JournalOptions{Role: role})
	if err != nil {
		t.Fatal(err)
	}
	if trace != "" {
		if err := j.BeginTrace(trace); err != nil {
			t.Fatal(err)
		}
	}
	tr := obs.NewTracer(role + "-q0")
	tr.StartPhase("secure-sum(2)")
	tr.EndPhase("secure-sum(2)", nil)
	tr.StartPhase("argmax(4)")
	tr.EndPhase("argmax(4)", nil)
	tr.SetPhaseIO("secure-sum(2)", 120, 80, 2, 2, 1)
	tr.SetPhaseIO("argmax(4)", 400, 300, 6, 6, 3)
	tr.Finish("consensus label=2", nil)
	if err := j.AppendTrace(0, 1, tr.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(obs.Event{Type: obs.EventRetry, Instance: -1, Attempt: 1, Note: "reconnect"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunMerge merges two server journals into one per-query timeline.
func TestRunMerge(t *testing.T) {
	dir := t.TempDir()
	const trace = "t-00000000000000aa"
	s1 := writeTestJournal(t, dir, "s1", trace)
	s2 := writeTestJournal(t, dir, "s2", trace)

	var buf bytes.Buffer
	if err := run([]string{s1, s2}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if c := strings.Count(out, "== trace "); c != 1 {
		t.Fatalf("%d trace headers, want 1 merged timeline:\n%s", c, out)
	}
	for _, want := range []string{
		"== trace " + trace,
		"s1, s2",        // both roles in the header
		"-- instance 0", // the instance section
		"secure-sum(2)", // a span row
		"query s1-q0",   // S1's closing query line
		"query s2-q0",   // S2's closing query line
		"-- session",    // the session-scoped retry annotation
		"reconnect",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged output missing %q:\n%s", want, out)
		}
	}
	// Both processes joined the same anchor-aligned timeline.
	if c := strings.Count(out, "joined"); c != 2 {
		t.Errorf("%d anchor lines, want 2 (one per role):\n%s", c, out)
	}
}

// TestRunTraceFilter keeps only the requested trace ID.
func TestRunTraceFilter(t *testing.T) {
	dir := t.TempDir()
	a := writeTestJournal(t, dir, "s1", "t-00000000000000aa")
	b := writeTestJournal(t, dir, "s2", "t-00000000000000bb")

	var buf bytes.Buffer
	if err := run([]string{"-trace", "t-00000000000000bb", a, b}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "t-00000000000000aa") || !strings.Contains(out, "t-00000000000000bb") {
		t.Errorf("-trace filter leaked the other trace:\n%s", out)
	}
	if err := run([]string{"-trace", "t-00000000000000cc", a, b}, &bytes.Buffer{}); err == nil {
		t.Error("filtering on an absent trace ID succeeded, want an error")
	}
}

// TestRunVerify exercises the chain verification mode, including a
// tampered journal.
func TestRunVerify(t *testing.T) {
	dir := t.TempDir()
	s1 := writeTestJournal(t, dir, "s1", "t-00000000000000aa")
	s2 := writeTestJournal(t, dir, "s2", "t-00000000000000aa")

	var buf bytes.Buffer
	if err := run([]string{"-verify", s1, s2}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if c := strings.Count(out, "chain OK"); c != 2 {
		t.Fatalf("%d per-file OK lines, want 2:\n%s", c, out)
	}
	if !strings.Contains(out, "across 2 journals") {
		t.Errorf("missing the summary line:\n%s", out)
	}

	// Flip one byte mid-file: verification must fail loudly.
	data, err := os.ReadFile(s1)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte("consensus"), []byte("CONSENSUS"), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("test journal does not contain the marker to tamper")
	}
	if err := os.WriteFile(s1, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", s1, s2}, &bytes.Buffer{}); err == nil {
		t.Error("verify accepted a tampered journal")
	}
}

// TestRunVerifySegments verifies a rotated journal as one chain: its
// segments <path>.1, <path>.2, oldest first, then the live file. A missing
// middle segment breaks the chain.
func TestRunVerifySegments(t *testing.T) {
	dir := t.TempDir()
	path := writeTestJournal(t, dir, "s1", "t-00000000000000aa")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty string after the last newline
	if len(lines) < 3 {
		t.Fatalf("test journal has %d records, want at least 3", len(lines))
	}
	// Split the chain as rotation does: oldest records in <path>.1.
	for name, part := range map[string][][]byte{
		path + ".1": lines[:1],
		path + ".2": lines[1:2],
		path:        lines[2:],
	} {
		if err := os.WriteFile(name, bytes.Join(part, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-verify", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%s: %d records, chain OK", path, len(lines)); !strings.Contains(buf.String(), want) {
		t.Fatalf("verify printed\n%s\nwant %q", buf.String(), want)
	}
	if err := os.Remove(path + ".2"); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", path}, &bytes.Buffer{}); err == nil {
		t.Error("verify accepted a journal with a segment missing")
	}
}

// TestRunChrome exports a Chrome trace-event file and checks its shape.
func TestRunChrome(t *testing.T) {
	dir := t.TempDir()
	s1 := writeTestJournal(t, dir, "s1", "t-00000000000000aa")
	out := filepath.Join(dir, "run.json")

	var buf bytes.Buffer
	if err := run([]string{"-chrome", out, s1}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote ") {
		t.Errorf("no confirmation line: %q", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var meta, spans, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "process_name" || ev.Args["name"] != "s1" {
				t.Errorf("metadata event %+v, want process_name s1", ev)
			}
		case "X":
			spans++
		case "i":
			instants++
		}
	}
	// 2 phase spans + 1 query span; the trace-begin anchor and the retry
	// are instants.
	if meta != 1 || spans != 3 || instants < 2 {
		t.Errorf("export has %d metadata, %d spans, %d instants; want 1/3/>=2", meta, spans, instants)
	}
}

// TestRunUsage covers the argument error paths.
func TestRunUsage(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Errorf("no-args error = %v, want usage", err)
	}
	if err := run([]string{filepath.Join(t.TempDir(), "absent.jsonl")}, &bytes.Buffer{}); err == nil {
		t.Error("merging a missing journal succeeded")
	}
}
