// Command trace inspects the event journals written by the servers and the
// user clients (-journal). A library engine's Config.JournalPath is its S1
// server's journal, one trace ID per call.
//
// Merge journals from every process of a run into per-query timelines:
//
//	trace s1.jsonl s2.jsonl user0.jsonl
//
// Verify the tamper-evident hash chain of each journal:
//
//	trace -verify s1.jsonl s2.jsonl
//
// A journal that outgrew its size limit was rotated to s1.jsonl.1,
// s1.jsonl.2, …; naming s1.jsonl reads and verifies those segments, oldest
// first, and the live file as one chain.
//
// Export a Chrome trace-event file (load it in chrome://tracing or Perfetto):
//
//	trace -chrome run.json s1.jsonl s2.jsonl
//
// Journals are grouped by the cross-process trace ID that S1 mints and
// propagates; each process's trace-begin anchor event marks when it joined
// the run, making clock skew between hosts visible in the header.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/privconsensus/privconsensus/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	var (
		verify  = fs.Bool("verify", false, "verify each journal's hash chain instead of merging")
		chrome  = fs.String("chrome", "", "write a Chrome trace-event JSON file to this path")
		traceID = fs.String("trace", "", "only show the trace with this ID (e.g. t-0123456789abcdef)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("usage: trace [-verify] [-chrome out.json] [-trace id] journal.jsonl ...")
	}
	if *verify {
		return verifyJournals(paths, out)
	}
	events, err := readJournals(paths)
	if err != nil {
		return err
	}
	traces := groupByTrace(events, *traceID)
	if len(traces) == 0 {
		if *traceID != "" {
			return fmt.Errorf("no events for trace %s", *traceID)
		}
		return fmt.Errorf("no events in %s", strings.Join(paths, ", "))
	}
	if *chrome != "" {
		return writeChrome(*chrome, traces, out)
	}
	for _, tr := range traces {
		renderTrace(out, tr)
	}
	return nil
}

// verifyJournals checks every file's hash chain and reports per-file record
// counts; the first broken chain aborts with its error.
func verifyJournals(paths []string, out io.Writer) error {
	total := 0
	for _, p := range paths {
		n, err := obs.VerifyJournalFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d records, chain OK\n", p, n)
		total += n
	}
	fmt.Fprintf(out, "verified %d records across %d journals\n", total, len(paths))
	return nil
}

// readJournals reads every journal leniently (live files and torn tails
// tolerated) into one event list.
func readJournals(paths []string) ([]obs.Event, error) {
	var all []obs.Event
	for _, p := range paths {
		evs, err := obs.ReadJournalFile(p)
		if err != nil {
			return nil, err
		}
		all = append(all, evs...)
	}
	return all, nil
}

// mergedTrace is every event of one cross-process trace, time-sorted.
type mergedTrace struct {
	id     string // "" for untraced processes
	events []obs.Event
}

// groupByTrace splits the events by trace ID (stable, sorted by ID, the
// untraced group last) and time-sorts each group. filter, when non-empty,
// keeps only that ID.
func groupByTrace(events []obs.Event, filter string) []mergedTrace {
	byID := map[string][]obs.Event{}
	for _, ev := range events {
		if filter != "" && ev.Trace != filter {
			continue
		}
		byID[ev.Trace] = append(byID[ev.Trace], ev)
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		if id != "" {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if _, ok := byID[""]; ok {
		ids = append(ids, "")
	}
	out := make([]mergedTrace, 0, len(ids))
	for _, id := range ids {
		evs := byID[id]
		sort.SliceStable(evs, func(a, b int) bool { return eventTime(evs[a]) < eventTime(evs[b]) })
		out = append(out, mergedTrace{id: id, events: evs})
	}
	return out
}

// eventTime positions an event on the timeline: the recorded start when it
// carries one (spans and point annotations are journaled in a batch at
// query end, so their append time is too late), the append time otherwise.
func eventTime(ev obs.Event) int64 {
	if ev.StartNs != 0 {
		return ev.StartNs
	}
	return ev.TimeNs
}

// anchorOffsets maps each role to its trace-begin anchor time; the earliest
// anchor (or event, absent anchors) is the trace origin.
func anchorOffsets(evs []obs.Event) (t0 int64, anchors map[string]int64, roles []string) {
	anchors = map[string]int64{}
	seen := map[string]bool{}
	for _, ev := range evs {
		if !seen[ev.Role] {
			seen[ev.Role] = true
			roles = append(roles, ev.Role)
		}
		if ev.Type == obs.EventTraceBegin {
			if _, ok := anchors[ev.Role]; !ok {
				anchors[ev.Role] = ev.TimeNs
			}
		}
	}
	sort.Strings(roles)
	t0 = int64(0)
	for _, ev := range evs {
		if t := eventTime(ev); t0 == 0 || (t != 0 && t < t0) {
			t0 = t
		}
	}
	for _, at := range anchors {
		if t0 == 0 || at < t0 {
			t0 = at
		}
	}
	return t0, anchors, roles
}

// barWidth is the column budget of the per-span Gantt bars.
const barWidth = 32

// renderTrace prints one trace as a per-query text Gantt across processes.
func renderTrace(w io.Writer, tr mergedTrace) {
	id := tr.id
	if id == "" {
		id = "(untraced)"
	}
	t0, anchors, roles := anchorOffsets(tr.events)
	fmt.Fprintf(w, "== trace %s: %d events from %s\n", id, len(tr.events), strings.Join(roles, ", "))
	for _, role := range roles {
		if at, ok := anchors[role]; ok {
			fmt.Fprintf(w, "   %-8s joined %+v after trace start\n", role, time.Duration(at-t0).Round(time.Microsecond))
		}
	}

	// Session-scoped events (instance -1): uploads, faults, retries,
	// rejections — one chronological list.
	session := filterEvents(tr.events, func(ev obs.Event) bool {
		return ev.Instance < 0 && ev.Type != obs.EventTraceBegin
	})
	if len(session) > 0 {
		fmt.Fprintf(w, "   -- session\n")
		for _, ev := range session {
			renderEventLine(w, ev, t0)
		}
	}

	for _, inst := range instancesOf(tr.events) {
		fmt.Fprintf(w, "   -- instance %d\n", inst)
		spans := filterEvents(tr.events, func(ev obs.Event) bool {
			return ev.Instance == inst && ev.Type == obs.EventSpan
		})
		renderGantt(w, spans)
		for _, ev := range filterEvents(tr.events, func(ev obs.Event) bool {
			return ev.Instance == inst && ev.Type != obs.EventSpan && ev.Type != obs.EventQuery
		}) {
			renderEventLine(w, ev, t0)
		}
		for _, ev := range filterEvents(tr.events, func(ev obs.Event) bool {
			return ev.Instance == inst && ev.Type == obs.EventQuery
		}) {
			line := fmt.Sprintf("   query %s [%s] attempt %d: %s in %v (tx %s rx %s)",
				ev.Query, ev.Role, ev.Attempt, ev.Note,
				time.Duration(ev.DurNs).Round(time.Microsecond),
				humanBytes(ev.BytesSent), humanBytes(ev.BytesReceived))
			if ev.Err != "" {
				line += " err=" + ev.Err
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintln(w)
}

// instancesOf returns the sorted distinct non-session instance indices.
func instancesOf(evs []obs.Event) []int {
	seen := map[int]bool{}
	var out []int
	for _, ev := range evs {
		if ev.Instance >= 0 && !seen[ev.Instance] {
			seen[ev.Instance] = true
			out = append(out, ev.Instance)
		}
	}
	sort.Ints(out)
	return out
}

// filterEvents returns the events matching keep, preserving time order.
func filterEvents(evs []obs.Event, keep func(obs.Event) bool) []obs.Event {
	var out []obs.Event
	for _, ev := range evs {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// renderGantt prints one bar line per span, positioned within the
// instance's own [earliest start, latest end] window so concurrent phases
// on different processes line up visually.
func renderGantt(w io.Writer, spans []obs.Event) {
	if len(spans) == 0 {
		return
	}
	lo, hi := int64(0), int64(0)
	for _, s := range spans {
		start, end := s.StartNs, s.StartNs+s.DurNs
		if lo == 0 || start < lo {
			lo = start
		}
		if end > hi {
			hi = end
		}
	}
	window := hi - lo
	if window <= 0 {
		window = 1
	}
	for _, s := range spans {
		from := int((s.StartNs - lo) * barWidth / window)
		cols := int(s.DurNs * barWidth / window)
		if cols < 1 {
			cols = 1
		}
		if from >= barWidth {
			from = barWidth - 1
		}
		if from+cols > barWidth {
			cols = barWidth - from
		}
		bar := strings.Repeat(" ", from) + strings.Repeat("#", cols) +
			strings.Repeat(" ", barWidth-from-cols)
		line := fmt.Sprintf("   %-6s %-26s %10v [%s] tx %s rx %s",
			s.Role, s.Phase, time.Duration(s.DurNs).Round(time.Microsecond), bar,
			humanBytes(s.BytesSent), humanBytes(s.BytesReceived))
		if s.Err != "" {
			line += " err=" + s.Err
		}
		fmt.Fprintln(w, line)
	}
}

// renderEventLine prints one point annotation (retry, fault, rejection,
// quorum decision, δ correction, spend) with its offset from trace start.
func renderEventLine(w io.Writer, ev obs.Event, t0 int64) {
	at := time.Duration(eventTime(ev) - t0).Round(time.Microsecond)
	detail := ev.Note
	if ev.Phase != "" {
		detail = strings.TrimSpace(ev.Phase + " " + detail)
	}
	line := fmt.Sprintf("   %-6s %-16s +%-12v %s", ev.Role, ev.Type, at, detail)
	if ev.Attempt > 0 {
		line += fmt.Sprintf(" attempt=%d", ev.Attempt)
	}
	if ev.DurNs > 0 {
		line += fmt.Sprintf(" dur=%v", time.Duration(ev.DurNs).Round(time.Microsecond))
	}
	if ev.Err != "" {
		line += " err=" + ev.Err
	}
	fmt.Fprintln(w, strings.TrimRight(line, " "))
}

// humanBytes renders a byte count compactly (b, kB, MB).
func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%db", n)
	}
}

// chromeEvent is one Chrome trace-event record (the subset Perfetto and
// chrome://tracing consume: complete "X" spans, instant "i" markers and
// process_name metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports every trace to one Chrome trace-event JSON file. Each
// role becomes a process (named via metadata events), each query instance a
// thread, so the cross-process Gantt appears natively in the viewer.
func writeChrome(path string, traces []mergedTrace, out io.Writer) error {
	var events []chromeEvent
	pids := map[string]int{}
	pidOf := func(role string) int {
		if pid, ok := pids[role]; ok {
			return pid
		}
		pid := len(pids) + 1
		pids[role] = pid
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": role},
		})
		return pid
	}
	n := 0
	for _, tr := range traces {
		for _, ev := range tr.events {
			pid := pidOf(ev.Role)
			tid := ev.Instance
			if tid < 0 {
				tid = 0 // session lane
			} else {
				tid++ // instance i on thread i+1
			}
			ts := float64(eventTime(ev)) / 1e3 // µs
			args := map[string]any{"trace": tr.id, "seq": ev.Seq}
			if ev.Query != "" {
				args["query"] = ev.Query
			}
			if ev.Note != "" {
				args["note"] = ev.Note
			}
			if ev.Err != "" {
				args["err"] = ev.Err
			}
			switch ev.Type {
			case obs.EventSpan, obs.EventQuery:
				name := ev.Phase
				if ev.Type == obs.EventQuery {
					name = "query " + ev.Query
				}
				args["tx"] = ev.BytesSent
				args["rx"] = ev.BytesReceived
				events = append(events, chromeEvent{
					Name: name, Ph: "X", Ts: ts, Dur: float64(ev.DurNs) / 1e3,
					Pid: pid, Tid: tid, Args: args,
				})
			default:
				events = append(events, chromeEvent{
					Name: ev.Type, Ph: "i", Ts: ts, Pid: pid, Tid: tid,
					S: "p", Args: args,
				})
			}
			n++
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d events (%d traces) to %s\n", n, len(traces), path)
	return nil
}
