package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// journalLines reads a journal file's raw lines.
func journalLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// TestJournalAppendAndVerify covers the happy path: events are stamped with
// role/trace/seq, chained, and the file verifies.
func TestJournalAppendAndVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, JournalOptions{Role: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.BeginTrace("t-0000000000000001"); err != nil {
		t.Fatal(err)
	}
	// A second BeginTrace only restamps; no duplicate anchor.
	if err := j.BeginTrace("t-0000000000000001"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Event{Type: EventRetry, Instance: i, Note: "reconnect"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	n, err := VerifyJournalFile(path)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if n != 4 {
		t.Fatalf("verified %d records, want 4 (1 anchor + 3 events)", n)
	}
	evs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if evs[0].Type != EventTraceBegin || evs[0].Instance != -1 {
		t.Errorf("first record = %+v, want trace-begin anchor at instance -1", evs[0])
	}
	anchors := 0
	for i, ev := range evs {
		if ev.Type == EventTraceBegin {
			anchors++
		}
		if ev.Role != "s1" || ev.Trace != "t-0000000000000001" {
			t.Errorf("record %d: role=%q trace=%q, want stamped s1/t-…0001", i, ev.Role, ev.Trace)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("record %d: seq=%d, want %d", i, ev.Seq, i+1)
		}
	}
	if anchors != 1 {
		t.Errorf("%d trace-begin anchors, want exactly 1", anchors)
	}
}

// TestJournalTornTailRecovery simulates a crash mid-append: the torn final
// line is tolerated by verify, dropped on reopen, and the chain continues
// from the last intact record.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, JournalOptions{Role: "s2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Event{Type: EventFault, Instance: -1, Note: fmt.Sprintf("stall-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Crash artifact: half a record, no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"t":12345,"type":"fa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if n, err := VerifyJournalFile(path); err != nil || n != 3 {
		t.Fatalf("verify torn journal: n=%d err=%v, want 3 records and no error", n, err)
	}

	j2, err := OpenJournal(path, JournalOptions{Role: "s2"})
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	if err := j2.Append(Event{Type: EventFault, Instance: -1, Note: "post-crash"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	n, err := VerifyJournalFile(path)
	if err != nil {
		t.Fatalf("verify after recovery: %v", err)
	}
	if n != 4 {
		t.Fatalf("verified %d records after recovery, want 4", n)
	}
	evs, _ := ReadJournalFile(path)
	if last := evs[len(evs)-1]; last.Seq != 4 || last.Note != "post-crash" {
		t.Errorf("post-recovery tail = %+v, want seq 4 continuing the chain", last)
	}
}

// TestJournalReopenLongFile reopens journals longer than the tail window
// recovery reads: the chain continues from the last record whether that
// record sits in the window or, behind a torn tail longer than the window,
// only in the full file.
func TestJournalReopenLongFile(t *testing.T) {
	for _, torn := range []int{0, 70 << 10} {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		j, err := OpenJournal(path, JournalOptions{Role: "s1", maxBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		const n = 400 // ~100 KB, past the 64 KiB window
		for i := 0; i < n; i++ {
			if err := j.Append(Event{Type: EventRetry, Instance: i, Note: "instance"}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(strings.Repeat("x", torn)); err != nil {
			t.Fatal(err)
		}
		f.Close()

		j, err = OpenJournal(path, JournalOptions{Role: "s1", maxBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Event{Type: EventRetry, Instance: n, Note: "reopened"}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if m, err := VerifyJournalFile(path); err != nil || m != n+1 {
			t.Fatalf("torn tail of %d bytes: %d records verify (%v), want %d", torn, m, err, n+1)
		}
	}
}

// TestJournalTamperDetected rewrites a mid-chain record's content and
// checks VerifyJournal names the damage; removing a record breaks the
// chain links too.
func TestJournalTamperDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, JournalOptions{Role: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(Event{Type: EventRejection, Instance: -1, Note: fmt.Sprintf("reason-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	lines := journalLines(t, path)

	// Tamper 1: edit record 2's note in place (hash no longer matches).
	var ev Event
	if err := json.Unmarshal(lines[1], &ev); err != nil {
		t.Fatal(err)
	}
	ev.Note = "doctored"
	forged, _ := json.Marshal(ev)
	tampered := append([][]byte{}, lines...)
	tampered[1] = forged
	if _, err := VerifyJournal(bytes.NewReader(join(tampered))); err == nil ||
		!strings.Contains(err.Error(), "altered") {
		t.Errorf("content tamper: err = %v, want hash-mismatch report", err)
	}

	// Tamper 2: drop record 2 entirely (successor no longer chains).
	dropped := append(append([][]byte{}, lines[:1]...), lines[2:]...)
	if _, err := VerifyJournal(bytes.NewReader(join(dropped))); err == nil {
		t.Error("record removal went undetected")
	}

	// Tamper 3: a newline-terminated garbage line is NOT a tolerated torn
	// tail.
	garbled := append(append([][]byte{}, lines...), []byte("not json"))
	if _, err := VerifyJournal(bytes.NewReader(join(garbled))); err == nil {
		t.Error("terminated garbage line went undetected")
	}
}

func join(lines [][]byte) []byte {
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

// TestJournalRotation drives the size-based rotation: the chain and
// sequence numbers continue into the fresh file, and the rotated pair
// verifies as one chain.
func TestJournalRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	// One record is ~200 bytes; 1200 forces exactly one rotation over 8
	// appends.
	j, err := OpenJournal(path, JournalOptions{Role: "s1", maxBytes: 1200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := j.Append(Event{Type: EventRetry, Instance: i, Note: "instance"}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	old, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("rotation never happened: %v", err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Each segment verifies on its own (the chain anchors at whatever Prev
	// the first record carries) ...
	if _, err := VerifyJournal(bytes.NewReader(old)); err != nil {
		t.Errorf("rotated segment: %v", err)
	}
	if _, err := VerifyJournal(bytes.NewReader(cur)); err != nil {
		t.Errorf("current segment: %v", err)
	}
	// ... and the concatenation verifies as one continuous chain of all 8
	// records.
	n, err := VerifyJournal(bytes.NewReader(append(old, cur...)))
	if err != nil {
		t.Fatalf("concatenated chain: %v", err)
	}
	if n != 8 {
		t.Fatalf("concatenated chain has %d records, want 8", n)
	}
}

// TestJournalRotationKeepsEveryRecord rotates three times and more: each
// rotation takes the next unused <path>.N, so no segment is overwritten, and
// the journal — segments oldest first, then the live file — reads and
// verifies as one chain of every record, across a reopen and across a live
// file cut short right after a rotation.
func TestJournalRotationKeepsEveryRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	appendN := func(n int) {
		t.Helper()
		// ~200-byte records, so a file holds at most two.
		j, err := OpenJournal(path, JournalOptions{Role: "s1", maxBytes: 500})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := j.Append(Event{Type: EventRetry, Instance: i, Note: "instance"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want int) {
		t.Helper()
		if n, err := VerifyJournalFile(path); err != nil || n != want {
			t.Fatalf("journal verifies %d records (%v), want %d", n, err, want)
		}
		evs, err := ReadJournalFile(path)
		if err != nil || len(evs) != want {
			t.Fatalf("journal reads %d records (%v), want %d", len(evs), err, want)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d: segments out of order or lost", i, ev.Seq)
			}
		}
	}

	appendN(7)
	for n := 1; n <= 3; n++ {
		if _, err := os.Stat(fmt.Sprintf("%s.%d", path, n)); err != nil {
			t.Fatalf("segment %d missing after 7 appends: %v", n, err)
		}
	}
	check(7)
	appendN(4) // a reopen continues the chain and the numbering
	check(11)

	// A live file left empty right after a rotation continues the newest
	// segment's chain.
	_, next, err := segments(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, fmt.Sprintf("%s.%d", path, next)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	appendN(1)
	check(12)

	// Old segments go from the oldest end: rotation never reuses their
	// numbers, and what is left still verifies as one chain.
	oldest, err := ReadJournalFile(path + ".1")
	if err != nil || len(oldest) == 0 {
		t.Fatalf("oldest segment: %d records (%v)", len(oldest), err)
	}
	if err := os.Remove(path + ".1"); err != nil {
		t.Fatal(err)
	}
	appendN(4)
	if _, err := os.Stat(path + ".1"); err == nil {
		t.Fatal("rotation reused the removed oldest segment's name")
	}
	if n, err := VerifyJournalFile(path); err != nil || n != 16-len(oldest) {
		t.Fatalf("journal verifies %d records (%v), want %d", n, err, 16-len(oldest))
	}
}

// TestJournalAppendTrace journals a synthetic completed query and checks
// the span bytes written to disk equal the trace totals exactly.
func TestJournalAppendTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, JournalOptions{Role: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer("s1-q0")
	tr.StartPhase("secure-sum(2)")
	tr.EndPhase("secure-sum(2)", nil)
	tr.StartPhase("argmax(5)")
	tr.RecordEvent(EventDelta, "delta=1 participants=2")
	tr.EndPhase("argmax(5)", nil)
	tr.SetPhaseIO("secure-sum(2)", 100, 50, 2, 2, 1)
	tr.SetPhaseIO("argmax(5)", 300, 250, 4, 4, 2)
	tr.Finish("consensus label=2", nil)
	qt := tr.Trace()
	if err := j.AppendTrace(0, 1, qt); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, err := VerifyJournalFile(path); err != nil {
		t.Fatal(err)
	}
	evs, _ := ReadJournalFile(path)
	var spanTx, spanRx int64
	var spans, deltas, queries int
	for _, ev := range evs {
		switch ev.Type {
		case EventSpan:
			spans++
			spanTx += ev.BytesSent
			spanRx += ev.BytesReceived
			if ev.Query != "s1-q0" || ev.Instance != 0 || ev.Attempt != 1 {
				t.Errorf("span identity = %+v, want query s1-q0 instance 0 attempt 1", ev)
			}
			if ev.StartNs == 0 {
				t.Errorf("span %q has no start time for the Gantt", ev.Phase)
			}
		case EventDelta:
			deltas++
		case EventQuery:
			queries++
			wantTx, wantRx := qt.TotalBytes()
			if ev.BytesSent != wantTx || ev.BytesReceived != wantRx {
				t.Errorf("query totals tx=%d rx=%d, want %d/%d", ev.BytesSent, ev.BytesReceived, wantTx, wantRx)
			}
			if ev.Note != "consensus label=2" {
				t.Errorf("query note = %q", ev.Note)
			}
		}
	}
	if spans != 2 || deltas != 1 || queries != 1 {
		t.Fatalf("journaled %d spans, %d deltas, %d queries; want 2/1/1", spans, deltas, queries)
	}
	wantTx, wantRx := qt.TotalBytes()
	if spanTx != wantTx || spanRx != wantRx {
		t.Errorf("journaled span bytes tx=%d rx=%d differ from trace totals %d/%d (meter invariant broken on disk)",
			spanTx, spanRx, wantTx, wantRx)
	}
}

// TestTraceRing checks capacity, ordering and nil-safety of the
// /debug/traces ring buffer.
func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(&QueryTrace{ID: fmt.Sprintf("q%d", i), Start: time.Unix(int64(i), 0)})
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	got := r.Traces()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(got))
	}
	for i, qt := range got {
		if want := fmt.Sprintf("q%d", i+2); qt.ID != want {
			t.Errorf("ring[%d] = %s, want %s (oldest-first of the last 3)", i, qt.ID, want)
		}
	}
	r.Add(nil) // nil traces are dropped, not stored
	if n := len(r.Traces()); n != 3 {
		t.Errorf("after Add(nil): %d traces, want 3", n)
	}
	var nilRing *TraceRing
	nilRing.Add(&QueryTrace{})
	if nilRing.Traces() != nil || nilRing.Total() != 0 {
		t.Error("nil ring is not a no-op")
	}
}
