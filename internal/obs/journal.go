package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Durable structured event journal.
//
// A Journal is an append-only JSONL file: one Event per line, every record
// SHA-256 hash-chained to its predecessor, so any in-place edit, deletion
// or reordering of committed records is detectable by VerifyJournal. The
// chain anchors at whatever the first record of a file carries in Prev —
// "" for a fresh journal, the last hash of the previous segment after a
// size rotation. Rotation renames the full file to the next unused
// <path>.N (<path>.1, <path>.2, …) and deletes nothing, so the segments,
// oldest first, then <path> itself verify as one chain.
//
// Crash tolerance: a record is one write(2) of one line, so a crash can at
// worst leave a torn final line (no trailing newline, or undecodable
// bytes). OpenJournal drops such a tail and re-anchors the chain on the
// last intact record; VerifyJournal tolerates the same torn tail and
// nothing else.
//
// Events record quantities and identities only — trace IDs, phase names,
// byte counts, durations, rejection reasons. Never plaintext votes, shares
// or key material (see the package privacy rule in doc.go/OBSERVABILITY).

// Journal event types.
const (
	// EventTraceBegin is the per-process anchor: appended once when the
	// process learns its trace ID. cmd/trace aligns per-role clocks on it.
	EventTraceBegin = "trace-begin"
	// EventSpan is one closed protocol phase of a query.
	EventSpan = "span"
	// EventQuery closes a query: outcome, total duration and traffic.
	EventQuery = "query"
	// EventRejection is a submission refused by server-side validation.
	EventRejection = "rejection"
	// EventRetry is a retried attempt (instance, reconnect or upload).
	EventRetry = "retry"
	// EventFault is an injected transport fault (chaos runs only).
	EventFault = "fault"
	// EventQuorum is a per-instance participation decision.
	EventQuorum = "quorum"
	// EventDelta is a public threshold correction δ applied under partial
	// participation.
	EventDelta = "delta-correction"
	// EventSpend is a privacy-accountant spend.
	EventSpend = "spend"
	// EventRelayBatch is one combined (pre-summed) batch crossing an
	// ingestion-tier hop: forwarded upstream by a relay, or accepted by a
	// server from a relay. The note carries side, sequence and member count.
	EventRelayBatch = "relay-batch"
	// EventAdmission is a serve-mode admission decision: the note carries
	// the decision (admitted, or the typed refusal reason) and the tenant;
	// Instance is the query ID on grants, -1 on refusals.
	EventAdmission = "admission"
	// EventEpoch is a serve-mode epoch state transition (prepared,
	// committed, retired); the note carries the transition and the epoch.
	EventEpoch = "epoch"
)

// Event is one journal record. Instance is -1 for session-scoped events
// (trace anchors, faults, reconnects) that belong to no single query
// instance.
type Event struct {
	// Seq numbers records consecutively within a chain (monotone across
	// rotation).
	Seq uint64 `json:"seq"`
	// TimeNs is the append wall time in Unix nanoseconds.
	TimeNs int64 `json:"t"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Trace is the cross-process trace ID ("t-%016x"), empty when the
	// process ran untraced.
	Trace string `json:"trace,omitempty"`
	// Role is the emitting process ("s1", "s2", "user3", "engine").
	Role string `json:"role,omitempty"`
	// Query is the query identity the event belongs to, e.g. "s1-q3".
	Query string `json:"query,omitempty"`
	// Instance is the query instance index, or -1 for session scope.
	Instance int `json:"inst"`
	// Attempt is the 1-based delivery attempt, 0 when not applicable.
	Attempt int `json:"attempt,omitempty"`
	// Phase is the protocol step label on span events.
	Phase string `json:"phase,omitempty"`
	// StartNs/DurNs position the event on the timeline: for spans the
	// phase open time and duration, for point events the moment they
	// happened (TimeNs is when they were journaled, which for spans is
	// batched at query end).
	StartNs int64 `json:"start,omitempty"`
	DurNs   int64 `json:"dur,omitempty"`
	// Traffic attributed to the event (span and query events).
	BytesSent     int64 `json:"tx,omitempty"`
	BytesReceived int64 `json:"rx,omitempty"`
	MsgsSent      int64 `json:"mtx,omitempty"`
	MsgsReceived  int64 `json:"mrx,omitempty"`
	Rounds        int64 `json:"rounds,omitempty"`
	// Note carries the type-specific detail: rejection reason, quorum
	// verdict, δ value, spend kind, query result.
	Note string `json:"note,omitempty"`
	// Err records a failure attached to the event.
	Err string `json:"err,omitempty"`
	// Prev is the hex hash of the previous record ("" only on a fresh
	// chain); Hash is SHA-256 over this record serialized with Hash empty.
	Prev string `json:"prev"`
	Hash string `json:"hash"`
}

// eventHash computes the record hash: SHA-256 of the JSON serialization
// with the Hash field empty (Prev already filled, so each record commits
// to the whole chain before it).
func eventHash(ev Event) (string, error) {
	ev.Hash = ""
	body, err := json.Marshal(ev)
	if err != nil {
		return "", fmt.Errorf("obs: marshal journal event: %w", err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// Role stamps every appended event that carries none of its own.
	Role string
	// maxBytes rotates the file to the next <path>.N when an append would
	// push it past this size (0 selects the 8 MiB default; < 0 disables
	// rotation). The hash chain and sequence numbers continue across the
	// rotation.
	maxBytes int64
}

// defaultJournalMaxBytes is the rotation threshold when unconfigured.
const defaultJournalMaxBytes = 8 << 20

// Journal is an append-only, hash-chained JSONL event log. Safe for
// concurrent use. A nil *Journal is a valid no-op sink.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	maxBytes int64
	size     int64
	seq      uint64
	last     string // hash of the most recent record
	role     string
	trace    string
	begun    bool // trace-begin anchor already written
	clock    func() time.Time
}

// OpenJournal opens (or creates) the journal at path for appending. In an
// existing file a torn final line — the only damage a crashed writer can
// leave — is truncated away and the chain re-anchors on the last intact
// record, or on the newest rotated segment's when the file holds none.
func OpenJournal(path string, o JournalOptions) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	j := &Journal{
		f:        f,
		path:     path,
		maxBytes: o.maxBytes,
		role:     o.Role,
		clock:    time.Now,
	}
	if j.maxBytes == 0 {
		j.maxBytes = defaultJournalMaxBytes
	}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover restores seq/last from the existing file so appends continue the
// chain. Appends are single writes, so a crashed writer can only tear the
// final line: recover anchors on the last complete line that decodes and
// truncates whatever follows it. A file with no intact record (fresh, or
// cut short right after a rotation) continues the newest segment's chain.
func (j *Journal) recover() error {
	seq, last, good, err := lastRecord(j.f)
	if err != nil {
		return err
	}
	if good == 0 {
		if seq, last, err = lastSegmentRecord(j.path); err != nil {
			return err
		}
	}
	size, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("obs: scan journal: %w", err)
	}
	if good < size {
		if err := j.f.Truncate(good); err != nil {
			return fmt.Errorf("obs: truncate torn journal tail: %w", err)
		}
	}
	if _, err := j.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("obs: seek journal: %w", err)
	}
	j.seq, j.last, j.size = seq, last, good
	return nil
}

// lastRecord finds the last complete line of f that decodes as a record and
// returns its Seq and Hash and the byte offset just past it (0 when there is
// none). It reads only the file's tail unless that holds no intact record,
// so a reopen costs the same however long the journal has grown. Damage
// further up is left for VerifyJournal to report.
func lastRecord(f *os.File) (seq uint64, hash string, good int64, err error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, "", 0, fmt.Errorf("obs: scan journal: %w", err)
	}
	for window := int64(64 << 10); good == 0; window = size {
		off := max(size-window, 0)
		tail := make([]byte, size-off)
		if _, err := f.ReadAt(tail, off); err != nil {
			return 0, "", 0, fmt.Errorf("obs: scan journal: %w", err)
		}
		// Walk back over complete lines; the window's first line may be
		// partial, so it never decodes.
		for end := bytes.LastIndexByte(tail, '\n'); end >= 0; end = bytes.LastIndexByte(tail[:end], '\n') {
			var ev Event
			if err := json.Unmarshal(tail[bytes.LastIndexByte(tail[:end], '\n')+1:end], &ev); err == nil && ev.Hash != "" {
				return ev.Seq, ev.Hash, off + int64(end) + 1, nil
			}
		}
		if off == 0 {
			break
		}
	}
	return 0, "", 0, nil
}

// lastSegmentRecord returns the Seq and Hash of the newest rotated
// segment's last record ("" when there is no segment).
func lastSegmentRecord(path string) (uint64, string, error) {
	names, _, err := segments(path)
	if err != nil || len(names) == 0 {
		return 0, "", err
	}
	f, err := os.Open(names[len(names)-1])
	if err != nil {
		return 0, "", fmt.Errorf("obs: open journal segment: %w", err)
	}
	defer f.Close()
	seq, hash, _, err := lastRecord(f)
	return seq, hash, err
}

// segments returns the rotated segments <path>.N of the journal at path,
// oldest (smallest N) first, and the next unused N, one past the largest.
func segments(path string) (names []string, next int, err error) {
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return nil, 0, fmt.Errorf("obs: list journal segments: %w", err)
	}
	prefix := filepath.Base(path) + "."
	var nums []int
	for _, e := range entries {
		suffix, ok := strings.CutPrefix(e.Name(), prefix)
		if n, err := strconv.Atoi(suffix); ok && err == nil && n > 0 && strconv.Itoa(n) == suffix {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	next = 1
	for _, n := range nums {
		names = append(names, path+"."+strconv.Itoa(n))
		next = n + 1
	}
	return names, next, nil
}

// readJournalFiles reads the journal at path as written: its rotated
// segments, oldest first, then path itself.
func readJournalFiles(path string) ([]byte, error) {
	names, _, err := segments(path)
	if err != nil {
		return nil, err
	}
	var data []byte
	for _, name := range append(names, path) {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("obs: open journal: %w", err)
		}
		data = append(data, b...)
	}
	return data, nil
}

// errJournalClosed reports an append on a closed journal.
var errJournalClosed = errors.New("obs: journal closed")

// BeginTrace records the trace identity for this process: it becomes the
// default stamp for later events and a trace-begin anchor event is
// appended (once — later calls with the same or another ID only restamp).
// cmd/trace aligns the per-process timelines on these anchors.
func (j *Journal) BeginTrace(id string) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	j.trace = id
	first := !j.begun
	j.begun = true
	j.mu.Unlock()
	if !first {
		return nil
	}
	return j.Append(Event{Type: EventTraceBegin, Instance: -1})
}

// Append fills the record's bookkeeping fields (Seq, TimeNs, Role, Trace,
// Prev, Hash), writes it as one line, and rotates first if the file would
// outgrow MaxBytes. Nil-safe: a nil journal drops the event.
func (j *Journal) Append(ev Event) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	ev.Seq = j.seq + 1
	if ev.TimeNs == 0 {
		ev.TimeNs = j.clock().UnixNano()
	}
	if ev.Role == "" {
		ev.Role = j.role
	}
	if ev.Trace == "" {
		ev.Trace = j.trace
	}
	ev.Prev = j.last
	hash, err := eventHash(ev)
	if err != nil {
		return err
	}
	ev.Hash = hash
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("obs: marshal journal event: %w", err)
	}
	line = append(line, '\n')
	if j.maxBytes > 0 && j.size > 0 && j.size+int64(len(line)) > j.maxBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("obs: append journal event: %w", err)
	}
	j.size += int64(len(line))
	j.seq = ev.Seq
	j.last = ev.Hash
	return nil
}

// rotateLocked moves the current file to the next unused <path>.N, one past
// the newest segment, and starts a fresh file. The chain continues: the new
// file's first record carries the rotated file's last hash in Prev.
func (j *Journal) rotateLocked() error {
	_, next, err := segments(j.path)
	if err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("obs: rotate journal: %w", err)
	}
	if err := os.Rename(j.path, j.path+"."+strconv.Itoa(next)); err != nil {
		return fmt.Errorf("obs: rotate journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("obs: rotate journal: %w", err)
	}
	j.f = f
	j.size = 0
	return nil
}

// AppendTrace journals one completed query: one span event per phase, one
// event per recorded point annotation (δ corrections etc.), and a closing
// query event carrying the outcome and totals. Span traffic is copied from
// the trace verbatim, so journaled bytes equal the transport meter exactly
// (the PR-2 invariant extends to disk).
func (j *Journal) AppendTrace(instance, attempt int, qt *QueryTrace) error {
	if j == nil || qt == nil {
		return nil
	}
	for _, s := range qt.Spans {
		ev := Event{
			Type: EventSpan, Query: qt.ID, Instance: instance, Attempt: attempt,
			Phase: s.Phase, DurNs: int64(s.Duration),
			BytesSent: s.BytesSent, BytesReceived: s.BytesReceived,
			MsgsSent: s.MsgsSent, MsgsReceived: s.MsgsReceived,
			Rounds: s.Rounds, Err: s.Err,
		}
		if !s.Start.IsZero() {
			ev.StartNs = s.Start.UnixNano()
		}
		if err := j.Append(ev); err != nil {
			return err
		}
	}
	for _, te := range qt.Events {
		ev := Event{
			Type: te.Type, Query: qt.ID, Instance: instance, Attempt: attempt,
			StartNs: te.Time.UnixNano(), Note: te.Detail,
		}
		if err := j.Append(ev); err != nil {
			return err
		}
	}
	sent, recvd := qt.TotalBytes()
	return j.Append(Event{
		Type: EventQuery, Query: qt.ID, Instance: instance, Attempt: attempt,
		StartNs: qt.Start.UnixNano(), DurNs: int64(qt.Duration),
		BytesSent: sent, BytesReceived: recvd,
		Note: qt.Result, Err: qt.Err,
	})
}

// Close flushes and closes the journal file. Nil-safe and idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// VerifyJournal checks a journal stream's hash chain: every complete line
// must decode, recompute to its own hash, link to its predecessor, and
// carry the successor sequence number. A torn final line (no trailing
// newline — the one artifact a crashed writer can leave) is tolerated and
// excluded from the count; any other damage is an error naming the record.
// It returns the number of verified records.
func VerifyJournal(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("obs: read journal: %w", err)
	}
	n := 0
	prevHash := ""
	var prevSeq uint64
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail: tolerated
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return n, fmt.Errorf("obs: journal record %d does not decode: %w", n+1, err)
		}
		want, err := eventHash(ev)
		if err != nil {
			return n, err
		}
		if ev.Hash != want {
			return n, fmt.Errorf("obs: journal record %d (seq %d) hash mismatch: content was altered", n+1, ev.Seq)
		}
		if n > 0 {
			if ev.Prev != prevHash {
				return n, fmt.Errorf("obs: journal record %d (seq %d) does not chain to its predecessor", n+1, ev.Seq)
			}
			if ev.Seq != prevSeq+1 {
				return n, fmt.Errorf("obs: journal record %d has seq %d after %d: records removed or reordered", n+1, ev.Seq, prevSeq)
			}
		}
		prevHash = ev.Hash
		prevSeq = ev.Seq
		n++
	}
	return n, nil
}

// VerifyJournalFile verifies the journal at path as one chain: its rotated
// segments <path>.N, oldest first, then the file itself. It returns the
// number of verified records across them.
func VerifyJournalFile(path string) (int, error) {
	data, err := readJournalFiles(path)
	if err != nil {
		return 0, err
	}
	n, err := VerifyJournal(bytes.NewReader(data))
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

// ReadJournal decodes a journal stream leniently — no hash checking, torn
// tail skipped — for tooling that merges possibly-live files. Pair with
// VerifyJournal when integrity matters.
func ReadJournal(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: read journal: %w", err)
	}
	var out []Event
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		var ev Event
		if err := json.Unmarshal(rest[:nl], &ev); err == nil {
			out = append(out, ev)
		}
		rest = rest[nl+1:]
	}
	return out, nil
}

// ReadJournalFile reads the journal at path leniently, its rotated
// segments first.
func ReadJournalFile(path string) ([]Event, error) {
	data, err := readJournalFiles(path)
	if err != nil {
		return nil, err
	}
	return ReadJournal(bytes.NewReader(data))
}
