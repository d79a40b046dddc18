package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournal feeds arbitrary bytes to the journal reader, the chain
// verifier and OpenJournal's torn-tail recovery. None may panic; whatever
// VerifyJournal accepts, ReadJournal returns at least as many events of;
// and a journal it accepts with n records, reopened and appended to once,
// verifies with n+1.
func FuzzJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	j, err := OpenJournal(path, JournalOptions{Role: "s1"})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.BeginTrace("t-0000000000000001"); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Event{Type: EventRetry, Instance: i, Note: "reconnect"}); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)                                                             // a real journal
	f.Add(real[:len(real)-7])                                               // torn mid-record
	f.Add(bytes.Replace(real, []byte("reconnect"), []byte("reconnecT"), 1)) // altered
	f.Add([]byte{})

	// One file, rewritten per input: iterations of a worker run in turn.
	path = filepath.Join(f.TempDir(), "j.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		n, verr := VerifyJournal(bytes.NewReader(data))
		evs, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadJournal: %v", err)
		}
		if verr == nil && len(evs) < n {
			t.Fatalf("VerifyJournal accepted %d records, ReadJournal returned %d events", n, len(evs))
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, JournalOptions{Role: "s2", MaxBytes: -1})
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		if err := j.Append(Event{Type: EventFault, Instance: -1, Note: "drop"}); err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if verr != nil {
			return
		}
		if m, err := VerifyJournalFile(path); err != nil || m != n+1 {
			t.Fatalf("accepted journal of %d records, reopened and appended once: %d records verify (%v), want %d", n, m, err, n+1)
		}
	})
}
