package keystore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzKeyFiles feeds arbitrary bytes to the three key-file loaders: JSON
// decoding into S1File, S2File and PublicFile, which reaches the Paillier and
// DGK key decoders, then the checks KeysS1, KeysS2 and Validate make before a
// server or user trusts the keys. No input may panic, and a file that is
// accepted must re-encode to bytes that are accepted again and re-encode
// identically.
func FuzzKeyFiles(f *testing.F) {
	for _, name := range []string{"s1", "s2", "public"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent_"+name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Keygen-sized moduli make every primality test and subgroup check
		// slow; the decoders' logic does not depend on the size.
		if len(raw) > 64<<10 {
			return
		}
		var s1 S1File
		if json.Unmarshal(raw, &s1) == nil {
			checkReload(t, &s1, func(f *S1File) error { _, err := f.KeysS1(); return err })
		}
		var s2 S2File
		if json.Unmarshal(raw, &s2) == nil {
			checkReload(t, &s2, func(f *S2File) error { _, err := f.KeysS2(); return err })
		}
		var pub PublicFile
		if json.Unmarshal(raw, &pub) == nil {
			checkReload(t, &pub, (*PublicFile).Validate)
		}
	})
}

// checkReload asserts, for a decoded file the accept check takes, that the
// file re-encodes, that the encoding decodes and is accepted again, and that
// the reloaded file encodes to the same bytes.
func checkReload[T any](t *testing.T, file *T, accept func(*T) error) {
	t.Helper()
	if accept(file) != nil {
		return
	}
	first, err := json.Marshal(file)
	if err != nil {
		t.Fatalf("accepted %T does not re-encode: %v", file, err)
	}
	back := new(T)
	if err := json.Unmarshal(first, back); err != nil {
		t.Fatalf("re-encoded %T does not decode: %v\n%s", file, err, first)
	}
	if err := accept(back); err != nil {
		t.Fatalf("re-encoded %T is refused: %v\n%s", file, err, first)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("reloaded %T does not re-encode: %v", file, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%T changes across a reload:\n%s\n%s", file, first, second)
	}
}
