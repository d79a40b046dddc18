package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Env is the environment every record carries. Key shape, window length and
// sample counts differ per run and sit in each Result.
type Env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

// RunSet is every run of one invocation; -compare reads two of them.
type RunSet struct {
	Env  Env      `json:"env"`
	Runs []Result `json:"runs"`
}

func readEnv(seed int64, seconds float64, smoke bool) Env {
	return Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitHead: gitHead("."), Seed: seed, Seconds: seconds, Smoke: smoke}
}

// gitHead resolves HEAD by reading the repository's files, as git
// rev-parse HEAD would print it; "unknown" outside a git checkout (the
// driver's checkout is not one).
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return sha
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeRecord writes one run's record, and the spans of a traced run
// beside it.
func writeRecord(dir string, env Env, rep int, res *Result) error {
	trace := 0
	if res.Trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s.trace%d.seed%d.run%d", res.Workload, trace, env.Seed, rep))
	rec := struct {
		Env    Env    `json:"env"`
		Result Result `json:"result"`
	}{env, *res}
	if err := writeJSON(base+".json", rec); err != nil {
		return err
	}
	if len(res.Spans) == 0 {
		return nil
	}
	return writeJSON(base+".spans.json", res.Spans)
}
