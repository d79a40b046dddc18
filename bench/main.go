// Command bench is this repository's benchmark: it drives the real
// serve-mode pair and the relay tree over loopback TCP from one process,
// prints every metric by name with its unit, checks every output against
// the plaintext consensus rule and exits non-zero on a wrong label.
//
//	go run ./bench -seed N [-workload W] [-trace 0|1] [-seconds S] [-out DIR]
//	go run ./bench -repeat 5 -out DIR          # a run set, DIR/runset.json
//	go run ./bench -compare A/runset.json B/runset.json
//
// See README.md in this directory for what each number means.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// defaultSeconds is the window length when -seconds is not given; it equals
// run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed for keys, votes, class indices and tenant streams")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := fs.String("trace", "both", "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	out := fs.String("out", "", "directory for records, spans and runset.json")
	repeat := fs.Int("repeat", 1, "run the selection this many times (a run set)")
	compare := fs.Bool("compare", false, "compare two runset.json files given as arguments")
	smoke := fs.Bool("smoke", false, "paper64 keys and small populations on every workload")
	scratch := fs.String("scratch", ".bench_build", "parent directory for ledgers and journals, removed at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two runset.json files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *repeat < 1 {
		return errors.New("-seconds and -repeat must be positive")
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, got %q", *trace)
	}
	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames())
		}
		selected = []workloadDef{w}
	}

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	set := RunSet{Env: readEnv(*seed, *seconds, *smoke)}
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			if *smoke {
				w = smokeOf(w)
			}
			for _, tr := range traces {
				res, err := runWorkload(ctx, runOpts{W: w, Seed: *seed, Seconds: *seconds, Trace: tr,
					Dir: filepath.Join(dir, fmt.Sprintf("%s-%d-%v", w.Name, rep, tr))})
				if err != nil {
					return err
				}
				printResult(stdout, res)
				set.Runs = append(set.Runs, *res)
				if *out != "" {
					if err := writeRecord(*out, set.Env, rep, res); err != nil {
						return err
					}
				}
				if err := printContractLine(stdout, res); err != nil {
					return err
				}
			}
		}
	}
	if *out != "" {
		return writeJSON(filepath.Join(*out, "runset.json"), set)
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// defsFor returns the metrics a run reports: end-to-end for a timed run,
// per-layer for a traced one.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of the run by name with its unit, and
// for a traced run the span table.
func printResult(w io.Writer, res *Result) {
	mode := "timed"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) %s: window %.1f s, %d samples, %d attempted, %d failed\n",
		res.Workload, mode, res.KeyShape, res.WindowS, res.Samples, res.Attempted, res.Failed)
	for _, d := range defsFor(res.Trace) {
		moves := ""
		if d.Moves != "" {
			moves = "; moves " + d.Moves
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s (%s is better%s)\n", d.Name, res.Metrics[d.Name], d.Unit, d.Better, moves)
	}
	for _, name := range res.Missing {
		fmt.Fprintf(os.Stderr, "bench: warning: counter %q has no series in the registry; its metrics read 0\n", name)
	}
	if len(res.Spans) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-34s %8s %12s %12s %12s\n", "span", "calls", "total ms", "self ms", "mean ms")
	for _, r := range traceTable(res.Spans) {
		fmt.Fprintf(w, "  %-34s %8d %12.3f %12.3f %12.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.MeanMs)
	}
}

// printContractLine prints the one-line JSON object the driver reads.
func printContractLine(w io.Writer, res *Result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range defsFor(res.Trace) {
		v := res.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", res.Workload, d.Name, v)
		}
		line.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
