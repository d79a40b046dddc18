package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadRunSet(path string) (*RunSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set RunSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// timed is what a run set's timed runs of one workload add up to.
type timed struct {
	shape             string
	values            map[string][]float64 // per end-to-end metric, one value per run
	attempted, failed int
}

// failedFrac is the share of attempted operations that failed.
func (t *timed) failedFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// timedRuns collects the set's timed runs per workload.
func timedRuns(set *RunSet) map[string]*timed {
	out := map[string]*timed{}
	for _, r := range set.Runs {
		if r.Trace {
			continue
		}
		t := out[r.Workload]
		if t == nil {
			t = &timed{shape: r.KeyShape, values: map[string][]float64{}}
			out[r.Workload] = t
		}
		t.attempted += r.Attempted
		t.failed += r.Failed
		for _, d := range endToEnd {
			t.values[d.Name] = append(t.values[d.Name], r.Metrics[d.Name])
		}
	}
	return out
}

// verdict classifies one workload x metric pairing of two run sets: how far
// b's median is on the worse side of a's, against the metric's bound.
// Where either side's own spread exceeds the bound the pairing is
// unresolved, not unchanged. setup_s is exempt from the spread rule: its
// work differs by seed, and the sets repeat the same seeds.
func verdict(d metricDef, a, b []float64) (worse float64, status string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		status = "BREACH"
	case d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound):
		status = "unresolved"
	default:
		status = "ok"
	}
	return worse, status
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// median and quartiles and their relative difference against the bound,
// and per workload the share of operations that failed. It fails when a
// median is worse than the bound allows or when more of B's operations
// failed than of A's (that bound is 0), and refuses sets taken on different
// CPU counts, key shapes, seeds or window lengths.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return err
	}
	switch ea, eb := a.Env, b.Env; {
	case ea.NProc != eb.NProc:
		return fmt.Errorf("refusing to compare: nproc %d vs %d", ea.NProc, eb.NProc)
	case ea.Seed != eb.Seed:
		return fmt.Errorf("refusing to compare: seed %d vs %d", ea.Seed, eb.Seed)
	case ea.Seconds != eb.Seconds || ea.Smoke != eb.Smoke:
		return fmt.Errorf("refusing to compare: windows of %v s (smoke %v) vs %v s (smoke %v)", ea.Seconds, ea.Smoke, eb.Seconds, eb.Smoke)
	}
	ta, tb := timedRuns(a), timedRuns(b)
	fmt.Fprintf(w, "A: %s (%s, %d cpu)\nB: %s (%s, %d cpu)\n", pathA, a.Env.GitHead, a.Env.NProc, pathB, b.Env.GitHead, b.Env.NProc)
	fmt.Fprintf(w, "%-16s %-14s %4s %12s %12s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A q1..q3", "B median", "B q1..q3", "spread", "B worse", "bound", "")
	breaches := 0
	for _, wl := range workloads {
		wa, wb := ta[wl.Name], tb[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		if wa.shape != wb.shape {
			return fmt.Errorf("refusing to compare %s: key shape %s vs %s", wl.Name, wa.shape, wb.shape)
		}
		for _, d := range endToEnd {
			xa, xb := wa.values[d.Name], wb.values[d.Name]
			worse, status := verdict(d, xa, xb)
			if status == "BREACH" {
				breaches++
			}
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			fmt.Fprintf(w, "%-16s %-14s %2d/%-2d %12.4g %12s %12.4g %12s %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, len(xa), len(xb), median(xa), fmt.Sprintf("%.4g..%.4g", a1, a3),
				median(xb), fmt.Sprintf("%.4g..%.4g", b1, b3),
				100*max(spread(xa), spread(xb)), 100*worse, 100*d.Bound, status)
		}
		status := "ok"
		if wb.failedFrac() > wa.failedFrac() {
			status = "BREACH"
			breaches++
		}
		fmt.Fprintf(w, "%-16s %-14s %2d/%-2d %12.4g %12s %12.4g %12s %8s %8s %5.0f%%  %s\n",
			wl.Name, "failed_frac", len(wa.values["setup_s"]), len(wb.values["setup_s"]), wa.failedFrac(),
			fmt.Sprintf("%d/%d", wa.failed, wa.attempted), wb.failedFrac(), fmt.Sprintf("%d/%d", wb.failed, wb.attempted), "", "", 0.0, status)
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", breaches)
	}
	return nil
}
