// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] <id>
//
// where <id> is one of: table1, table2, table3, fig2, fig3, fig4, fig5,
// fig6, all. Tables print in the paper's row format; figures print one CSV
// block per subfigure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/privconsensus/privconsensus/internal/experiments"
	"github.com/privconsensus/privconsensus/internal/ml"
	"github.com/privconsensus/privconsensus/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		full      = fs.Bool("full", false, "use paper-scale options (slow)")
		scale     = fs.Float64("scale", 0, "override dataset scale (0 = profile default)")
		queries   = fs.Int("queries", 0, "override aggregator pool size")
		users     = fs.String("users", "", "comma-separated user counts (e.g. 10,25,50,75,100)")
		reps      = fs.Int("reps", 0, "repetitions per cell")
		seed      = fs.Int64("seed", 1, "base RNG seed")
		epochs    = fs.Int("epochs", 0, "override training epochs")
		instances = fs.Int("instances", 0, "protocol instances for table1/table2")
		benchU    = fs.Int("bench-users", 10, "user count for table1/table2")
		svgDir    = fs.String("svg", "", "also write each figure as an SVG into this directory")
		par       = fs.Int("parallelism", 0, "CPU worker bound for table1/table2 (0 = NumCPU, 1 = inline); never changes the wire")
		argmax    = fs.String("argmax", "", "argmax schedule for table1/table2: tournament (default) or allpairs, the paper's reference")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: experiments [flags] <table1|table2|table3|fig2|fig3|fig4|fig5|fig6|all>")
	}
	id := fs.Arg(0)

	opts := experiments.DefaultOptions()
	if *full {
		opts = experiments.FullOptions()
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *queries > 0 {
		opts.Queries = *queries
	}
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *epochs > 0 {
		opts.Train.Epochs = *epochs
	} else if opts.Train.Epochs == 0 {
		opts.Train = ml.DefaultTrainConfig()
	}
	opts.Seed = *seed
	if *users != "" {
		parsed, err := parseUsers(*users)
		if err != nil {
			return err
		}
		opts.Users = parsed
	}

	pb := experiments.DefaultProtocolBenchConfig()
	pb.Users = *benchU
	pb.Seed = *seed
	pb.Parallelism = *par
	pb.ArgmaxStrategy = *argmax
	if *instances > 0 {
		pb.Instances = *instances
	}

	ids := []string{id}
	if id == "all" {
		ids = []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig3eps"}
	}
	for _, exp := range ids {
		if err := runOne(exp, opts, pb, *svgDir); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
	}
	return nil
}

// parseUsers parses "10,25,50" into a slice.
func parseUsers(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid user count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// runOne dispatches a single experiment id.
func runOne(id string, opts experiments.Options, pb experiments.ProtocolBenchConfig, svgDir string) error {
	switch id {
	case "table1", "table2":
		res, err := experiments.ProtocolBench(pb)
		if err != nil {
			return err
		}
		if id == "table1" {
			printTable1(res)
		} else {
			printTable2(res)
		}
	case "table3":
		cells, err := experiments.Table3(opts)
		if err != nil {
			return err
		}
		printTable3(cells)
	case "fig3eps":
		cells, err := experiments.Fig3EpsilonMatched(opts)
		if err != nil {
			return err
		}
		printEpsMatched(cells)
	case "fig2", "fig3", "fig4", "fig5", "fig6":
		var figs []experiments.Figure
		var err error
		switch id {
		case "fig2":
			figs, err = experiments.Fig2(opts)
		case "fig3":
			figs, err = experiments.Fig3(opts)
		case "fig4":
			figs, err = experiments.Fig4(opts)
		case "fig5":
			figs, err = experiments.Fig5(opts)
		case "fig6":
			figs, err = experiments.Fig6(opts)
		}
		if err != nil {
			return err
		}
		printFigures(figs)
		if svgDir != "" {
			if err := writeSVGs(svgDir, figs); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
	return nil
}

// printTable1 renders the per-step running time (Table I).
func printTable1(res *experiments.ProtocolBenchResult) {
	fmt.Printf("TABLE I — COMPUTATIONAL COSTS (%d instances, %d users, %d classes)\n",
		res.Config.Instances, res.Config.Users, res.Config.Classes)
	fmt.Printf("%-28s %s\n", "Step", "Average Running Time")
	for _, s := range res.Steps {
		fmt.Printf("%-28s %v\n", s.Step, s.AvgTime)
	}
	fmt.Printf("%-28s %v\n", "Overall", res.Overall)
	fmt.Printf("(consensus reached on %d/%d instances)\n\n", res.Consensus, res.Config.Instances)
}

// printTable2 renders the per-step message sizes (Table II).
func printTable2(res *experiments.ProtocolBenchResult) {
	fmt.Printf("TABLE II — COMMUNICATION COSTS (%d instances, %d users, %d classes)\n",
		res.Config.Instances, res.Config.Users, res.Config.Classes)
	fmt.Printf("%-28s %s\n", "Step", "Message Size Per Party (bytes)")
	fmt.Printf("%-28s %d (user-to-server)\n", "secure-sum(2)", res.UserToServerBytes)
	for _, s := range res.Steps {
		fmt.Printf("%-28s %d (server-to-server)\n", s.Step, s.AvgBytesPerParty)
		if s.Step == "threshold-checking(5)" {
			fmt.Printf("%-28s %d (user-to-server)\n", "secure-sum(6)", res.UserToServerBytes2)
		}
	}
	fmt.Println()
}

// printTable3 renders retained proportion / label accuracy (Table III).
func printTable3(cells []experiments.Table3Cell) {
	fmt.Println("TABLE III — PROPORTION OF RETAINED SAMPLES / LABEL ACCURACY (SVHN-like)")
	fmt.Printf("%-12s %-16s %-16s %-16s\n", "No. of Users", "2-8", "3-7", "4-6")
	byUser := map[int]map[string]experiments.Table3Cell{}
	var order []int
	for _, c := range cells {
		if byUser[c.Users] == nil {
			byUser[c.Users] = map[string]experiments.Table3Cell{}
			order = append(order, c.Users)
		}
		byUser[c.Users][c.Division.String()] = c
	}
	for _, u := range order {
		row := byUser[u]
		fmt.Printf("%-12d", u)
		for _, div := range []string{"2-8", "3-7", "4-6"} {
			c := row[div]
			fmt.Printf(" %.3f/%.3f     ", c.Retention, c.LabelAcc)
		}
		fmt.Println()
	}
	fmt.Println()
}

// writeSVGs renders each figure to <dir>/<id>.svg.
func writeSVGs(dir string, figs []experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range figs {
		chart := plot.Chart{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel}
		for _, s := range f.Series {
			chart.Series = append(chart.Series, plot.Series{Name: s.Name, X: s.X, Y: s.Y})
		}
		svg, err := plot.RenderSVG(chart)
		if err != nil {
			return fmt.Errorf("render %s: %w", f.ID, err)
		}
		path := filepath.Join(dir, f.ID+".svg")
		if err := os.WriteFile(path, svg, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// printEpsMatched renders the epsilon-matched baseline ablation.
func printEpsMatched(cells []experiments.EpsMatchedCell) {
	fmt.Println("FIG 3 ABLATION — EPSILON-MATCHED BASELINE (SVHN-like)")
	fmt.Printf("%-12s %-10s %-10s %-10s %-14s %-14s %-14s %-14s\n",
		"level", "users", "epsilon", "base-sigma",
		"cons-label", "base-label", "cons-student", "base-student")
	for _, c := range cells {
		fmt.Printf("%-12s %-10d %-10.2f %-10.2f %-14.3f %-14.3f %-14.3f %-14.3f\n",
			c.Level, c.Users, c.Epsilon, c.BaselineSigma,
			c.ConsensusLabelAcc, c.BaselineLabelAcc,
			c.ConsensusStudentAcc, c.BaselineStudentAcc)
	}
	fmt.Println()
}

// printFigures renders each figure as a CSV block.
func printFigures(figs []experiments.Figure) {
	for _, f := range figs {
		fmt.Printf("# %s: %s (x=%s, y=%s)\n", f.ID, f.Title, f.XLabel, f.YLabel)
		for _, s := range f.Series {
			fmt.Printf("series,%s", s.Name)
			for i := range s.X {
				fmt.Printf(",%g:%.4f", s.X[i], s.Y[i])
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
