// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI). Each experiment returns structured rows/series
// that cmd/experiments renders; bench_test.go wraps them as benchmarks.
//
// Experiment ids: table1, table2, table3, fig2, fig3, fig4, fig5, fig6
// (see DESIGN.md's experiment index).
package experiments

import (
	"fmt"

	"github.com/privconsensus/privconsensus/internal/dataset"
	"github.com/privconsensus/privconsensus/internal/ml"
	"github.com/privconsensus/privconsensus/internal/pate"
)

// Options are shared knobs for the accuracy experiments. The defaults run
// in seconds on a laptop; Full() approaches the paper's sample sizes.
type Options struct {
	// Scale multiplies dataset sample counts (1.0 = paper-sized).
	Scale float64
	// Queries is the aggregator's unlabeled pool size (paper: 9000).
	Queries int
	// Users lists the teacher counts to sweep (paper: 10..100).
	Users []int
	// Reps averages each cell over this many seeded repetitions.
	Reps int
	// Seed is the base RNG seed.
	Seed int64
	// Train configures teacher/student SGD.
	Train ml.TrainConfig
}

// DefaultOptions returns the quick profile used by tests and CI.
func DefaultOptions() Options {
	return Options{
		Scale:   0.02,
		Queries: 300,
		Users:   []int{10, 25, 50},
		Reps:    1,
		Seed:    1,
		Train:   ml.TrainConfig{Epochs: 15, LearnRate: 0.3, L2: 1e-4, BatchSize: 16},
	}
}

// FullOptions approximates the paper's scale (9000-query pool, five user
// counts). Expect minutes of runtime.
func FullOptions() Options {
	return Options{
		Scale:   0.3,
		Queries: 3000,
		Users:   []int{10, 25, 50, 75, 100},
		Reps:    1,
		Seed:    1,
		Train:   ml.DefaultTrainConfig(),
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Scale <= 0 || o.Scale > 1 {
		return fmt.Errorf("experiments: scale %g outside (0, 1]", o.Scale)
	}
	if o.Queries < 1 || o.Reps < 1 || len(o.Users) == 0 {
		return fmt.Errorf("experiments: invalid options %+v", o)
	}
	return o.Train.Validate()
}

// PrivacyLevel names one (sigma1, sigma2) noise setting. Larger sigmas mean
// more noise and a lower (stronger) epsilon.
type PrivacyLevel struct {
	Name   string
	Sigma1 float64
	Sigma2 float64
}

// PrivacyLevels returns the three noise settings swept in Figs. 3-4,
// ordered from least to most private.
func PrivacyLevels() []PrivacyLevel {
	return []PrivacyLevel{
		{Name: "low-noise", Sigma1: 2, Sigma2: 2},
		{Name: "mid-noise", Sigma1: 4, Sigma2: 4},
		{Name: "high-noise", Sigma1: 8, Sigma2: 8},
	}
}

// Series is one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced paper figure: a set of series over a common axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// runAveraged runs the pipeline Reps times with distinct seeds and
// averages the results.
func runAveraged(cfg pate.PipelineConfig, reps int) (*pate.Result, error) {
	if reps < 1 {
		reps = 1
	}
	avg := &pate.Result{}
	retained := 0
	for r := 0; r < reps; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)*7919
		res, err := pate.RunPipeline(c)
		if err != nil {
			return nil, err
		}
		avg.UserAccMean += res.UserAccMean / float64(reps)
		avg.MajorityAcc += res.MajorityAcc / float64(reps)
		avg.MinorityAcc += res.MinorityAcc / float64(reps)
		avg.LabelAccuracy += res.LabelAccuracy / float64(reps)
		avg.Retention += res.Retention / float64(reps)
		avg.StudentAccuracy += res.StudentAccuracy / float64(reps)
		avg.Epsilon += res.Epsilon / float64(reps)
		retained += res.Retained
	}
	avg.Retained = retained / reps
	return avg, nil
}

// baseConfig assembles a pipeline config from the shared options.
func (o Options) baseConfig(name string, users int, div dataset.Division) pate.PipelineConfig {
	return pate.PipelineConfig{
		Dataset:       name,
		Scale:         o.Scale,
		Users:         users,
		Division:      div,
		VoteType:      pate.OneHot,
		Queries:       o.Queries,
		UseConsensus:  true,
		ThresholdFrac: 0.6,
		Sigma1:        4,
		Sigma2:        4,
		Train:         o.Train,
		Seed:          o.Seed,
	}
}
