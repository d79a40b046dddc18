package experiments

import (
	"fmt"

	"github.com/privconsensus/privconsensus/internal/dataset"
	"github.com/privconsensus/privconsensus/internal/pate"
)

// unevenDivisions lists the paper's three uneven distributions.
func unevenDivisions() []dataset.Division {
	return []dataset.Division{dataset.Division28, dataset.Division37, dataset.Division46}
}

// Table3Cell is one cell of Table III: proportion of retained samples and
// label accuracy.
type Table3Cell struct {
	Users     int
	Division  dataset.Division
	Retention float64
	LabelAcc  float64
}

// Table3 reproduces Table III (SVHN): retained proportion / label accuracy
// across user counts and uneven divisions at T = 60%.
func Table3(opts Options) ([]Table3Cell, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var out []Table3Cell
	for _, users := range opts.Users {
		for _, div := range unevenDivisions() {
			cfg := opts.baseConfig("svhn", users, div)
			res, err := runAveraged(cfg, opts.Reps)
			if err != nil {
				return nil, fmt.Errorf("experiments: table3 users=%d div=%v: %w", users, div, err)
			}
			out = append(out, Table3Cell{
				Users: users, Division: div,
				Retention: res.Retention, LabelAcc: res.LabelAccuracy,
			})
		}
	}
	return out, nil
}

// Fig2 reproduces Fig. 2: user accuracy under even and uneven data
// distributions, for the MNIST-like and SVHN-like datasets. The returned
// figures are (a) even, then one per division with majority/minority
// series.
func Fig2(opts Options) ([]Figure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	names := []string{"mnist", "svhn"}

	even := Figure{ID: "fig2a", Title: "User accuracy, even distribution",
		XLabel: "users", YLabel: "user accuracy"}
	for _, name := range names {
		s := Series{Name: name}
		for _, users := range opts.Users {
			cfg := opts.baseConfig(name, users, dataset.DivisionEven)
			res, err := runAveraged(cfg, opts.Reps)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig2 even %s users=%d: %w", name, users, err)
			}
			s.X = append(s.X, float64(users))
			s.Y = append(s.Y, res.UserAccMean)
		}
		even.Series = append(even.Series, s)
	}
	figures := []Figure{even}

	ids := []string{"fig2b", "fig2c", "fig2d"}
	for di, div := range unevenDivisions() {
		fig := Figure{ID: ids[di], Title: fmt.Sprintf("User accuracy, division %v", div),
			XLabel: "users", YLabel: "user accuracy"}
		for _, name := range names {
			maj := Series{Name: name + "/majority"}
			minr := Series{Name: name + "/minority"}
			for _, users := range opts.Users {
				cfg := opts.baseConfig(name, users, div)
				res, err := runAveraged(cfg, opts.Reps)
				if err != nil {
					return nil, fmt.Errorf("experiments: fig2 %v %s users=%d: %w", div, name, users, err)
				}
				maj.X = append(maj.X, float64(users))
				maj.Y = append(maj.Y, res.MajorityAcc)
				minr.X = append(minr.X, float64(users))
				minr.Y = append(minr.Y, res.MinorityAcc)
			}
			fig.Series = append(fig.Series, maj, minr)
		}
		figures = append(figures, fig)
	}
	return figures, nil
}

// Fig3 reproduces Fig. 3: label accuracy and aggregator accuracy for the
// MNIST-like and SVHN-like datasets under even distribution, comparing the
// consensus protocol against the noisy-argmax baseline across privacy
// levels.
func Fig3(opts Options) ([]Figure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var figures []Figure
	ids := map[string][2]string{
		"mnist": {"fig3a", "fig3b"},
		"svhn":  {"fig3c", "fig3d"},
	}
	for _, name := range []string{"mnist", "svhn"} {
		labelFig := Figure{ID: ids[name][0], Title: "Label accuracy (" + name + ")",
			XLabel: "users", YLabel: "label accuracy"}
		aggFig := Figure{ID: ids[name][1], Title: "Aggregator accuracy (" + name + ")",
			XLabel: "users", YLabel: "aggregator accuracy"}
		for _, level := range PrivacyLevels() {
			for _, consensus := range []bool{true, false} {
				method := "consensus"
				if !consensus {
					method = "baseline"
				}
				labelSeries := Series{Name: fmt.Sprintf("%s/%s", method, level.Name)}
				aggSeries := Series{Name: labelSeries.Name}
				for _, users := range opts.Users {
					cfg := opts.baseConfig(name, users, dataset.DivisionEven)
					cfg.UseConsensus = consensus
					cfg.Sigma1, cfg.Sigma2 = level.Sigma1, level.Sigma2
					res, err := runAveraged(cfg, opts.Reps)
					if err != nil {
						return nil, fmt.Errorf("experiments: fig3 %s %s users=%d: %w", name, method, users, err)
					}
					labelSeries.X = append(labelSeries.X, float64(users))
					labelSeries.Y = append(labelSeries.Y, res.LabelAccuracy)
					aggSeries.X = append(aggSeries.X, float64(users))
					aggSeries.Y = append(aggSeries.Y, res.StudentAccuracy)
				}
				labelFig.Series = append(labelFig.Series, labelSeries)
				aggFig.Series = append(aggFig.Series, aggSeries)
			}
		}
		figures = append(figures, labelFig, aggFig)
	}
	return figures, nil
}

// Fig4 reproduces Fig. 4: aggregator accuracy with one-hot versus softmax
// teacher votes (consensus method, even distribution).
func Fig4(opts Options) ([]Figure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var figures []Figure
	ids := map[string][2]string{
		"mnist": {"fig4a", "fig4b"},
		"svhn":  {"fig4c", "fig4d"},
	}
	for _, name := range []string{"mnist", "svhn"} {
		for vi, vt := range []pate.VoteType{pate.OneHot, pate.Softmax} {
			fig := Figure{ID: ids[name][vi],
				Title:  fmt.Sprintf("Aggregator accuracy with %v labels (%s)", vt, name),
				XLabel: "users", YLabel: "aggregator accuracy"}
			for _, level := range PrivacyLevels() {
				s := Series{Name: level.Name}
				for _, users := range opts.Users {
					cfg := opts.baseConfig(name, users, dataset.DivisionEven)
					cfg.VoteType = vt
					cfg.Sigma1, cfg.Sigma2 = level.Sigma1, level.Sigma2
					res, err := runAveraged(cfg, opts.Reps)
					if err != nil {
						return nil, fmt.Errorf("experiments: fig4 %s %v users=%d: %w", name, vt, users, err)
					}
					s.X = append(s.X, float64(users))
					s.Y = append(s.Y, res.StudentAccuracy)
				}
				fig.Series = append(fig.Series, s)
			}
			figures = append(figures, fig)
		}
	}
	return figures, nil
}

// Fig5Thresholds lists the swept consensus thresholds (30%..90%).
func Fig5Thresholds() []float64 {
	return []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// Fig5 reproduces Fig. 5: (a)(b) aggregator accuracy across voting
// thresholds at a fixed privacy level (the paper fixes ε = 8.19,
// δ = 1e-6), and (c)(d) aggregator accuracy under uneven distributions.
func Fig5(opts Options) ([]Figure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var figures []Figure
	thrIDs := map[string]string{"mnist": "fig5a", "svhn": "fig5b"}
	unevenIDs := map[string]string{"mnist": "fig5c", "svhn": "fig5d"}
	for _, name := range []string{"mnist", "svhn"} {
		// (a)(b): threshold sweep; one series per user count.
		fig := Figure{ID: thrIDs[name],
			Title:  "Aggregator accuracy vs threshold (" + name + ")",
			XLabel: "threshold (fraction of users)", YLabel: "aggregator accuracy"}
		for _, users := range opts.Users {
			s := Series{Name: fmt.Sprintf("%d users", users)}
			for _, thr := range Fig5Thresholds() {
				cfg := opts.baseConfig(name, users, dataset.DivisionEven)
				cfg.ThresholdFrac = thr
				res, err := runAveraged(cfg, opts.Reps)
				if err != nil {
					return nil, fmt.Errorf("experiments: fig5 %s users=%d thr=%g: %w", name, users, thr, err)
				}
				s.X = append(s.X, thr)
				s.Y = append(s.Y, res.StudentAccuracy)
			}
			fig.Series = append(fig.Series, s)
		}
		figures = append(figures, fig)

		// (c)(d): uneven distributions; one series per division.
		ufig := Figure{ID: unevenIDs[name],
			Title:  "Aggregator accuracy, uneven distribution (" + name + ")",
			XLabel: "users", YLabel: "aggregator accuracy"}
		for _, div := range unevenDivisions() {
			s := Series{Name: div.String()}
			for _, users := range opts.Users {
				cfg := opts.baseConfig(name, users, div)
				res, err := runAveraged(cfg, opts.Reps)
				if err != nil {
					return nil, fmt.Errorf("experiments: fig5 uneven %s %v users=%d: %w", name, div, users, err)
				}
				s.X = append(s.X, float64(users))
				s.Y = append(s.Y, res.StudentAccuracy)
			}
			ufig.Series = append(ufig.Series, s)
		}
		figures = append(figures, ufig)
	}
	return figures, nil
}

// Fig6 reproduces Fig. 6 (CelebA-like): label and aggregator accuracy under
// even and uneven distributions.
func Fig6(opts Options) ([]Figure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	run := func(users int, div dataset.Division) (*pate.Result, error) {
		return runAveraged(opts.baseConfig("celeba", users, div), opts.Reps)
	}

	labelEven := Figure{ID: "fig6a", Title: "Label accuracy, even (CelebA)",
		XLabel: "users", YLabel: "label accuracy"}
	aggEven := Figure{ID: "fig6b", Title: "Aggregator accuracy, even (CelebA)",
		XLabel: "users", YLabel: "aggregator accuracy"}
	evenLabel := Series{Name: "even"}
	evenAgg := Series{Name: "even"}
	for _, users := range opts.Users {
		res, err := run(users, dataset.DivisionEven)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6 even users=%d: %w", users, err)
		}
		evenLabel.X = append(evenLabel.X, float64(users))
		evenLabel.Y = append(evenLabel.Y, res.LabelAccuracy)
		evenAgg.X = append(evenAgg.X, float64(users))
		evenAgg.Y = append(evenAgg.Y, res.StudentAccuracy)
	}
	labelEven.Series = append(labelEven.Series, evenLabel)
	aggEven.Series = append(aggEven.Series, evenAgg)

	labelUneven := Figure{ID: "fig6c", Title: "Label accuracy, uneven (CelebA)",
		XLabel: "users", YLabel: "label accuracy"}
	aggUneven := Figure{ID: "fig6d", Title: "Aggregator accuracy, uneven (CelebA)",
		XLabel: "users", YLabel: "aggregator accuracy"}
	for _, div := range unevenDivisions() {
		ls := Series{Name: div.String()}
		as := Series{Name: div.String()}
		for _, users := range opts.Users {
			res, err := run(users, div)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig6 %v users=%d: %w", div, users, err)
			}
			ls.X = append(ls.X, float64(users))
			ls.Y = append(ls.Y, res.LabelAccuracy)
			as.X = append(as.X, float64(users))
			as.Y = append(as.Y, res.StudentAccuracy)
		}
		labelUneven.Series = append(labelUneven.Series, ls)
		aggUneven.Series = append(aggUneven.Series, as)
	}
	return []Figure{labelEven, aggEven, labelUneven, aggUneven}, nil
}
