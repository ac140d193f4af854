package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"roamsim/internal/report"
)

// WriteAll regenerates every artifact and writes each as both an
// aligned text table (.txt) and CSV (.csv) under dir, returning the
// list of files written. It is the library-level equivalent of running
// `roam-experiments -exp all` twice with and without -csv.
//
// The artifacts run concurrently on the Config.Workers pool, each
// recording its files in its own slot; the list is concatenated in the
// canonical order below, so files and list are identical for every
// worker count. If artifacts fail, the error is the earliest failing
// one's in that order, returned with every file that was written.
func (r *Runner) WriteAll(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tab := func(name string, f func() (*report.Table, error)) exportJob {
		return exportJob{name, func(o *artifactFiles) error {
			t, err := f()
			if err != nil {
				return err
			}
			return o.put(name, t)
		}}
	}
	jobs := []exportJob{
		tab("table2", r.Table2),
		tab("table3", r.Table3),
		tab("table4", r.Table4),
		tab("fig3", r.Figure3),
		tab("fig4", r.Figure4),
		{"fig5", func(o *artifactFiles) error {
			res, err := r.Figure5()
			if err != nil {
				return err
			}
			return o.put("fig5", res.Table)
		}},
		tab("fig6", r.Figure6),
		tab("fig7", r.Figure7),
		{"fig8", func(o *artifactFiles) error {
			res, err := r.Figure8()
			if err != nil {
				return err
			}
			return o.putSeries("fig8_cdf", res.Series)
		}},
		{"fig9", func(o *artifactFiles) error {
			res, err := r.Figure9()
			if err != nil {
				return err
			}
			return o.putSeries("fig9_cdf", res.Series)
		}},
		tab("fig10", r.Figure10),
		{"fig11", func(o *artifactFiles) error {
			res, err := r.Figure11()
			if err != nil {
				return err
			}
			return o.put("fig11", res.Table)
		}},
		{"fig12", func(o *artifactFiles) error {
			res, err := r.Figure12()
			if err != nil {
				return err
			}
			return o.putSeries("fig12_cdf", res.Series)
		}},
		{"fig13", func(o *artifactFiles) error {
			res, err := r.Figure13()
			if err != nil {
				return err
			}
			if err := o.put("fig13a_web", res.WebTable); err != nil {
				return err
			}
			return o.put("fig13bc_device", res.DeviceTable)
		}},
		{"fig14a", func(o *artifactFiles) error {
			res, err := r.Figure14a()
			if err != nil {
				return err
			}
			return o.put("fig14a", res.Table)
		}},
		{"fig14b", func(o *artifactFiles) error {
			res, err := r.Figure14b()
			if err != nil {
				return err
			}
			return o.put("fig14b", res.Table)
		}},
		tab("fig15", r.Figure15),
		tab("fig16", r.Figure16),
		{"fig17", func(o *artifactFiles) error {
			res, err := r.Figure17()
			if err != nil {
				return err
			}
			return o.put("fig17", res.Table)
		}},
		tab("fig18", r.Figure18),
		tab("fig19", r.Figure19),
		{"fig20", func(o *artifactFiles) error {
			tabs, err := r.Figure20()
			if err != nil {
				return err
			}
			for i, t := range tabs {
				if err := o.put(fmt.Sprintf("fig20_%d", i+1), t); err != nil {
					return err
				}
			}
			return nil
		}},
		tab("validation", r.Validation),
		tab("ablation_pgw", r.AblationPGWSelection),
		tab("ablation_policy", r.AblationPolicyCaps),
		tab("ablation_peering", r.AblationPeering),
		tab("ablation_lbo", r.AblationLBO),
		tab("voip", r.FutureVoIP),
		tab("jurisdiction", r.DiscussionJurisdiction),
		tab("confounders", r.Confounders),
		tab("signaling", r.SignalingBreakdown),
	}
	outs := make([]artifactFiles, len(jobs))
	errs := make([]error, len(jobs))
	runParallel(r.Cfg.workers(), len(jobs), func(i int) {
		outs[i].dir = dir
		errs[i] = jobs[i].run(&outs[i])
	})
	var written []string
	var first error
	for i, j := range jobs {
		written = append(written, outs[i].files...)
		if errs[i] != nil && first == nil {
			first = fmt.Errorf("experiments: export %s: %w", j.name, errs[i])
		}
	}
	return written, first
}

// exportJob produces one artifact's files.
type exportJob struct {
	name string
	run  func(o *artifactFiles) error
}

// artifactFiles writes one artifact's files under dir and lists them.
type artifactFiles struct {
	dir   string
	files []string
}

// put writes a table as name.txt and name.csv.
func (o *artifactFiles) put(name string, t *report.Table) error {
	txt := filepath.Join(o.dir, name+".txt")
	if err := os.WriteFile(txt, []byte(t.String()), 0o644); err != nil {
		return err
	}
	csv := filepath.Join(o.dir, name+".csv")
	if err := os.WriteFile(csv, []byte(t.CSV()), 0o644); err != nil {
		return err
	}
	o.files = append(o.files, txt, csv)
	return nil
}

// putSeries writes CDF series as name.csv.
func (o *artifactFiles) putSeries(name string, s []report.Series) error {
	p := filepath.Join(o.dir, name+".csv")
	if err := os.WriteFile(p, []byte(report.SeriesCSV(s)), 0o644); err != nil {
		return err
	}
	o.files = append(o.files, p)
	return nil
}
