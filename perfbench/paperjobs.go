package main

import (
	"fmt"

	"roamsim/internal/experiments"
	"roamsim/internal/report"
)

// artifactFile is one file an artifact job writes.
type artifactFile struct {
	name, body string
}

// artifactJob is one Runner.WriteAll job: the traced paper pass calls
// and times each through the Runner's public methods, in WriteAll's
// order, and writes the same files WriteAll would.
type artifactJob struct {
	name string
	run  func(r *experiments.Runner) ([]artifactFile, error)
}

func tableFiles(name string, t *report.Table) []artifactFile {
	return []artifactFile{{name + ".txt", t.String()}, {name + ".csv", t.CSV()}}
}

func seriesFiles(name string, s []report.Series) []artifactFile {
	return []artifactFile{{name + ".csv", report.SeriesCSV(s)}}
}

// table adapts a method returning one table.
func table(name string, f func(*experiments.Runner) (*report.Table, error)) artifactJob {
	return artifactJob{name, func(r *experiments.Runner) ([]artifactFile, error) {
		t, err := f(r)
		if err != nil {
			return nil, err
		}
		return tableFiles(name, t), nil
	}}
}

// result adapts a method returning a result struct, picking the files
// from it.
func result[T any](name string, f func(*experiments.Runner) (T, error), files func(T) []artifactFile) artifactJob {
	return artifactJob{name, func(r *experiments.Runner) ([]artifactFile, error) {
		res, err := f(r)
		if err != nil {
			return nil, err
		}
		return files(res), nil
	}}
}

// paperJobs mirrors the job list of experiments.Runner.WriteAll. The
// traced pass's files are compared byte for byte with the reference
// WriteAll output, so a drift between the two lists fails the run.
var paperJobs = []artifactJob{
	table("table2", (*experiments.Runner).Table2),
	table("table3", (*experiments.Runner).Table3),
	table("table4", (*experiments.Runner).Table4),
	table("fig3", (*experiments.Runner).Figure3),
	table("fig4", (*experiments.Runner).Figure4),
	result("fig5", (*experiments.Runner).Figure5, func(r *experiments.Figure5Result) []artifactFile { return tableFiles("fig5", r.Table) }),
	table("fig6", (*experiments.Runner).Figure6),
	table("fig7", (*experiments.Runner).Figure7),
	result("fig8", (*experiments.Runner).Figure8, func(r *experiments.Figure8Result) []artifactFile { return seriesFiles("fig8_cdf", r.Series) }),
	result("fig9", (*experiments.Runner).Figure9, func(r *experiments.Figure9Result) []artifactFile { return seriesFiles("fig9_cdf", r.Series) }),
	table("fig10", (*experiments.Runner).Figure10),
	result("fig11", (*experiments.Runner).Figure11, func(r *experiments.Figure11Result) []artifactFile { return tableFiles("fig11", r.Table) }),
	result("fig12", (*experiments.Runner).Figure12, func(r *experiments.Figure12Result) []artifactFile { return seriesFiles("fig12_cdf", r.Series) }),
	result("fig13", (*experiments.Runner).Figure13, func(r *experiments.Figure13Result) []artifactFile {
		return append(tableFiles("fig13a_web", r.WebTable), tableFiles("fig13bc_device", r.DeviceTable)...)
	}),
	result("fig14a", (*experiments.Runner).Figure14a, func(r *experiments.Figure14aResult) []artifactFile { return tableFiles("fig14a", r.Table) }),
	result("fig14b", (*experiments.Runner).Figure14b, func(r *experiments.Figure14bResult) []artifactFile { return tableFiles("fig14b", r.Table) }),
	table("fig15", (*experiments.Runner).Figure15),
	table("fig16", (*experiments.Runner).Figure16),
	result("fig17", (*experiments.Runner).Figure17, func(r *experiments.Figure17Result) []artifactFile { return tableFiles("fig17", r.Table) }),
	table("fig18", (*experiments.Runner).Figure18),
	table("fig19", (*experiments.Runner).Figure19),
	result("fig20", (*experiments.Runner).Figure20, func(ts []*report.Table) []artifactFile {
		var out []artifactFile
		for i, t := range ts {
			out = append(out, tableFiles(fmt.Sprintf("fig20_%d", i+1), t)...)
		}
		return out
	}),
	table("validation", (*experiments.Runner).Validation),
	table("ablation_pgw", (*experiments.Runner).AblationPGWSelection),
	table("ablation_policy", (*experiments.Runner).AblationPolicyCaps),
	table("ablation_peering", (*experiments.Runner).AblationPeering),
	table("ablation_lbo", (*experiments.Runner).AblationLBO),
	table("voip", (*experiments.Runner).FutureVoIP),
	table("jurisdiction", (*experiments.Runner).DiscussionJurisdiction),
	table("confounders", (*experiments.Runner).Confounders),
	table("signaling", (*experiments.Runner).SignalingBreakdown),
}

// paperCampaigns are the Runner's memoized campaigns. The traced pass
// runs them first, so each artifact's time excludes the campaigns it
// shares with the others.
var paperCampaigns = []struct {
	name string
	run  func(r *experiments.Runner) error
}{
	{"traces", func(r *experiments.Runner) error { _, err := r.Traces(); return err }},
	{"speedtests", func(r *experiments.Runner) error { _, err := r.Speedtests(); return err }},
	{"cdn", func(r *experiments.Runner) error { _, err := r.CDNFetches(); return err }},
	{"dns", func(r *experiments.Runner) error { _, err := r.DNSLookups(); return err }},
	{"videos", func(r *experiments.Runner) error { _, err := r.Videos(); return err }},
}
