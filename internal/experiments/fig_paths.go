package experiments

import (
	"fmt"

	"roamsim/internal/fleet"
	"roamsim/internal/ipx"
	"roamsim/internal/mno"
	"roamsim/internal/report"
	"roamsim/internal/stats"
)

// Figure6 reports the median number of unique ASNs observed in
// traceroutes to Google and Facebook, per country and configuration.
func (r *Runner) Figure6() (*report.Table, error) {
	traces, err := r.Traces()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Figure 6: median unique ASNs in traceroutes",
		Headers: []string{"Country", "Target", "SIM", "eSIM"},
	}
	for _, iso := range fleet.DeviceCountries {
		for _, target := range []string{"Google", "Facebook"} {
			med := func(kind mno.SIMKind) string {
				var v []float64
				for _, o := range traces {
					if o.ISO == iso && o.Target == target && o.Kind == kind {
						v = append(v, float64(o.PA.UniqueASNs))
					}
				}
				if len(v) == 0 {
					return "-"
				}
				return fmt.Sprintf("%.0f", stats.Median(v))
			}
			t.AddRow(iso, target, med(mno.PhysicalSIM), med(mno.ESIM))
		}
	}
	return t, nil
}

// Figure7 reports private path length (hops before the first public IP)
// per country and configuration, from traceroutes to Google.
func (r *Runner) Figure7() (*report.Table, error) {
	traces, err := r.Traces()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Figure 7: private path length (traceroutes to Google)",
		Headers: []string{"Country", "Arch", "Config", "Median", "Q1", "Q3", "Min", "Max"},
	}
	for _, iso := range fleet.DeviceCountries {
		for _, kind := range []mno.SIMKind{mno.PhysicalSIM, mno.ESIM} {
			var v []float64
			var arch ipx.Architecture
			for _, o := range traces {
				if o.ISO == iso && o.Target == "Google" && o.Kind == kind {
					v = append(v, float64(o.PA.PrivateHops))
					arch = o.Arch
				}
			}
			if len(v) == 0 {
				continue
			}
			b := stats.NewBoxplot(v)
			t.AddRow(iso, string(arch), string(kind),
				fmt.Sprintf("%.0f", b.Median), fmt.Sprintf("%.0f", b.Q1),
				fmt.Sprintf("%.0f", b.Q3), fmt.Sprintf("%.0f", b.Min), fmt.Sprintf("%.0f", b.Max))
		}
	}
	return t, nil
}

// Figure8Result holds the HR PGW RTT CDFs.
type Figure8Result struct {
	Series  []report.Series
	Medians map[string]float64
}

// Figure8 compares the RTT to the Singtel PGWs from the two HR eSIMs
// (Pakistan and UAE): the UAE is farther but faster.
func (r *Runner) Figure8() (*Figure8Result, error) {
	traces, err := r.Traces()
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{Medians: map[string]float64{}}
	for _, iso := range []string{"PAK", "ARE"} {
		var v []float64
		for _, o := range traces {
			if o.ISO == iso && o.Kind == mno.ESIM && o.Arch == ipx.HR {
				v = append(v, o.PA.PGWHopRTTms)
			}
		}
		if len(v) == 0 {
			return nil, fmt.Errorf("experiments: no HR PGW RTTs for %s", iso)
		}
		cdf := stats.CDF(v)
		s := report.Series{Name: iso}
		for _, p := range cdf {
			s.X = append(s.X, p.X)
			s.Y = append(s.Y, p.P)
		}
		res.Series = append(res.Series, s)
		res.Medians[iso] = stats.Median(v)
	}
	return res, nil
}

// Figure9Result holds the IHBO PGW RTT CDFs per provider.
type Figure9Result struct {
	Series  []report.Series
	Medians map[string]float64 // "ISO/provider" -> median
}

// Figure9 compares OVH SAS and Packet Host PGW RTTs from the Play eSIMs
// in Georgia, Germany and Spain: Packet Host wins everywhere but
// Georgia.
func (r *Runner) Figure9() (*Figure9Result, error) {
	traces, err := r.Traces()
	if err != nil {
		return nil, err
	}
	res := &Figure9Result{Medians: map[string]float64{}}
	for _, iso := range []string{"GEO", "DEU", "ESP"} {
		for _, prov := range []string{"OVH SAS", "Packet Host"} {
			var v []float64
			for _, o := range traces {
				if o.ISO == iso && o.Kind == mno.ESIM && o.Provider == prov {
					v = append(v, o.PA.PGWHopRTTms)
				}
			}
			if len(v) == 0 {
				continue
			}
			name := fmt.Sprintf("%s/%s", iso, shortProv(prov))
			cdf := stats.CDF(v)
			s := report.Series{Name: name}
			for _, p := range cdf {
				s.X = append(s.X, p.X)
				s.Y = append(s.Y, p.P)
			}
			res.Series = append(res.Series, s)
			res.Medians[name] = stats.Median(v)
		}
	}
	return res, nil
}

func shortProv(p string) string {
	switch p {
	case "OVH SAS":
		return "OS"
	case "Packet Host":
		return "PH"
	}
	return p
}

// Figure10 reports public path length per country, configuration and
// target.
func (r *Runner) Figure10() (*report.Table, error) {
	traces, err := r.Traces()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Figure 10: public path length (hops after breakout)",
		Headers: []string{"Country", "Target", "Config", "Median", "Q1", "Q3"},
	}
	for _, iso := range fleet.DeviceCountries {
		for _, target := range []string{"Google", "Facebook"} {
			for _, kind := range []mno.SIMKind{mno.PhysicalSIM, mno.ESIM} {
				var v []float64
				for _, o := range traces {
					if o.ISO == iso && o.Target == target && o.Kind == kind {
						v = append(v, float64(o.PA.PublicHops))
					}
				}
				if len(v) == 0 {
					continue
				}
				b := stats.NewBoxplot(v)
				t.AddRow(iso, target, string(kind),
					fmt.Sprintf("%.0f", b.Median), fmt.Sprintf("%.0f", b.Q1), fmt.Sprintf("%.0f", b.Q3))
			}
		}
	}
	return t, nil
}
