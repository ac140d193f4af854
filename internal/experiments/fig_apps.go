package experiments

import (
	"fmt"

	"roamsim/internal/fleet"
	"roamsim/internal/ipx"
	"roamsim/internal/mno"
	"roamsim/internal/report"
	"roamsim/internal/stats"
)

// cdnTable builds a per-country download-time table for one provider.
func (r *Runner) cdnTable(provider string) (*report.Table, error) {
	cdns, err := r.CDNFetches()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("CDN download time via %s (jquery.min.js)", provider),
		Headers: []string{"Country", "Config", "Median (ms)", "Mean (ms)", "MISS rate"},
	}
	for _, iso := range fleet.DeviceCountries {
		esimArch := archOf(cdns, iso)
		for _, kind := range []mno.SIMKind{mno.PhysicalSIM, mno.ESIM} {
			var v []float64
			misses, total := 0, 0
			for _, o := range cdns {
				if o.ISO == iso && o.Kind == kind && o.Provider == provider {
					v = append(v, o.TotalMs)
					total++
					if o.Cache == "MISS" {
						misses++
					}
				}
			}
			if len(v) == 0 {
				continue
			}
			label := "SIM"
			if kind == mno.ESIM {
				label = configLabel(kind, esimArch)
			}
			t.AddRow(iso, label,
				fmt.Sprintf("%.0f", stats.Median(v)),
				fmt.Sprintf("%.0f", stats.Mean(v)),
				report.Pct(float64(misses)/float64(total)))
		}
	}
	return t, nil
}

func archOf(cdns []CDNObs, iso string) ipx.Architecture {
	for _, o := range cdns {
		if o.ISO == iso && o.Kind == mno.ESIM {
			return o.Arch
		}
	}
	return ipx.Native
}

// Figure14aResult bundles the Cloudflare analysis with the cross-
// architecture means the paper quotes.
type Figure14aResult struct {
	Table *report.Table
	// MeanByArch holds the mean eSIM download times per architecture
	// (paper: IHBO 1316 ms, native 306/514 ms, HR 3203/1781 ms).
	MeanByArch map[ipx.Architecture]float64
}

// Figure14a reports Cloudflare download times and the architecture-
// level means.
func (r *Runner) Figure14a() (*Figure14aResult, error) {
	t, err := r.cdnTable("Cloudflare")
	if err != nil {
		return nil, err
	}
	cdns, err := r.CDNFetches()
	if err != nil {
		return nil, err
	}
	by := map[ipx.Architecture][]float64{}
	for _, o := range cdns {
		if o.Kind == mno.ESIM && o.Provider == "Cloudflare" {
			by[o.Arch] = append(by[o.Arch], o.TotalMs)
		}
	}
	res := &Figure14aResult{Table: t, MeanByArch: map[ipx.Architecture]float64{}}
	for arch, v := range by {
		res.MeanByArch[arch] = stats.Mean(v)
	}
	return res, nil
}

// Figure20 reports the remaining four CDN providers.
func (r *Runner) Figure20() ([]*report.Table, error) {
	var out []*report.Table
	for _, prov := range []string{"Google CDN", "jQuery CDN", "jsDelivr", "Microsoft Ajax"} {
		t, err := r.cdnTable(prov)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure14bResult bundles the DNS analysis.
type Figure14bResult struct {
	Table *report.Table
	// GoogleResolverShareSameCountry is the fraction of IHBO lookups
	// answered by a resolver in the PGW's country (paper: 74%).
	GoogleResolverShareSameCountry float64
	// MedianIncrease maps ISO -> eSIM median / SIM median - 1.
	MedianIncrease map[string]float64
}

// Figure14b reports DNS lookup times per country and configuration.
func (r *Runner) Figure14b() (*Figure14bResult, error) {
	dnses, err := r.DNSLookups()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Figure 14b: DNS lookup time",
		Headers: []string{"Country", "Config", "Median (ms)", "DoH", "Resolver"},
	}
	res := &Figure14bResult{Table: t, MedianIncrease: map[string]float64{}}
	var ihboSame, ihboTotal int
	for _, iso := range fleet.DeviceCountries {
		medians := map[mno.SIMKind]float64{}
		for _, kind := range []mno.SIMKind{mno.PhysicalSIM, mno.ESIM} {
			var v []float64
			var doh bool
			var resolver string
			var arch ipx.Architecture
			for _, o := range dnses {
				if o.ISO == iso && o.Kind == kind {
					v = append(v, o.DurationMs)
					doh = o.DoH
					arch = o.Arch
					if o.ResolverASN == 15169 {
						resolver = "Google DNS"
					} else {
						resolver = "operator"
					}
					if kind == mno.ESIM && o.Arch == ipx.IHBO {
						ihboTotal++
						if o.ResolverCountry == o.PGWCountry {
							ihboSame++
						}
					}
				}
			}
			if len(v) == 0 {
				continue
			}
			medians[kind] = stats.Median(v)
			label := "SIM"
			if kind == mno.ESIM {
				label = configLabel(kind, arch)
			}
			t.AddRow(iso, label, fmt.Sprintf("%.0f", stats.Median(v)),
				fmt.Sprintf("%v", doh), resolver)
		}
		if medians[mno.PhysicalSIM] > 0 && medians[mno.ESIM] > 0 {
			res.MedianIncrease[iso] = medians[mno.ESIM]/medians[mno.PhysicalSIM] - 1
		}
	}
	if ihboTotal > 0 {
		res.GoogleResolverShareSameCountry = float64(ihboSame) / float64(ihboTotal)
	}
	return res, nil
}

// Figure15 reports the YouTube playback resolution distribution per
// country and configuration.
func (r *Runner) Figure15() (*report.Table, error) {
	videos, err := r.Videos()
	if err != nil {
		return nil, err
	}
	rungs := []string{"480p", "720p", "1080p", "1440p"}
	t := &report.Table{
		Title:   "Figure 15: YouTube playback resolution shares",
		Headers: append([]string{"Country", "Config"}, rungs...),
	}
	for _, iso := range fleet.DeviceCountries {
		if iso == "ESP" || iso == "GBR" {
			continue
		}
		for _, kind := range []mno.SIMKind{mno.PhysicalSIM, mno.ESIM} {
			shareSum := map[string]float64{}
			n := 0
			var arch ipx.Architecture
			for _, o := range videos {
				if o.ISO == iso && o.Kind == kind {
					for rung, share := range o.Shares {
						shareSum[rung] += share
					}
					arch = o.Arch
					n++
				}
			}
			if n == 0 {
				continue
			}
			label := "SIM"
			if kind == mno.ESIM {
				label = configLabel(kind, arch)
			}
			row := []any{iso, label}
			for _, rung := range rungs {
				row = append(row, report.Pct(shareSum[rung]/float64(n)))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}
