package experiments

import (
	"fmt"
	"sort"

	"roamsim/internal/core"
	"roamsim/internal/fleet"
	"roamsim/internal/geo"
	"roamsim/internal/ipx"
	"roamsim/internal/measure"
	"roamsim/internal/report"
	"roamsim/internal/rng"
	"roamsim/internal/stats"
)

// AblationPGWSelection quantifies what the static pre-arranged PGW
// selection costs versus the geo-nearest selection IHBO theoretically
// enables: per IHBO deployment, the actual tunnel span and PGW RTT vs
// the nearest available site in the *same provider pool*.
func (r *Runner) AblationPGWSelection() (*report.Table, error) {
	src := rng.New(r.Cfg.Seed).Fork("abl-pgw")
	pool := []*ipx.PGWProvider{
		r.W.Providers["Packet Host"], r.W.Providers["OVH SAS"],
		r.W.Providers["Wireless Logic"], r.W.Providers["Webbing USA"],
	}
	nearest := &ipx.GeoNearestSelector{Arch: ipx.IHBO, Pool: pool}

	t := &report.Table{
		Title: "Ablation: static pre-arranged vs geo-nearest PGW selection (IHBO eSIMs)",
		Headers: []string{"Country", "Static site", "Static km", "Nearest site", "Nearest km",
			"Span saved", "Est. RTT saved (ms)"},
	}
	var farther int
	var total int
	for _, key := range r.W.DeploymentKeys(false, false) {
		d := r.W.Deployments[key]
		s, err := d.AttachESIM(src)
		if err != nil {
			return nil, err
		}
		if s.Arch != ipx.IHBO {
			continue
		}
		total++
		actualKm := geo.DistanceKm(d.Loc, s.Site.Loc)
		alt, err := nearest.Select(d.BMNO.Name, d.Loc, src)
		if err != nil {
			return nil, err
		}
		altKm := geo.DistanceKm(d.Loc, alt.Site.Loc)
		saved := actualKm - altKm
		// RTT saved ≈ 2 × one-way propagation of the extra distance.
		rttSaved := 2 * saved * geo.FiberRouteFactor / geo.FiberKmPerMs
		if saved > 500 {
			farther++
		}
		t.AddRow(key, s.Site.City, fmt.Sprintf("%.0f", actualKm),
			alt.Site.City, fmt.Sprintf("%.0f", altKm),
			fmt.Sprintf("%.0f km", saved), fmt.Sprintf("%.0f", rttSaved))
	}
	t.AddRow("SUMMARY", "", "", "", "",
		fmt.Sprintf("%d/%d eSIMs break out >500 km farther than needed", farther, total), "")
	return t, nil
}

// AblationPolicyCaps contrasts measured eSIM downlink with the downlink
// the same paths would sustain without v-MNO policy caps: if throughput
// were governed by the roaming topology, removing the caps would leave
// the ordering unchanged; instead the architecture signal disappears —
// the paper's "v-MNO policy dominates" takeaway.
func (r *Runner) AblationPolicyCaps() (*report.Table, error) {
	src := rng.New(r.Cfg.Seed).Fork("abl-policy")
	t := &report.Table{
		Title:   "Ablation: eSIM downlink with and without v-MNO policy caps",
		Headers: []string{"Country", "Arch", "Capped median (Mbps)", "Uncapped median (Mbps)"},
	}
	type pair struct {
		arch             ipx.Architecture
		capped, uncapped float64
	}
	var rows []pair
	for _, iso := range fleet.DeviceCountries {
		d := r.W.Deployments[iso]
		var capped, uncapped []float64
		var arch ipx.Architecture
		for i := 0; i < 30; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				return nil, err
			}
			arch = s.Arch
			res, err := measure.Speedtest(s, src)
			if err != nil {
				return nil, err
			}
			capped = append(capped, res.DownMbps)
			// Remove the policy caps and re-measure the same session.
			s.DownCapMbps, s.UpCapMbps = 0, 0
			res2, err := measure.Speedtest(s, src)
			if err != nil {
				return nil, err
			}
			uncapped = append(uncapped, res2.DownMbps)
		}
		cm, um := stats.Median(capped), stats.Median(uncapped)
		rows = append(rows, pair{arch, cm, um})
		t.AddRow(iso, string(arch), fmt.Sprintf("%.1f", cm), fmt.Sprintf("%.1f", um))
	}
	// Summary: correlation between architecture and throughput under
	// each regime (does IHBO beat HR?).
	med := func(sel func(pair) bool, get func(pair) float64) float64 {
		var v []float64
		for _, p := range rows {
			if sel(p) {
				v = append(v, get(p))
			}
		}
		return stats.Median(v)
	}
	t.AddRow("IHBO/HR ratio (capped)", "",
		fmt.Sprintf("%.2f", med(func(p pair) bool { return p.arch == ipx.IHBO }, func(p pair) float64 { return p.capped })/
			med(func(p pair) bool { return p.arch == ipx.HR }, func(p pair) float64 { return p.capped })), "")
	t.AddRow("IHBO/HR ratio (uncapped)", "", "",
		fmt.Sprintf("%.2f", med(func(p pair) bool { return p.arch == ipx.IHBO }, func(p pair) float64 { return p.uncapped })/
			med(func(p pair) bool { return p.arch == ipx.HR }, func(p pair) float64 { return p.uncapped })))
	return t, nil
}

// AblationPeering separates distance from peering-agreement quality in
// PGW RTTs: for each roaming deployment, the geometric RTT floor
// (pure propagation) vs the measured RTT including penalties. The gap is
// the interconnection cost the paper identifies as dominant.
func (r *Runner) AblationPeering() (*report.Table, error) {
	src := rng.New(r.Cfg.Seed).Fork("abl-peering")
	t := &report.Table{
		Title:   "Ablation: distance-only RTT floor vs measured PGW RTT",
		Headers: []string{"Country", "Provider", "Geo floor (ms)", "Measured (ms)", "Peering cost (ms)"},
	}
	for _, iso := range fleet.DeviceCountries {
		d := r.W.Deployments[iso]
		byProv := map[string][]float64{}
		siteOf := map[string]geo.Point{}
		for i := 0; i < 40; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				return nil, err
			}
			if s.Arch == ipx.Native {
				continue
			}
			rtt, err := measure.PGWHopRTT(s, src)
			if err != nil {
				return nil, err
			}
			byProv[s.Provider.Name] = append(byProv[s.Provider.Name], rtt)
			siteOf[s.Provider.Name] = s.Site.Loc
		}
		// Emit rows in sorted provider order: map iteration order would
		// otherwise leak into the table and break determinism per seed.
		provs := make([]string, 0, len(byProv))
		for prov := range byProv {
			provs = append(provs, prov)
		}
		sort.Strings(provs)
		for _, prov := range provs {
			floor := 2 * geo.PropagationDelayMs(d.Loc, siteOf[prov])
			measured := stats.Median(byProv[prov])
			t.AddRow(iso, prov, fmt.Sprintf("%.0f", floor),
				fmt.Sprintf("%.0f", measured), fmt.Sprintf("%.0f", measured-floor))
		}
	}
	return t, nil
}

// Validation reruns the Section 4.3.1 methodology check: traceroutes
// from the emnify eSIM must localize the PGW at AS16509 in Dublin.
func (r *Runner) Validation() (*report.Table, error) {
	src := rng.New(r.Cfg.Seed).Fork("validation")
	d := r.W.Deployments["EMNIFY"]
	t := &report.Table{
		Title:   "Methodology validation (emnify eSIM, O2 UK v-MNO)",
		Headers: []string{"Target", "Traceroutes", "PGW AS", "PGW City", "Matches ground truth"},
	}
	for _, target := range []string{"Google", "Facebook"} {
		counts := map[string]int{}
		n := 0
		for i := 0; i < 30; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				return nil, err
			}
			tr, err := measure.Traceroute(s, target, src)
			if err != nil {
				return nil, err
			}
			pa, err := core.Demarcate(tr.Raw, r.W.Reg)
			if err != nil {
				continue
			}
			counts[fmt.Sprintf("%s/%s", pa.PGW.AS.Number, pa.PGW.City)]++
			n++
		}
		best, bestN := "", 0
		for k, c := range counts {
			// Tie-break on the key so a split vote resolves the same way
			// every run (map iteration order is randomized).
			if c > bestN || (c == bestN && (best == "" || k < best)) {
				best, bestN = k, c
			}
		}
		match := "NO"
		if best == "AS16509/Dublin" {
			match = "YES"
		}
		t.AddRow(target, n, best, "", match)
	}
	return t, nil
}
