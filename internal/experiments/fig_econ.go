package experiments

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"time"

	"roamsim/internal/esimdb"
	"roamsim/internal/geo"
	"roamsim/internal/report"
	"roamsim/internal/stats"
)

// marketplace builds the synthetic aggregator once per runner.
func (r *Runner) marketplace() *esimdb.Marketplace {
	return esimdb.New(r.Cfg.Seed, 54)
}

// Figure16 reports the evolution of median $/GB per continent over the
// crawl period, plus the New Jersey vantage check.
func (r *Runner) Figure16() (*report.Table, error) {
	m := r.marketplace()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	client := esimdb.NewClient()
	defer client.CloseIdleConnections()

	dates := []time.Time{
		time.Date(2024, 2, 14, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
	}
	continents := []geo.Continent{geo.Africa, geo.Asia, geo.Europe, geo.NorthAmerica, geo.SouthAmerica, geo.Oceania}

	t := &report.Table{
		Title:   "Figure 16: median Airalo $/GB per continent over time",
		Headers: append([]string{"Continent"}, datesToStrings(dates)...),
	}
	crawler := &esimdb.Crawler{BaseURL: srv.URL, Vantage: "Madrid", Client: client}
	perDate := make([]map[geo.Continent][]float64, len(dates))
	for i, d := range dates {
		plans, err := crawler.Crawl(d)
		if err != nil {
			return nil, err
		}
		perDate[i] = esimdb.ContinentDistribution(plans, "Airalo")
	}
	for _, ct := range continents {
		row := []any{string(ct)}
		for i := range dates {
			row = append(row, fmt.Sprintf("%.2f", stats.Median(perDate[i][ct])))
		}
		t.AddRow(row...)
	}
	// Vantage check: the New Jersey crawl of the last date must match.
	nj := &esimdb.Crawler{BaseURL: srv.URL, Vantage: "New Jersey", Client: client}
	njPlans, err := nj.Crawl(dates[len(dates)-1])
	if err != nil {
		return nil, err
	}
	njDist := esimdb.ContinentDistribution(njPlans, "Airalo")
	row := []any{"NorthAmerica (NJ vantage)"}
	for range dates[:len(dates)-1] {
		row = append(row, "-")
	}
	row = append(row, fmt.Sprintf("%.2f", stats.Median(njDist[geo.NorthAmerica])))
	t.AddRow(row...)
	return t, nil
}

func datesToStrings(dates []time.Time) []string {
	out := make([]string, len(dates))
	for i, d := range dates {
		out[i] = d.Format("2006-01-02")
	}
	return out
}

// Figure17Result bundles the provider comparison.
type Figure17Result struct {
	Table *report.Table
	// Medians per headline provider.
	Medians map[string]float64
	// LocalSIMMedianPerGB is the dashed-line reference.
	LocalSIMMedianPerGB float64
}

// Figure17 reports the CDF of median $/GB per country for the headline
// providers plus the volunteer-collected local-SIM baseline.
func (r *Runner) Figure17() (*Figure17Result, error) {
	m := r.marketplace()
	plans := m.Offers(esimdb.SnapshotDate)
	pm := esimdb.ProviderMedianPerGB(plans)

	t := &report.Table{
		Title:   "Figure 17: median $/GB per provider (2024-05-01 snapshot)",
		Headers: []string{"Provider", "Median $/GB", "Countries", "Offers", "% of catalog"},
	}
	var total int
	for _, info := range pm {
		total += info.Offers
	}
	res := &Figure17Result{Medians: map[string]float64{}}
	for _, name := range []string{"Airhub", "MobiMatter", "Nomad", "Airalo", "Keepgo"} {
		info := pm[name]
		res.Medians[name] = info.Median
		t.AddRow(name, fmt.Sprintf("%.2f", info.Median), info.Countries, info.Offers,
			report.Pct(float64(info.Offers)/float64(total)))
	}
	var localPerGB []float64
	for _, o := range esimdb.LocalSIMOffers {
		localPerGB = append(localPerGB, o.PerGB())
	}
	res.LocalSIMMedianPerGB = stats.Median(localPerGB)
	t.AddRow("local physical SIM", fmt.Sprintf("%.2f", res.LocalSIMMedianPerGB),
		len(esimdb.LocalSIMOffers), len(esimdb.LocalSIMOffers), "-")
	res.Table = t
	return res, nil
}

// Figure18 reports the decile boundaries of country-level median $/GB
// and the most/least expensive countries — the data behind the map.
func (r *Runner) Figure18() (*report.Table, error) {
	m := r.marketplace()
	plans := m.Offers(esimdb.SnapshotDate)
	medians := esimdb.MedianPerGBByCountry(plans, "Airalo")
	deciles := esimdb.PriceDeciles(plans, "Airalo")

	t := &report.Table{
		Title:   "Figure 18: Airalo median $/GB per country (deciles + extremes)",
		Headers: []string{"Metric", "Value"},
	}
	for i, d := range deciles {
		t.AddRow(fmt.Sprintf("decile %d0%%", i+1), fmt.Sprintf("%.2f", d))
	}
	type kv struct {
		iso string
		v   float64
	}
	var all []kv
	for iso, v := range medians {
		all = append(all, kv{iso, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	if len(all) > 0 {
		t.AddRow("cheapest country", fmt.Sprintf("%s (%.2f)", all[0].iso, all[0].v))
		t.AddRow("priciest country", fmt.Sprintf("%s (%.2f)", all[len(all)-1].iso, all[len(all)-1].v))
	}
	var worldwide []float64
	for _, e := range all {
		worldwide = append(worldwide, e.v)
	}
	t.AddRow("worldwide median", fmt.Sprintf("%.2f", stats.Median(worldwide)))
	// Central America's consistent premium (the red cluster).
	var central []float64
	for _, e := range all {
		switch e.iso {
		case "CRI", "PAN", "GTM", "HND", "NIC", "SLV", "BLZ":
			central = append(central, e.v)
		}
	}
	t.AddRow("Central America median", fmt.Sprintf("%.2f", stats.Median(central)))
	return t, nil
}

// Figure19 reports plan size vs price for Airalo plans sharing a b-MNO
// (plans <= 5 GB, the paper's visibility cut).
func (r *Runner) Figure19() (*report.Table, error) {
	m := r.marketplace()
	plans := m.Offers(esimdb.SnapshotDate)
	t := &report.Table{
		Title:   "Figure 19: Airalo price ($) by plan size and b-MNO (plans <= 5 GB)",
		Headers: []string{"b-MNO", "Country", "1 GB", "2 GB", "3 GB", "5 GB"},
	}
	type key struct{ bmno, iso string }
	prices := map[key]map[float64]float64{}
	for _, p := range plans {
		if p.Provider != "Airalo" || p.BMNOName == "" || p.SizeGB > 5 || p.SizeGB < 1 {
			continue
		}
		k := key{p.BMNOName, p.Country}
		if prices[k] == nil {
			prices[k] = map[float64]float64{}
		}
		prices[k][p.SizeGB] = p.PriceUSD
	}
	var keys []key
	for k := range prices {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bmno != keys[j].bmno {
			return keys[i].bmno < keys[j].bmno
		}
		return keys[i].iso < keys[j].iso
	})
	for _, k := range keys {
		row := []any{k.bmno, k.iso}
		for _, size := range []float64{1, 2, 3, 5} {
			if v, ok := prices[k][size]; ok {
				row = append(row, fmt.Sprintf("%.2f", v))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}
