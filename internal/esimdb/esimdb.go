// Package esimdb reproduces the crawler-based campaign: a synthetic
// eSIM marketplace aggregator (the EsimDB substitute) with 54 providers,
// per-country plan catalogs, and a pricing model calibrated to the
// paper's Section 6 findings; plus a real HTTP API and crawler client so
// the data-collection code path (pagination, vantage headers, daily
// retrievals) is genuinely exercised.
//
// Calibration anchors (Figure 16–19):
//   - continent-level median $/GB: Europe ≈ 4.5, North America ≈ 9 (driven
//     by Central America), Asia 5.5 rising to 6.5 in April, Africa rising;
//   - provider medians: Airhub ≈ 2.3, MobiMatter ≈ 60% below Airalo,
//     Airalo ≈ 7.9 worldwide, Keepgo ≈ 16.2;
//   - no price discrimination across crawl vantage points;
//   - plan prices grow non-linearly with size, and same-b-MNO plans still
//     differ across countries (Georgia > Spain for Play-based eSIMs).
package esimdb

import (
	"fmt"
	"math"
	"sort"
	"time"

	"roamsim/internal/geo"
	"roamsim/internal/rng"
)

// Plan is one eSIM offer as the aggregator lists it.
type Plan struct {
	Provider string  `json:"provider"`
	Country  string  `json:"country"` // ISO3
	SizeGB   float64 `json:"size_gb"`
	Days     int     `json:"days"`
	PriceUSD float64 `json:"price_usd"`
	// BMNOName is the issuing operator when known (Airalo plans expose it
	// via the APN settings; most competitors don't).
	BMNOName string `json:"b_mno,omitempty"`
}

// PerGB returns the plan's cost per gigabyte.
func (p Plan) PerGB() float64 {
	if p.SizeGB == 0 {
		return 0
	}
	return p.PriceUSD / p.SizeGB
}

// ProviderSpec configures one marketplace provider.
type ProviderSpec struct {
	Name string
	// PriceFactor scales the country base price (1.0 = market median).
	PriceFactor float64
	// Coverage is the fraction of countries the provider serves.
	Coverage float64
	// PlansPerCountry is the catalog depth.
	PlansPerCountry int
	// SizeExponent shapes price growth with plan size: price =
	// unit·size^SizeExponent. Values near 1 are linear; Airalo's
	// catalogs show super-linear steps in some countries.
	SizeExponent float64
}

// Campaign period of the paper's crawler.
var (
	CampaignStart = time.Date(2024, 2, 14, 0, 0, 0, 0, time.UTC)
	CampaignEnd   = time.Date(2024, 5, 31, 0, 0, 0, 0, time.UTC)
	// SnapshotDate is the reference snapshot (Figure 17/18: 2024-05-01).
	SnapshotDate = time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
)

// headlineProviders are the providers the paper compares, with factors
// chosen so their median $/GB land near the reported values given the
// worldwide median base of ≈ 7.9.
var headlineProviders = []ProviderSpec{
	{Name: "Airalo", PriceFactor: 1.00, Coverage: 0.95, PlansPerCountry: 9, SizeExponent: 1.08},
	{Name: "Airhub", PriceFactor: 0.29, Coverage: 0.80, PlansPerCountry: 5, SizeExponent: 0.95},
	{Name: "MobiMatter", PriceFactor: 0.40, Coverage: 0.88, PlansPerCountry: 14, SizeExponent: 0.92},
	{Name: "Keepgo", PriceFactor: 2.05, Coverage: 0.78, PlansPerCountry: 4, SizeExponent: 0.90},
	{Name: "Nomad", PriceFactor: 0.85, Coverage: 0.70, PlansPerCountry: 6, SizeExponent: 1.0},
}

// continentBase is the continent-level base $/GB (median across its
// countries) at campaign start.
var continentBase = map[geo.Continent]float64{
	geo.Europe:       4.5,
	geo.Asia:         5.5,
	geo.Africa:       7.0,
	geo.NorthAmerica: 9.0,
	geo.SouthAmerica: 8.0,
	geo.Oceania:      7.5,
}

// centralAmerica lists the consistently expensive countries of Fig 18.
var centralAmerica = map[string]bool{
	"CRI": true, "PAN": true, "GTM": true, "HND": true,
	"NIC": true, "SLV": true, "BLZ": true,
}

// planSizesGB is the offered plan ladder.
var planSizesGB = []float64{0.5, 1, 2, 3, 5, 10, 20}

// Marketplace is the synthetic aggregator.
type Marketplace struct {
	providers []ProviderSpec
	countries []geo.Country
	// countryFactor is a per-country price multiplier (stable over time).
	countryFactor map[string]float64
	// providerCountry marks which providers serve which countries.
	providerCountry map[string]map[string]bool
	seed            int64
}

// New builds a marketplace with the 5 headline providers plus enough
// generic providers to reach total (54 in the paper).
func New(seed int64, totalProviders int) *Marketplace {
	src := rng.New(seed)
	m := &Marketplace{
		countries:       geo.Countries(),
		countryFactor:   map[string]float64{},
		providerCountry: map[string]map[string]bool{},
		seed:            seed,
	}
	m.providers = append(m.providers, headlineProviders...)
	for i := len(m.providers); i < totalProviders; i++ {
		m.providers = append(m.providers, ProviderSpec{
			Name:            fmt.Sprintf("esim-provider-%02d", i),
			PriceFactor:     src.Uniform(0.5, 1.8),
			Coverage:        src.Uniform(0.2, 0.9),
			PlansPerCountry: src.IntBetween(3, 10),
			SizeExponent:    src.Uniform(0.85, 1.1),
		})
	}
	for _, c := range m.countries {
		f := src.LogNormalMeanMedian(1.0, 0.25)
		if centralAmerica[c.ISO3] {
			f *= src.Uniform(1.5, 2.1) // the red cluster of Figure 18
		}
		m.countryFactor[c.ISO3] = f
	}
	for _, p := range m.providers {
		served := map[string]bool{}
		for _, c := range m.countries {
			if src.Bool(p.Coverage) {
				served[c.ISO3] = true
			}
		}
		m.providerCountry[p.Name] = served
	}
	return m
}

// Providers returns provider names sorted alphabetically.
func (m *Marketplace) Providers() []string {
	out := make([]string, len(m.providers))
	for i, p := range m.providers {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

// timeDrift returns the multiplicative price drift of a continent at the
// given date (the Figure 16 dynamics: Asia and Africa rise ~Apr 1).
func timeDrift(ct geo.Continent, date time.Time) float64 {
	after := date.After(time.Date(2024, 3, 28, 0, 0, 0, 0, time.UTC))
	switch ct {
	case geo.Asia:
		if after {
			return 6.5 / 5.5
		}
	case geo.Africa:
		if after {
			return 1.25
		}
	}
	return 1.0
}

// Offers generates the full catalog visible on the given date. The
// catalog is a deterministic function of (seed, date): crawling the same
// day twice yields identical offers, and vantage location never enters.
func (m *Marketplace) Offers(date time.Time) []Plan {
	day := date.UTC().Format("2006-01-02")
	n := 0
	for _, p := range m.providers {
		n += len(m.providerCountry[p.Name]) * p.PlansPerCountry
	}
	out := make([]Plan, 0, n)
	for _, p := range m.providers {
		src := rng.New(m.seed).Fork("offers/" + p.Name + "/" + day)
		for _, c := range m.countries {
			if !m.providerCountry[p.Name][c.ISO3] {
				continue
			}
			base := continentBase[c.Continent] * m.countryFactor[c.ISO3] * timeDrift(c.Continent, date)
			unit := base * p.PriceFactor * src.Uniform(0.9, 1.1)
			for i := 0; i < p.PlansPerCountry; i++ {
				size := planSizesGB[i%len(planSizesGB)]
				price := unit * pow(size, p.SizeExponent)
				out = append(out, Plan{
					Provider: p.Name,
					Country:  c.ISO3,
					SizeGB:   size,
					Days:     validityFor(size),
					PriceUSD: round2(price),
					BMNOName: m.bMNOFor(p.Name, c.ISO3),
				})
			}
		}
	}
	return out
}

// bMNOFor exposes the issuing operator for Airalo plans, matching the
// paper's Table 2 grouping (used by Figure 19).
func (m *Marketplace) bMNOFor(provider, iso3 string) string {
	if provider != "Airalo" {
		return ""
	}
	switch iso3 {
	case "ARE", "JPN", "PAK", "MYS", "CHN":
		return "Singtel"
	case "GBR", "DEU", "GEO", "ESP":
		return "Play"
	case "QAT", "SAU", "TUR", "EGY":
		return "Telna Mobile"
	case "MDA", "KEN", "FIN", "AZE":
		return "Telecom Italia"
	case "ITA", "USA":
		return "Orange"
	case "FRA", "UZB":
		return "Polkomtel"
	case "KOR":
		return "LG U+"
	case "MDV":
		return "Ooredoo Maldives"
	case "THA":
		return "dtac"
	default:
		return ""
	}
}

func validityFor(sizeGB float64) int {
	switch {
	case sizeGB <= 1:
		return 7
	case sizeGB <= 5:
		return 30
	default:
		return 30
	}
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}

// LocalSIMOffer is a physical-SIM price point collected by volunteers
// (the dashed line of Figure 17).
type LocalSIMOffer struct {
	Country   string
	PlanGB    float64
	PriceUSD  float64
	SIMFeeUSD float64 // cost of the physical card itself, if any
	Note      string
}

// LocalSIMOffers are the volunteer-collected local offers; values follow
// the examples the paper cites (Spain 40 GB for $22.59; UAE SIM fee
// $15.72) with plausible entries for the remaining device-campaign
// countries.
var LocalSIMOffers = []LocalSIMOffer{
	{Country: "ESP", PlanGB: 40, PriceUSD: 22.59, SIMFeeUSD: 0, Note: "prepaid bundle"},
	{Country: "ARE", PlanGB: 6, PriceUSD: 16.30, SIMFeeUSD: 15.72, Note: "SIM fee applies"},
	{Country: "PAK", PlanGB: 25, PriceUSD: 4.10, SIMFeeUSD: 0.70, Note: "local prepaid"},
	{Country: "DEU", PlanGB: 10, PriceUSD: 11.00, SIMFeeUSD: 0, Note: "discount brand"},
	{Country: "GEO", PlanGB: 15, PriceUSD: 6.50, SIMFeeUSD: 1.00, Note: "local prepaid"},
	{Country: "THA", PlanGB: 15, PriceUSD: 8.40, SIMFeeUSD: 1.50, Note: "tourist SIM"},
	{Country: "KOR", PlanGB: 10, PriceUSD: 27.00, SIMFeeUSD: 0, Note: "tourist SIM"},
	{Country: "QAT", PlanGB: 12, PriceUSD: 13.50, SIMFeeUSD: 2.70, Note: "local prepaid"},
	{Country: "SAU", PlanGB: 20, PriceUSD: 18.70, SIMFeeUSD: 2.70, Note: "local prepaid"},
	{Country: "GBR", PlanGB: 20, PriceUSD: 12.60, SIMFeeUSD: 0, Note: "prepaid bundle"},
}

// PerGB returns the effective cost per GB including the SIM fee.
func (o LocalSIMOffer) PerGB() float64 {
	if o.PlanGB == 0 {
		return 0
	}
	return (o.PriceUSD + o.SIMFeeUSD) / o.PlanGB
}

// TotalUSD returns the up-front cost of acquiring the offer.
func (o LocalSIMOffer) TotalUSD() float64 { return o.PriceUSD + o.SIMFeeUSD }

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }
