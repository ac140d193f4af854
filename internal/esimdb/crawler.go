package esimdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roamsim/internal/geo"
	"roamsim/internal/stats"
)

// pageSize is the API pagination size.
const pageSize = 200

// offersResponse is the wire format of the aggregator API.
type offersResponse struct {
	Date    string `json:"date"`
	Page    int    `json:"page"`
	Pages   int    `json:"pages"`
	Total   int    `json:"total"`
	Vantage string `json:"vantage,omitempty"`
	Offers  []Plan `json:"offers"`
}

// maxCrawlPages caps the page count Crawl accepts from page 0. The count
// is outside input and Crawl allocates per-page state from it; the
// paper's full crawl is 75,875 offers, 380 pages.
const maxCrawlPages = 1 << 14

// snapshot is one day's catalog, built at most once and read-only after.
type snapshot struct {
	day    string
	once   sync.Once
	offers []Plan
}

// offersServer serves the aggregator API from a snapshot of the last
// requested day's catalog. Offers is a pure function of (seed, day) and
// vantage never enters it, so every page of a day can be cut from one
// catalog. Holding only the last day bounds memory to one catalog (the
// handler serves arbitrary dates) and suffices for a crawl, which asks
// for every page of one day from each vantage in turn.
type offersServer struct {
	m   *Marketplace
	mux *http.ServeMux

	mu   sync.Mutex
	last *snapshot

	builds atomic.Int64 // catalogs generated, for tests
}

// Handler exposes the marketplace as an HTTP API:
//
//	GET /v1/offers?date=2024-05-01&page=0
//
// The X-Vantage-Location header is echoed back but deliberately does not
// influence pricing — the no-price-discrimination finding. The handler
// serves every page of a day from one catalog snapshot, kept until a
// request for another day arrives and dropped with the handler.
func (m *Marketplace) Handler() http.Handler { return newOffersServer(m) }

func newOffersServer(m *Marketplace) *offersServer {
	s := &offersServer{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/offers", s.serveOffers)
	return s
}

func (s *offersServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// catalog returns the day's offers, generating them on the first request
// for the day; concurrent first requests wait for one build. The slice is
// shared between requests and must not be modified.
func (s *offersServer) catalog(date time.Time) []Plan {
	day := date.UTC().Format("2006-01-02")
	s.mu.Lock()
	if s.last == nil || s.last.day != day {
		s.last = &snapshot{day: day}
	}
	snap := s.last
	s.mu.Unlock()
	snap.once.Do(func() {
		snap.offers = s.m.Offers(date)
		s.builds.Add(1)
	})
	return snap.offers
}

func (s *offersServer) serveOffers(w http.ResponseWriter, r *http.Request) {
	dateStr := r.URL.Query().Get("date")
	date, err := time.Parse("2006-01-02", dateStr)
	if err != nil {
		http.Error(w, "bad or missing date", http.StatusBadRequest)
		return
	}
	page := 0
	if ps := r.URL.Query().Get("page"); ps != "" {
		page, err = strconv.Atoi(ps)
		if err != nil || page < 0 {
			http.Error(w, "bad page", http.StatusBadRequest)
			return
		}
	}
	all := s.catalog(date)
	pages := (len(all) + pageSize - 1) / pageSize
	resp := offersResponse{
		Date:    dateStr,
		Page:    page,
		Pages:   pages,
		Total:   len(all),
		Vantage: r.Header.Get("X-Vantage-Location"),
	}
	// Compare before multiplying: page*pageSize overflows for huge pages.
	if page < pages {
		lo := page * pageSize
		resp.Offers = all[lo:min(lo+pageSize, len(all))]
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// Connection-level failure; nothing more to do.
		return
	}
}

// Crawler retrieves full daily catalogs from an aggregator API, as the
// paper's crawler did daily from three vantage points.
type Crawler struct {
	BaseURL string
	Vantage string // e.g. "Madrid", "Abu Dhabi", "New Jersey"
	Client  *http.Client
}

// Crawl fetches every page of the catalog for one date: page 0 first,
// which sizes the crawl, then the rest on at most GOMAXPROCS concurrent
// workers. Offers are returned in page order. A day's catalog is
// immutable, so a page whose page count or total disagrees with page 0's
// means a mixed crawl and fails it. After the first failure no further
// pages are requested, and the error names the lowest failing page.
func (c *Crawler) Crawl(date time.Time) ([]Plan, error) {
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	day := date.UTC().Format("2006-01-02")
	url := func(page int) string {
		return fmt.Sprintf("%s/v1/offers?date=%s&page=%d", c.BaseURL, day, page)
	}
	first, err := c.fetch(client, url(0))
	if err != nil {
		return nil, fmt.Errorf("esimdb: page 0: %w", err)
	}
	if first.Pages < 0 || first.Pages > maxCrawlPages || first.Total < 0 {
		return nil, fmt.Errorf("esimdb: page 0 claims %d pages of %d offers; a crawl takes at most %d pages",
			first.Pages, first.Total, maxCrawlPages)
	}
	// rest[i] and errs[i] belong to page i+1.
	rest := make([][]Plan, max(first.Pages-1, 0))
	errs := make([]error, len(rest))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(rest)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(rest) {
					return
				}
				resp, err := c.fetch(client, url(i+1))
				if err == nil && (resp.Pages != first.Pages || resp.Total != first.Total) {
					err = fmt.Errorf("catalog changed mid-crawl: %d pages of %d offers, page 0 said %d of %d",
						resp.Pages, resp.Total, first.Pages, first.Total)
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				rest[i] = resp.Offers
			}
		}()
	}
	wg.Wait()
	n := len(first.Offers)
	for i, page := range rest {
		if errs[i] != nil {
			return nil, fmt.Errorf("esimdb: page %d: %w", i+1, errs[i])
		}
		n += len(page)
	}
	out := make([]Plan, 0, n)
	out = append(out, first.Offers...)
	for _, page := range rest {
		out = append(out, page...)
	}
	return out, nil
}

// NewClient returns an HTTP client for crawling one aggregator: its
// transport keeps an idle connection for each of Crawl's workers, where
// http.DefaultClient keeps two, so concurrent pages reuse connections
// instead of dialling. Close it with CloseIdleConnections when done.
func NewClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = runtime.GOMAXPROCS(0)
	return &http.Client{Transport: t}
}

// fetch GETs and decodes one page. A non-200 status is reported as such
// before any decoding.
func (c *Crawler) fetch(client *http.Client, url string) (offersResponse, error) {
	var resp offersResponse
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return resp, err
	}
	if c.Vantage != "" {
		req.Header.Set("X-Vantage-Location", c.Vantage)
	}
	httpResp, err := client.Do(req)
	if err != nil {
		return resp, err
	}
	defer func() {
		// Drain whatever the decoder left (bounded) before closing so
		// the connection returns to the keep-alive pool: a 54-provider
		// daily crawl is ~120 pages per vantage, one request each.
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, 256<<10))
		httpResp.Body.Close()
	}()
	if httpResp.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("HTTP %d", httpResp.StatusCode)
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return resp, fmt.Errorf("decode: %w", err)
	}
	return resp, nil
}

// --- Snapshot analysis helpers (Figures 16-19) ---

// MedianPerGBByCountry returns country ISO3 -> median $/GB for one
// provider ("" = all providers).
func MedianPerGBByCountry(plans []Plan, provider string) map[string]float64 {
	byCountry := map[string][]float64{}
	for _, p := range plans {
		if provider != "" && p.Provider != provider {
			continue
		}
		if p.SizeGB > 0 {
			byCountry[p.Country] = append(byCountry[p.Country], p.PerGB())
		}
	}
	out := make(map[string]float64, len(byCountry))
	for c, v := range byCountry {
		out[c] = stats.Median(v)
	}
	return out
}

// ContinentDistribution returns, per continent, the distribution of
// country-level median $/GB values (the Figure 16 boxplot input).
func ContinentDistribution(plans []Plan, provider string) map[geo.Continent][]float64 {
	medians := MedianPerGBByCountry(plans, provider)
	out := map[geo.Continent][]float64{}
	for iso3, med := range medians {
		c, err := geo.LookupCountry(iso3)
		if err != nil {
			continue
		}
		out[c.Continent] = append(out[c.Continent], med)
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

// ProviderMedianPerGB returns each provider's median across its
// country-level medians plus its country count (the Figure 17 legend).
func ProviderMedianPerGB(plans []Plan) map[string]struct {
	Median    float64
	Countries int
	Offers    int
} {
	type agg struct {
		perCountry map[string][]float64
		offers     int
	}
	byProv := map[string]*agg{}
	for _, p := range plans {
		a, ok := byProv[p.Provider]
		if !ok {
			a = &agg{perCountry: map[string][]float64{}}
			byProv[p.Provider] = a
		}
		a.offers++
		a.perCountry[p.Country] = append(a.perCountry[p.Country], p.PerGB())
	}
	out := map[string]struct {
		Median    float64
		Countries int
		Offers    int
	}{}
	for name, a := range byProv {
		var medians []float64
		for _, v := range a.perCountry {
			medians = append(medians, stats.Median(v))
		}
		// Canonical order before the final median: the values were
		// collected in map-iteration order.
		sort.Float64s(medians)
		out[name] = struct {
			Median    float64
			Countries int
			Offers    int
		}{Median: stats.Median(medians), Countries: len(a.perCountry), Offers: a.offers}
	}
	return out
}

// PriceDeciles returns the decile boundaries of country-level medians
// (the Figure 18 color scale).
func PriceDeciles(plans []Plan, provider string) []float64 {
	medians := MedianPerGBByCountry(plans, provider)
	var v []float64
	for _, m := range medians {
		v = append(v, m)
	}
	sort.Float64s(v)
	out := make([]float64, 0, 9)
	for d := 1; d <= 9; d++ {
		out = append(out, stats.Quantile(v, float64(d)/10))
	}
	return out
}

// BestOffer returns the cheapest per-GB plan for a country with at
// least minGB of data from the given provider ("" = any provider).
func BestOffer(plans []Plan, country string, minGB float64, provider string) (Plan, bool) {
	var best Plan
	found := false
	for _, p := range plans {
		if p.Country != country || p.SizeGB < minGB {
			continue
		}
		if provider != "" && p.Provider != provider {
			continue
		}
		if !found || p.PerGB() < best.PerGB() {
			best, found = p, true
		}
	}
	return best, found
}

// TripStop is one country visit with its expected data need.
type TripStop struct {
	Country string
	GB      float64
}

// TripCost compares the total cost of covering an itinerary with one
// provider's eSIM plans versus buying a local physical SIM at each
// stop (where a local offer is known). It mirrors the paper's Figure 17
// point: local SIMs win per GB, eSIMs often win on total cost.
type TripCost struct {
	ESIMTotalUSD  float64
	LocalTotalUSD float64
	// Covered counts stops the eSIM provider could serve; stops without
	// a suitable plan are skipped in ESIMTotalUSD (and listed).
	Covered   int
	Uncovered []string
	// LocalKnown counts stops with a volunteer-collected local offer.
	LocalKnown int
}

// PlanTrip computes the comparison for an itinerary.
func PlanTrip(plans []Plan, provider string, stops []TripStop) TripCost {
	localByCountry := map[string]LocalSIMOffer{}
	for _, o := range LocalSIMOffers {
		localByCountry[o.Country] = o
	}
	var tc TripCost
	for _, stop := range stops {
		if offer, ok := BestOffer(plans, stop.Country, stop.GB, provider); ok {
			tc.ESIMTotalUSD += offer.PriceUSD
			tc.Covered++
		} else {
			tc.Uncovered = append(tc.Uncovered, stop.Country)
		}
		if local, ok := localByCountry[stop.Country]; ok {
			tc.LocalTotalUSD += local.TotalUSD()
			tc.LocalKnown++
		}
	}
	return tc
}
