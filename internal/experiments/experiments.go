// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated world: the infrastructure inventory
// (Table 2, Figures 3-5), the path analysis (Figures 6-10), the
// performance comparison (Figures 11-14, 20), user experience
// (Figure 15), and the marketplace economics (Figures 16-19), plus the
// ablations DESIGN.md calls out.
//
// A Runner owns the world and memoizes the raw measurement datasets so
// figures that share inputs (e.g. Figures 7/8/9/10 all come from the
// traceroute campaign) don't re-measure.
//
// # Parallel campaigns
//
// Each campaign enumerates its work as (country, SIM kind,
// target/provider, rep) units, pre-forks one labeled rng.Source per unit
// in canonical order, and executes the units on a bounded worker pool
// (Config.Workers, default GOMAXPROCS); see parallel.go. Observations
// are merged back in canonical unit order, so the memoized datasets are
// byte-identical no matter the worker count or GOMAXPROCS.
//
// WriteAll runs the artifacts themselves on the same pool, one job per
// artifact, and lists their files in canonical artifact order. Artifacts
// share the runner's world read-only; one that needs to change it, like
// Confounders' load model, builds a world of its own.
package experiments

import (
	"fmt"
	"sync"

	"roamsim/internal/airalo"
	"roamsim/internal/core"
	"roamsim/internal/fleet"
	"roamsim/internal/ipx"
	"roamsim/internal/measure"
	"roamsim/internal/mno"
	"roamsim/internal/rng"
	"roamsim/internal/video"
)

// Config sizes the measurement campaigns.
type Config struct {
	Seed                 int64
	TracesPerCountry     int // per (country, config, target)
	SpeedtestsPerCountry int // per (country, config)
	CDNFetchesPerCountry int // per (country, config, provider)
	DNSPerCountry        int // per (country, config)
	VideosPerCountry     int // per (country, config)
	WebMeasurements      int // per web-campaign country

	// Workers bounds the worker pool that runs each campaign's units
	// and WriteAll's artifacts. 0 (the default) means GOMAXPROCS at call
	// time; 1 forces serial execution. Results are identical for every
	// value — see the package doc.
	Workers int
}

// DefaultConfig returns campaign sizes comparable to Table 4's counts.
func DefaultConfig() Config {
	return Config{
		Seed:                 42,
		TracesPerCountry:     40,
		SpeedtestsPerCountry: 60,
		CDNFetchesPerCountry: 25,
		DNSPerCountry:        40,
		VideosPerCountry:     12,
		WebMeasurements:      9,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.TracesPerCountry == 0 {
		c.TracesPerCountry = d.TracesPerCountry
	}
	if c.SpeedtestsPerCountry == 0 {
		c.SpeedtestsPerCountry = d.SpeedtestsPerCountry
	}
	if c.CDNFetchesPerCountry == 0 {
		c.CDNFetchesPerCountry = d.CDNFetchesPerCountry
	}
	if c.DNSPerCountry == 0 {
		c.DNSPerCountry = d.DNSPerCountry
	}
	if c.VideosPerCountry == 0 {
		c.VideosPerCountry = d.VideosPerCountry
	}
	if c.WebMeasurements == 0 {
		c.WebMeasurements = d.WebMeasurements
	}
	return c
}

// Runner executes and memoizes the measurement campaigns. Methods are
// safe for concurrent use: memoization is guarded by a mutex, and the
// campaigns themselves parallelize internally.
type Runner struct {
	W   *airalo.World
	Cfg Config

	mu     sync.Mutex
	traces []TraceObs // guarded by mu
	speeds []SpeedObs // guarded by mu
	cdns   []CDNObs   // guarded by mu
	dnses  []DNSObs   // guarded by mu
	videos []VideoObs // guarded by mu
}

// NewRunner builds a world and runner from the config.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	w, err := airalo.Build(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Runner{W: w, Cfg: cfg}, nil
}

// NewRunnerWith reuses an existing world.
func NewRunnerWith(w *airalo.World, cfg Config) *Runner {
	return &Runner{W: w, Cfg: cfg.withDefaults()}
}

// TraceObs is one demarcated traceroute observation.
type TraceObs struct {
	ISO      string
	Kind     mno.SIMKind
	Arch     ipx.Architecture
	Target   string
	Provider string // PGW provider org (from demarcation)
	PA       core.PathAnalysis
	RAT      mno.RAT
}

// SpeedObs is one speedtest observation.
type SpeedObs struct {
	ISO        string
	Kind       mno.SIMKind
	Arch       ipx.Architecture
	RAT        mno.RAT
	CQI        int
	Down, Up   float64
	LatencyMs  float64
	ServerCity string
}

// CDNObs is one CDN fetch observation.
type CDNObs struct {
	ISO      string
	Kind     mno.SIMKind
	Arch     ipx.Architecture
	Provider string
	TotalMs  float64
	Cache    string
}

// DNSObs is one DNS lookup observation.
type DNSObs struct {
	ISO             string
	Kind            mno.SIMKind
	Arch            ipx.Architecture
	DurationMs      float64
	DoH             bool
	ResolverASN     uint32
	ResolverCountry string
	PGWCountry      string
}

// VideoObs is one video session observation.
type VideoObs struct {
	ISO      string
	Kind     mno.SIMKind
	Arch     ipx.Architecture
	Dominant string
	Shares   map[string]float64
}

// kindsFor returns the configurations measured in a country.
func kindsFor(d *airalo.Deployment) []mno.SIMKind {
	if d.SIMProfile != nil {
		return []mno.SIMKind{mno.PhysicalSIM, mno.ESIM}
	}
	return []mno.SIMKind{mno.ESIM}
}

func attach(d *airalo.Deployment, kind mno.SIMKind, src *rng.Source) (*airalo.Session, error) {
	if kind == mno.PhysicalSIM {
		return d.AttachSIM(src)
	}
	return d.AttachESIM(src)
}

// Traces runs (or returns the memoized) traceroute campaign: every
// device-campaign country, both configurations, Google and Facebook.
func (r *Runner) Traces() ([]TraceObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces != nil {
		return r.traces, nil
	}
	var units []unit[TraceObs]
	for _, iso := range fleet.DeviceCountries {
		d := r.W.Deployments[iso]
		for _, kind := range kindsFor(d) {
			for _, target := range []string{"Google", "Facebook"} {
				for i := 0; i < r.Cfg.TracesPerCountry; i++ {
					units = append(units, unit[TraceObs]{
						label: fmt.Sprintf("%s/%s/%s/%d", iso, kind, target, i),
						run: func(src *rng.Source) ([]TraceObs, error) {
							s, err := attach(d, kind, src)
							if err != nil {
								return nil, err
							}
							tr, err := measure.Traceroute(s, target, src)
							if err != nil {
								return nil, err
							}
							pa, err := core.Demarcate(tr.Raw, r.W.Reg)
							if err != nil {
								// Fully silent paths happen (e.g. a mute CG-NAT plus
								// unlucky ICMP); skip like the paper's parser would.
								return nil, nil
							}
							return []TraceObs{{
								ISO: iso, Kind: kind, Arch: s.Arch, Target: target,
								Provider: pa.PGW.AS.Org, PA: pa,
								RAT: s.Radio.Sample(src).RAT,
							}}, nil
						},
					})
				}
			}
		}
	}
	out, err := runUnits(rng.New(r.Cfg.Seed).Fork("traces"), r.Cfg.workers(), units)
	if err != nil {
		return nil, err
	}
	r.traces = out
	return out, nil
}

// Speedtests runs (or returns) the Ookla campaign.
func (r *Runner) Speedtests() ([]SpeedObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.speeds != nil {
		return r.speeds, nil
	}
	var units []unit[SpeedObs]
	for _, iso := range fleet.DeviceCountries {
		d := r.W.Deployments[iso]
		for _, kind := range kindsFor(d) {
			for i := 0; i < r.Cfg.SpeedtestsPerCountry; i++ {
				units = append(units, unit[SpeedObs]{
					label: fmt.Sprintf("%s/%s/%d", iso, kind, i),
					run: func(src *rng.Source) ([]SpeedObs, error) {
						s, err := attach(d, kind, src)
						if err != nil {
							return nil, err
						}
						res, err := measure.Speedtest(s, src)
						if err != nil {
							return nil, err
						}
						return []SpeedObs{{
							ISO: iso, Kind: kind, Arch: s.Arch,
							RAT: res.Radio.RAT, CQI: res.Radio.CQI,
							Down: res.DownMbps, Up: res.UpMbps,
							LatencyMs: res.LatencyMs, ServerCity: res.ServerCity,
						}}, nil
					},
				})
			}
		}
	}
	out, err := runUnits(rng.New(r.Cfg.Seed).Fork("speedtests"), r.Cfg.workers(), units)
	if err != nil {
		return nil, err
	}
	r.speeds = out
	return out, nil
}

// CDNFetches runs (or returns) the five-provider CDN campaign.
func (r *Runner) CDNFetches() ([]CDNObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cdns != nil {
		return r.cdns, nil
	}
	providers := []string{"Cloudflare", "Google CDN", "jQuery CDN", "jsDelivr", "Microsoft Ajax"}
	var units []unit[CDNObs]
	for _, iso := range fleet.DeviceCountries {
		d := r.W.Deployments[iso]
		for _, kind := range kindsFor(d) {
			for _, prov := range providers {
				for i := 0; i < r.Cfg.CDNFetchesPerCountry; i++ {
					units = append(units, unit[CDNObs]{
						label: fmt.Sprintf("%s/%s/%s/%d", iso, kind, prov, i),
						run: func(src *rng.Source) ([]CDNObs, error) {
							s, err := attach(d, kind, src)
							if err != nil {
								return nil, err
							}
							res, err := measure.CDNFetch(s, prov, src)
							if err != nil {
								return nil, err
							}
							return []CDNObs{{
								ISO: iso, Kind: kind, Arch: s.Arch,
								Provider: prov, TotalMs: res.TotalMs, Cache: string(res.Cache),
							}}, nil
						},
					})
				}
			}
		}
	}
	out, err := runUnits(rng.New(r.Cfg.Seed).Fork("cdn"), r.Cfg.workers(), units)
	if err != nil {
		return nil, err
	}
	r.cdns = out
	return out, nil
}

// DNSLookups runs (or returns) the resolver campaign.
func (r *Runner) DNSLookups() ([]DNSObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dnses != nil {
		return r.dnses, nil
	}
	var units []unit[DNSObs]
	for _, iso := range fleet.DeviceCountries {
		d := r.W.Deployments[iso]
		for _, kind := range kindsFor(d) {
			for i := 0; i < r.Cfg.DNSPerCountry; i++ {
				units = append(units, unit[DNSObs]{
					label: fmt.Sprintf("%s/%s/%d", iso, kind, i),
					run: func(src *rng.Source) ([]DNSObs, error) {
						s, err := attach(d, kind, src)
						if err != nil {
							return nil, err
						}
						res, err := measure.DNSLookup(s, src)
						if err != nil {
							return nil, err
						}
						return []DNSObs{{
							ISO: iso, Kind: kind, Arch: s.Arch,
							DurationMs: res.DurationMs, DoH: res.DoH,
							ResolverASN:     uint32(res.Resolver.ASN),
							ResolverCountry: res.Resolver.Country,
							PGWCountry:      s.Site.Country,
						}}, nil
					},
				})
			}
		}
	}
	out, err := runUnits(rng.New(r.Cfg.Seed).Fork("dns"), r.Cfg.workers(), units)
	if err != nil {
		return nil, err
	}
	r.dnses = out
	return out, nil
}

// Videos runs (or returns) the YouTube campaign. Spain and the UK are
// excluded as in the paper (insufficient samples there).
func (r *Runner) Videos() ([]VideoObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.videos != nil {
		return r.videos, nil
	}
	var units []unit[VideoObs]
	for _, iso := range fleet.DeviceCountries {
		if iso == "ESP" || iso == "GBR" {
			continue
		}
		d := r.W.Deployments[iso]
		for _, kind := range kindsFor(d) {
			for i := 0; i < r.Cfg.VideosPerCountry; i++ {
				units = append(units, unit[VideoObs]{
					label: fmt.Sprintf("%s/%s/%d", iso, kind, i),
					run: func(src *rng.Source) ([]VideoObs, error) {
						s, err := attach(d, kind, src)
						if err != nil {
							return nil, err
						}
						st, err := measure.StreamVideo(s, video.Config{DurationSec: 120}, src)
						if err != nil {
							return nil, err
						}
						shares := map[string]float64{}
						for name := range st.SecondsAt {
							shares[name] = st.Share(name)
						}
						return []VideoObs{{
							ISO: iso, Kind: kind, Arch: s.Arch,
							Dominant: st.DominantResolution, Shares: shares,
						}}, nil
					},
				})
			}
		}
	}
	out, err := runUnits(rng.New(r.Cfg.Seed).Fork("video"), r.Cfg.workers(), units)
	if err != nil {
		return nil, err
	}
	r.videos = out
	return out, nil
}

// filterTraces selects trace observations.
func filterTraces(obs []TraceObs, pred func(TraceObs) bool) []TraceObs {
	var out []TraceObs
	for _, o := range obs {
		if pred(o) {
			out = append(out, o)
		}
	}
	return out
}

// usable applies the CQI filter of Section 5.1.
func usable(obs []SpeedObs) []SpeedObs {
	var out []SpeedObs
	for _, o := range obs {
		if o.CQI >= mno.MinUsableCQI {
			out = append(out, o)
		}
	}
	return out
}

func configLabel(kind mno.SIMKind, arch ipx.Architecture) string {
	if kind == mno.PhysicalSIM {
		return "SIM"
	}
	return fmt.Sprintf("eSIM/%s", arch)
}
