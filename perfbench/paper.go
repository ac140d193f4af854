package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"roamsim/internal/esimdb"
	"roamsim/internal/experiments"
)

// runPaper is the researcher's path: experiments.NewRunner, then
// Runner.WriteAll for every artifact. Every output is compared with a
// serial (Workers: 1) WriteAll of the same configuration.
//
// The configuration is the paper's own (experiments.DefaultConfig,
// seed 42), whatever --seed says: the marketplace catalog, and with it
// the crawl behind Figures 16-19, changes size with the seed, and the
// crawl's cost grows with the square of the page count, so across
// seeds the pipeline's run time spreads by about a third.
func runPaper(o options, rep *runReport) error {
	cfg := o.paper
	cfg.Workers = 0
	rep.manifest["params"] = map[string]any{"config": cfg}

	// Untraced pass.
	var setups, runs []time.Duration
	var files []float64
	var outDirs []string
	err := loop(o.budget, func() error {
		t0 := time.Now()
		r, err := experiments.NewRunner(cfg)
		t1 := time.Now()
		if err != nil {
			return err
		}
		dir, err := scratch(o, "paper-")
		if err != nil {
			return err
		}
		t2 := time.Now()
		written, err := r.WriteAll(dir)
		t3 := time.Now()
		if err != nil {
			return err
		}
		setups = append(setups, t1.Sub(t0))
		runs = append(runs, t3.Sub(t2))
		files = append(files, float64(len(written))/t3.Sub(t2).Seconds())
		outDirs = append(outDirs, dir)
		return nil
	})
	if err != nil {
		return err
	}
	setups, err = topUpSetups(setups, func() (func(), error) {
		_, err := experiments.NewRunner(cfg)
		return func() {}, err
	})
	if err != nil {
		return err
	}
	rep.setE2E("setup_s", median(seconds(setups)))
	rep.setE2E("run_s", median(seconds(runs)))
	rep.setE2E("results_per_s", median(files))
	rep.setE2E("peak_rss_mb", peakRSSMB())
	rep.count(int64(len(runs)), 0)
	rep.manifest["iterations"] = len(runs)
	rep.manifest["run_s_samples"] = seconds(runs)
	rep.manifest["setup_s_samples"] = seconds(setups)

	if o.trace {
		var its []map[string]float64
		var traced []time.Duration
		err := loop(o.budget, func() error {
			dir, err := scratch(o, "paper-traced-")
			if err != nil {
				return err
			}
			layer, d, err := tracePaper(cfg, dir)
			if err != nil {
				return err
			}
			its = append(its, layer)
			traced = append(traced, d)
			outDirs = append(outDirs, dir)
			return nil
		})
		if err != nil {
			return err
		}
		rep.setLayers(medianOf(its))
		rep.setLayers(map[string]float64{
			"bench.trace_overhead_s": median(seconds(traced)) - median(seconds(runs)),
		})
		rep.count(int64(len(traced)), 0)
		rep.manifest["traced_iterations"] = len(traced)
	}

	// Reference: a serial run of the same configuration, computed once.
	ref := cfg
	ref.Workers = 1
	r, err := experiments.NewRunner(ref)
	if err != nil {
		return err
	}
	refDir, err := scratch(o, "paper-ref-")
	if err != nil {
		return err
	}
	if _, err := r.WriteAll(refDir); err != nil {
		return err
	}
	for _, dir := range outDirs {
		if err := compareDirs(&rep.tally, dir, refDir); err != nil {
			return err
		}
	}
	return nil
}

// tracePaper is one traced iteration: the campaigns and then every
// artifact, each timed on its own, writing the files WriteAll writes
// into dir; then a timed crawl of Figure 16's catalog. It returns the
// per-layer values and the run time (campaigns plus artifacts).
func tracePaper(cfg experiments.Config, dir string) (map[string]float64, time.Duration, error) {
	layer := map[string]float64{}
	t0 := time.Now()
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return nil, 0, err
	}
	layer["airalo.build_s"] = time.Since(t0).Seconds()

	h0, m0, d0 := r.W.Net.RouteCacheStats()
	p0 := sampleProc()
	start := time.Now()
	for _, c := range paperCampaigns {
		t := time.Now()
		if err := c.run(r); err != nil {
			return nil, 0, fmt.Errorf("campaign %s: %w", c.name, err)
		}
		layer["experiments.campaign."+c.name+"_s"] = time.Since(t).Seconds()
	}
	for _, j := range paperJobs {
		t := time.Now()
		files, err := j.run(r)
		if err == nil {
			err = writeFiles(dir, files)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("artifact %s: %w", j.name, err)
		}
		layer["experiments.artifact."+j.name+"_s"] = time.Since(t).Seconds()
	}
	runDur := time.Since(start)
	for k, v := range procLayer(p0, sampleProc()) {
		layer[k] = v
	}
	h1, m1, d1 := r.W.Net.RouteCacheStats()
	layer["netsim.route_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	layer["netsim.dijkstra_runs"] = float64(d1 - d0)

	crawl, err := crawlFigure16(r.Cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	for k, v := range crawl {
		layer[k] = v
	}
	return layer, runDur, nil
}

func writeFiles(dir string, files []artifactFile) error {
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// figure16Crawls are the crawls Figure 16 makes: four dates from the
// Madrid vantage, then the last date again from New Jersey.
var figure16Crawls = []struct {
	vantage string
	date    time.Time
}{
	{"Madrid", time.Date(2024, 2, 14, 0, 0, 0, 0, time.UTC)},
	{"Madrid", time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)},
	{"Madrid", time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)},
	{"Madrid", time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)},
	{"New Jersey", time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)},
}

// marketplaceProviders is the provider count of the marketplace the
// paper pipeline crawls (experiments' Figures 16-19).
const marketplaceProviders = 54

// crawlFigure16 crawls Figure 16's catalogs with esimdb.Crawler
// against a timing-wrapped Marketplace.Handler and reports the
// per-page server time.
func crawlFigure16(seed int64) (map[string]float64, error) {
	h := esimdb.New(seed, marketplaceProviders).Handler()
	var mu sync.Mutex
	var pages []float64
	timed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		d := millis(time.Since(t))
		mu.Lock()
		pages = append(pages, d)
		mu.Unlock()
	})
	srv, err := serve(timed)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for _, c := range figure16Crawls {
		cr := &esimdb.Crawler{BaseURL: srv.url, Vantage: c.vantage, Client: client}
		if _, err := cr.Crawl(c.date); err != nil {
			return nil, err
		}
	}
	mu.Lock()
	defer mu.Unlock()
	busy := 0.0
	for _, p := range pages {
		busy += p
	}
	return map[string]float64{
		"esimdb.pages":       float64(len(pages)),
		"esimdb.page_ms_p50": quantile(pages, 0.5),
		"esimdb.page_ms_p99": quantile(pages, 0.99),
		"esimdb.busy_s":      busy / 1000,
	}, nil
}

// compareDirs checks that got holds exactly want's files, byte for
// byte; each file is one check.
func compareDirs(t *tally, got, want string) error {
	wantNames, err := dirFiles(want)
	if err != nil {
		return err
	}
	gotNames, err := dirFiles(got)
	if err != nil {
		return err
	}
	for _, name := range wantNames {
		a, errA := os.ReadFile(filepath.Join(got, name))
		b, errB := os.ReadFile(filepath.Join(want, name))
		if errB != nil {
			return errB
		}
		switch {
		case errA != nil:
			t.check(false, "artifact %s missing from %s", name, filepath.Base(got))
		default:
			t.check(bytes.Equal(a, b), "artifact %s in %s differs from the serial run", name, filepath.Base(got))
		}
	}
	wantSet := map[string]bool{}
	for _, n := range wantNames {
		wantSet[n] = true
	}
	for _, name := range gotNames {
		if !wantSet[name] {
			t.check(false, "artifact %s in %s is not in the serial run", name, filepath.Base(got))
		}
	}
	return nil
}

func dirFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
