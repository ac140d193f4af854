package roamsim

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, each regenerating the artifact end-to-end and
// reporting the rows/series the paper reports (run with -v via
// `go test -bench=. -benchmem`). Shapes — who wins, by what factor,
// where crossovers fall — are asserted by the test suite; the benches
// measure regeneration cost and print the key headline numbers once.
//
// EXPERIMENTS.md records paper-vs-measured values for every artifact.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"roamsim/internal/netsim"
)

var (
	benchOnce   sync.Once
	benchRunner *ExperimentRunner
	benchErr    error
)

// benchSetup builds one world + runner shared by every benchmark; the
// first dataset-dependent benchmark pays the campaign cost, the rest
// reuse the memoized observations (like the real analysis pipeline).
func benchSetup(b *testing.B) *ExperimentRunner {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultExperimentConfig()
		cfg.TracesPerCountry = 20
		cfg.SpeedtestsPerCountry = 30
		cfg.CDNFetchesPerCountry = 10
		cfg.DNSPerCountry = 25
		cfg.VideosPerCountry = 6
		cfg.WebMeasurements = 6
		benchRunner, benchErr = NewExperimentRunner(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRunner
}

func BenchmarkTable2(b *testing.B) {
	r := benchSetup(b)
	rows := 0
	for i := 0; i < b.N; i++ {
		tab, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tab.Rows)
	}
	b.Logf("Table2: %d b-MNO rows re-derived (paper: 6)", rows)
}

func BenchmarkTable3(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	r := benchSetup(b)
	var prec, rec float64
	for i := 0; i < b.N; i++ {
		res, err := r.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		prec, rec = res.Precision, res.Recall
	}
	b.Logf("Figure5: IMSI mining precision=%.2f recall=%.2f", prec, rec)
}

func BenchmarkFigure6(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	r := benchSetup(b)
	var pak, uae float64
	for i := 0; i < b.N; i++ {
		res, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		pak, uae = res.Medians["PAK"], res.Medians["ARE"]
	}
	b.Logf("Figure8: PGW RTT medians PAK=%.0fms UAE=%.0fms (UAE wins despite distance)", pak, uae)
}

func BenchmarkFigure9(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	r := benchSetup(b)
	var hr, ihbo, esim150, sim150 float64
	for i := 0; i < b.N; i++ {
		res, err := r.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		hr, ihbo = res.HRInflation, res.IHBOInflation
		esim150, sim150 = res.ESIMFracAbove150, res.SIMFracAbove150
	}
	b.Logf("Figure11: HR inflation=%.0f%% IHBO=%.0f%% (paper: 621%%/64%%); >150ms eSIM=%.1f%% SIM=%.1f%% (paper: 14.5%%/3%%)",
		hr*100, ihbo*100, esim150*100, sim150*100)
}

func BenchmarkFigure12(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	r := benchSetup(b)
	var slow, fast float64
	for i := 0; i < b.N; i++ {
		res, err := r.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		slow, fast = res.ESIMSlowShare, res.ESIMFastShare
	}
	b.Logf("Figure13: roaming eSIM slow(<=15Mbps)=%.1f%% fast(>=30Mbps)=%.1f%% (paper: 78.8%%/4.5%%)", slow*100, fast*100)
}

func BenchmarkFigure14a(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure14a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14b(b *testing.B) {
	r := benchSetup(b)
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := r.Figure14b()
		if err != nil {
			b.Fatal(err)
		}
		share = res.GoogleResolverShareSameCountry
	}
	b.Logf("Figure14b: IHBO lookups answered in PGW country=%.0f%% (paper: 74%%)", share*100)
}

func BenchmarkFigure15(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure15(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure16(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure16(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure17(b *testing.B) {
	r := benchSetup(b)
	var airalo, mobi float64
	for i := 0; i < b.N; i++ {
		res, err := r.Figure17()
		if err != nil {
			b.Fatal(err)
		}
		airalo, mobi = res.Medians["Airalo"], res.Medians["MobiMatter"]
	}
	b.Logf("Figure17: median $/GB Airalo=%.2f MobiMatter=%.2f (paper: 7.9 / ~60%% cheaper)", airalo, mobi)
}

func BenchmarkFigure18(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure18(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure19(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure19(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure20(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure20(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidation(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Validation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPGWSelection(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationPGWSelection(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPolicyCaps(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationPolicyCaps(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPeering(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationPeering(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLBO(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationLBO(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFutureVoIP(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.FutureVoIP(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscussionJurisdiction(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.DiscussionJurisdiction(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldBuild measures cold-start cost of the full ecosystem.
func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewWorld(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttachESIM measures the session-establishment fast path.
func BenchmarkAttachESIM(b *testing.B) {
	w, err := NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	d := w.Deployment("DEU")
	r := w.Rand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.AttachESIM(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracerouteOp measures one end-to-end traceroute evaluation.
func BenchmarkTracerouteOp(b *testing.B) {
	w, err := NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := w.Deployment("PAK").AttachESIM(w.Rand())
	if err != nil {
		b.Fatal(err)
	}
	r := w.Rand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Traceroute(s, "Google", r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignalingBreakdown(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.SignalingBreakdown(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConfounders(b *testing.B) {
	r := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Confounders(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Parallel campaign engine ----

// campaignBenchConfig sizes a full five-campaign regeneration small
// enough to iterate but large enough that the worker pool matters.
func campaignBenchConfig(workers int) ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.TracesPerCountry = 8
	cfg.SpeedtestsPerCountry = 12
	cfg.CDNFetchesPerCountry = 4
	cfg.DNSPerCountry = 8
	cfg.VideosPerCountry = 3
	cfg.WebMeasurements = 3
	cfg.Workers = workers
	return cfg
}

func runCampaigns(r *ExperimentRunner) error {
	if _, err := r.Traces(); err != nil {
		return err
	}
	if _, err := r.Speedtests(); err != nil {
		return err
	}
	if _, err := r.CDNFetches(); err != nil {
		return err
	}
	if _, err := r.DNSLookups(); err != nil {
		return err
	}
	_, err := r.Videos()
	return err
}

var (
	campaignWorldOnce sync.Once
	campaignWorld     *World
	campaignWorldErr  error
)

func campaignBenchWorld(b *testing.B) *World {
	b.Helper()
	campaignWorldOnce.Do(func() {
		campaignWorld, campaignWorldErr = NewWorld(42)
	})
	if campaignWorldErr != nil {
		b.Fatal(campaignWorldErr)
	}
	return campaignWorld
}

func benchCampaign(b *testing.B, workers int) {
	w := campaignBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh runner per iteration: memoization would otherwise turn
		// every iteration after the first into a map read.
		r := NewExperimentRunnerWith(w, campaignBenchConfig(workers))
		if err := runCampaigns(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

var campaignSpeedupOnce sync.Once

func BenchmarkCampaignParallel(b *testing.B) {
	w := campaignBenchWorld(b)
	// One-shot headline: time a serial pass against a full-width pass on
	// the same warm world so the comparison isolates the worker pool.
	campaignSpeedupOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		t0 := time.Now()
		if err := runCampaigns(NewExperimentRunnerWith(w, campaignBenchConfig(1))); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)
		t0 = time.Now()
		if err := runCampaigns(NewExperimentRunnerWith(w, campaignBenchConfig(workers))); err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(t0)
		b.Logf("campaign speedup headline: serial %v / parallel %v = %.2fx (workers=%d, NumCPU=%d)",
			serial, parallel, float64(serial)/float64(parallel), workers, runtime.NumCPU())
	})
	benchCampaign(b, runtime.GOMAXPROCS(0))
}

// ---- Whole paper pipeline ----

// BenchmarkWriteAll regenerates every artifact the way roam-experiments
// -out does: a fresh runner at the paper's campaign sizes on a warm
// world, its campaigns, then WriteAll, serially and on the full pool.
func BenchmarkWriteAll(b *testing.B) {
	w := campaignBenchWorld(b)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultExperimentConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				files, err := NewExperimentRunnerWith(w, cfg).WriteAll(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(files)), "files/op")
			}
		})
	}
}

// ---- Routing fast path ----

// benchRouteNetwork builds a frozen 40x40 grid (1600 nodes, ~3100
// links) with varied integer delays — big enough that a cache miss runs
// a real Dijkstra, regular enough to be cheap to construct.
func benchRouteNetwork() (*netsim.Network, int) {
	const k = 40
	net := netsim.New()
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			net.AddNode(netsim.Node{Name: fmt.Sprintf("g%d-%d", x, y)})
		}
	}
	id := func(x, y int) netsim.NodeID { return netsim.NodeID(y*k + x) }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			d := float64(1 + (x*31+y*17)%7)
			if x+1 < k {
				net.Connect(id(x, y), id(x+1, y), netsim.Link{DelayMs: d})
			}
			if y+1 < k {
				net.Connect(id(x, y), id(x, y+1), netsim.Link{DelayMs: d + 0.5})
			}
		}
	}
	net.Freeze()
	return net, k * k
}

// BenchmarkRouteHit measures the cached fast path: a shard read-lock
// plus one map probe.
func BenchmarkRouteHit(b *testing.B) {
	net, v := benchRouteNetwork()
	if _, err := net.Route(0, netsim.NodeID(v-1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Route(0, netsim.NodeID(v-1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteHitParallel is the contended version of the hit path:
// with the sharded cache this scales with cores instead of serializing
// on one mutex.
func BenchmarkRouteHitParallel(b *testing.B) {
	net, v := benchRouteNetwork()
	// Warm a spread of pairs across shards.
	pairs := make([][2]netsim.NodeID, 64)
	for i := range pairs {
		pairs[i] = [2]netsim.NodeID{netsim.NodeID(i), netsim.NodeID(v - 1 - i)}
		if _, err := net.Route(pairs[i][0], pairs[i][1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := pairs[i&63]
			i++
			if _, err := net.Route(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouteMiss measures the uncached path: heap Dijkstra over the
// grid plus single-flight bookkeeping. The network is rebuilt per
// invocation and every iteration asks for a pair not yet cached.
func BenchmarkRouteMiss(b *testing.B) {
	net, v := benchRouteNetwork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := netsim.NodeID((i / v) % v)
		dst := netsim.NodeID(i % v)
		if src == dst {
			dst = (dst + 1) % netsim.NodeID(v)
		}
		if _, err := net.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
