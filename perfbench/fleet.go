package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/fleet"
	"roamsim/internal/obs"
	"roamsim/internal/vclock"
)

// fleetShards is the shard count of the fleet-durable control plane,
// and leaseBatch the most tasks an ME leases per round trip.
const (
	fleetShards = 4
	leaseBatch  = 32
)

// fleetPlan is the paper's device-campaign plan (all nine tools, sim
// and esim, one rep) spread over mes MEs in the ten countries.
func fleetPlan(mes int) fleet.Plan {
	p := fleet.DeviceCampaignPlan()
	p.MEsPerCountry = max(1, mes/len(p.Countries))
	p.Reps = 1
	return p
}

// runFleet drives a fleet campaign closed-loop through fleet.Driver
// over v3, against the control plane the workload names:
//
//   - fleet-mem: one amigo.Server with its in-memory sink, mounted as
//     roam-fleet's self-hosted server is, on the wall clock;
//   - fleet-durable: fleet.NewShardedFleet with four WAL-backed shards
//     (walsink defaults, fsync on) behind the gateway;
//   - fleet-virtual: fleet-mem on a vclock.Virtual with Realize on.
//
// Each iteration builds a fresh world and control plane (set-up), then
// runs the campaign, ingests it and renders Table 4 and the RTT
// summary (run). Outputs are checked against fleet.RunInProcess.
func runFleet(o options, rep *runReport) error {
	plan := fleetPlan(o.mes)
	conns := runtime.NumCPU()
	shards := 1
	if o.workload == "fleet-durable" {
		shards = fleetShards
	}
	rep.manifest["params"] = map[string]any{
		"mes": plan.MECount(), "tasks_per_me": plan.TasksPerME(), "proto": "v3",
		"workers": conns, "max_conns": conns, "lease_batch": leaseBatch, "shards": shards,
		"virtual_clock": o.workload == "fleet-virtual", "realize": o.workload == "fleet-virtual",
	}

	var texts []string
	var virtuals []time.Duration
	var setups, runs []time.Duration
	var rates, lease, upload []float64
	err := loop(o.budget, func() error {
		it, err := fleetIteration(o, plan, false)
		if err != nil {
			return err
		}
		it.check(&rep.tally)
		setups = append(setups, it.setup)
		runs = append(runs, it.run)
		rates = append(rates, float64(it.results)/it.drive.Seconds())
		texts = append(texts, it.text)
		virtuals = append(virtuals, it.virtual)
		for _, x := range it.ex {
			if x.failed() {
				continue
			}
			switch x.route {
			case "lease":
				lease = append(lease, millis(x.dur))
			case "results":
				upload = append(upload, millis(x.dur))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	setups, err = topUpSetups(setups, func() (func(), error) {
		g, err := newRig(o, false)
		if err != nil {
			return nil, err
		}
		return g.close, nil
	})
	if err != nil {
		return err
	}
	rep.setE2E("setup_s", median(seconds(setups)))
	rep.setE2E("run_s", median(seconds(runs)))
	rep.setE2E("results_per_s", median(rates))
	rep.setE2E("peak_rss_mb", peakRSSMB())
	rep.setLayers(map[string]float64{
		"lease_p50_ms": quantile(lease, 0.5), "lease_p99_ms": quantile(lease, 0.99), "lease_samples": float64(len(lease)),
		"upload_p50_ms": quantile(upload, 0.5), "upload_p99_ms": quantile(upload, 0.99), "upload_samples": float64(len(upload)),
	})
	rep.manifest["iterations"] = len(runs)
	rep.manifest["run_s_samples"] = seconds(runs)
	rep.manifest["setup_s_samples"] = seconds(setups)

	if o.trace {
		var its []map[string]float64
		var traced []time.Duration
		err := loop(o.budget, func() error {
			it, err := fleetIteration(o, plan, true)
			if err != nil {
				return err
			}
			it.check(&rep.tally)
			its = append(its, it.layer)
			traced = append(traced, it.run)
			texts = append(texts, it.text)
			virtuals = append(virtuals, it.virtual)
			return nil
		})
		if err != nil {
			return err
		}
		rep.setLayers(medianOf(its))
		rep.setLayers(map[string]float64{
			"bench.trace_overhead_s": median(seconds(traced)) - median(seconds(runs)),
		})
		rep.manifest["traced_iterations"] = len(traced)
	}

	// Reference: the serial in-process campaign for the same seed and
	// plan, computed once.
	want, err := fleetReference(o.seed, plan)
	if err != nil {
		return err
	}
	for i, got := range texts {
		rep.check(got == want, "iteration %d: Table 4 / RTT summary differ from fleet.RunInProcess", i)
	}
	rep.manifest["output_sha256"] = fmt.Sprintf("%x", sha256.Sum256([]byte(want)))
	if o.workload == "fleet-virtual" {
		same := true
		for _, v := range virtuals {
			same = same && v == virtuals[0]
		}
		rep.check(same, "virtual makespan differs across iterations: %v", virtuals)
		rep.manifest["virtual_s"] = virtuals[0].Seconds()
	}
	return nil
}

// fleetIter is one fleet iteration's measurements and outputs.
type fleetIter struct {
	setup, build       time.Duration // set-up, and the world build within it
	drive, ingest, run time.Duration // Driver.Run, Ingest, and both plus rendering
	results            int
	text               string        // Table 4 + RTT summary
	virtual            time.Duration // campaign makespan on the virtual clock
	ex                 []exchange
	camp               *fleet.Campaign
	sched              map[string][]int
	layer              map[string]float64 // traced iterations only
}

// check runs the iteration's output checks outside its timed window:
// the run itself, every HTTP exchange, and every scheduled (ME, task)
// landing exactly once. It then drops the campaign.
func (it *fleetIter) check(t *tally) {
	t.count(1, 0)
	bad := 0
	for _, x := range it.ex {
		if x.failed() {
			bad++
		}
	}
	t.check(bad == 0, "%d of %d HTTP requests failed", bad, len(it.ex))
	t.count(int64(len(it.ex)), int64(bad))
	checkComplete(t, it.camp, it.sched)
	it.camp, it.sched = nil, nil
}

// checkComplete checks that every scheduled (ME, task) appears exactly
// once in the campaign's results, with the scheduled kind and config,
// and that no result is unscheduled. sched holds the task IDs the
// server assigned to each ME's schedule, in schedule order.
func checkComplete(t *tally, camp *fleet.Campaign, sched map[string][]int) {
	type key struct {
		me string
		id int
	}
	want := map[key]amigo.Task{}
	for _, sc := range camp.Schedules {
		ids := sched[sc.Name]
		if len(ids) != len(sc.Tasks) {
			t.check(false, "%s: %d task IDs assigned for %d scheduled tasks", sc.Name, len(ids), len(sc.Tasks))
			continue
		}
		for i, task := range sc.Tasks {
			want[key{sc.Name, ids[i]}] = task
		}
	}
	got := map[key][]amigo.Result{}
	for _, r := range camp.Results {
		k := key{r.ME, r.TaskID}
		got[k] = append(got[k], r)
	}
	for k, task := range want {
		rs := got[k]
		ok := len(rs) == 1 && rs[0].Kind == task.Kind && rs[0].Config == task.Config
		t.check(ok, "%s task %d (%s %s/%s): %d results, want exactly one of that kind and config",
			k.me, k.id, task.Kind, task.Target, task.Config, len(rs))
	}
	for k, rs := range got {
		if _, ok := want[k]; !ok {
			t.check(false, "%s task %d: %d results for a task never scheduled", k.me, k.id, len(rs))
		}
	}
}

// rig is one iteration's set-up: the world, the served control plane,
// the recording client and the driver.
type rig struct {
	w      *airalo.World
	build  time.Duration // the world build
	srv    *server
	sf     *fleet.ShardedFleet
	walDir string
	rec    *recorder
	d      *fleet.Driver
	vc     *vclock.Virtual // fleet-virtual only
	reg    *obs.Registry   // traced only
	outer  *serverClock    // times the served handler (traced only)
	inner  *serverClock    // times each shard backend (traced fleet-durable only)
}

// newRig builds the world and the control plane the workload names,
// serves it on loopback, and points a driver at it through a
// recording client capped at nproc connections.
func newRig(o options, traced bool) (g *rig, err error) {
	g = &rig{}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	t0 := time.Now()
	if g.w, err = airalo.Build(o.seed); err != nil {
		return nil, err
	}
	g.build = time.Since(t0)
	if traced {
		g.reg = obs.NewRegistry()
		g.outer = newServerClock(true)
	}
	var h http.Handler
	if o.workload == "fleet-durable" {
		if g.walDir, err = scratch(o, "wal-"); err != nil {
			return nil, err
		}
		g.sf, err = fleet.NewShardedFleet(fleet.ShardedConfig{Shards: fleetShards, WALDir: g.walDir, Obs: g.reg})
		if err != nil {
			return nil, err
		}
		if traced {
			g.inner = newServerClock(false)
			gw := g.sf.Gateway()
			for i, b := range gw.Backends() {
				gw.SetBackend(i, g.inner.wrap(b))
			}
		}
		h = g.sf.Handler()
	} else {
		srv := amigo.NewServer(nil)
		mux := http.NewServeMux()
		api := srv.Handler()
		mux.Handle("/v1/", api)
		mux.Handle("/v2/", api)
		mux.Handle("/v3/", api)
		mux.Handle("/admin/", srv.AdminHandler())
		h = mux
	}
	if traced {
		h = g.outer.wrap(h)
	}
	if g.srv, err = serve(h); err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	g.rec = newRecorder(conns, traced)
	g.d = &fleet.Driver{
		BaseURL:     g.srv.url,
		Client:      g.rec.client(),
		Seed:        o.seed,
		Workers:     conns,
		LeaseBatch:  leaseBatch,
		Proto:       amigo.ProtoV3,
		StreamLabel: "table4",
		Heartbeat:   true,
		Obs:         g.reg,
	}
	if o.workload == "fleet-virtual" {
		g.vc = vclock.NewVirtual()
		g.d.Clock = g.vc
		g.d.Realize = true
	}
	return g, nil
}

func (g *rig) close() {
	if g.rec != nil {
		g.rec.close()
	}
	if g.srv != nil {
		g.srv.close()
	}
	if g.sf != nil {
		if err := g.sf.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing sharded fleet:", err)
		}
	}
	if g.walDir != "" {
		os.RemoveAll(g.walDir)
	}
}

// fleetIteration sets up a rig, then drives, ingests and renders one
// campaign. A traced iteration also returns its layer values.
func fleetIteration(o options, plan fleet.Plan, traced bool) (*fleetIter, error) {
	it := &fleetIter{}
	t0 := time.Now()
	g, err := newRig(o, traced)
	if err != nil {
		return nil, err
	}
	defer g.close()
	it.setup, it.build = time.Since(t0), g.build
	w, d, vc, rec := g.w, g.d, g.vc, g.rec

	h0, m0, dj0 := w.Net.RouteCacheStats()
	p0 := sampleProc()
	var stopSampler func() float64
	if traced && vc != nil {
		stopSampler = sampleParked(vc)
	}
	t1 := time.Now()
	camp, err := d.Run(w, plan)
	t2 := time.Now()
	parked := 0.0
	if stopSampler != nil {
		parked = stopSampler()
	}
	if err != nil {
		return nil, err
	}
	ds, err := fleet.Ingest(w.Reg, camp)
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	it.text = fleet.Table4(ds, camp.Plan).String() + fleet.RTTSummary(ds, camp.Plan).String()
	t4 := time.Now()

	it.drive, it.ingest, it.run = t2.Sub(t1), t3.Sub(t2), t4.Sub(t1)
	it.results = len(camp.Results)
	if vc != nil {
		it.virtual = camp.Stats.Elapsed
	}
	it.ex = rec.exchanges()
	it.camp = camp
	rec.mu.Lock()
	it.sched = rec.sched
	rec.mu.Unlock()
	if !traced {
		return it, nil
	}
	conns := runtime.NumCPU()

	l := procLayer(p0, sampleProc())
	if vc != nil {
		l["vclock.parked_share"] = parked
		l["vclock.virtual_s"] = it.virtual.Seconds()
	}
	h1, m1, dj1 := w.Net.RouteCacheStats()
	l["netsim.route_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	l["netsim.dijkstra_runs"] = float64(dj1 - dj0)
	l["airalo.build_s"] = it.build.Seconds()
	l["fleet.drive_s"] = it.drive.Seconds()
	l["fleet.ingest_s"] = it.ingest.Seconds()
	l["fleet.ingest_us_per_result"] = ratio(float64(it.ingest.Microseconds()), float64(it.results))
	l["http.conns_new"] = float64(rec.dials.Load())

	var reqTime, readback time.Duration
	var wireBytes = map[string][]float64{}
	var overhead []float64
	g.outer.mu.Lock()
	for _, x := range it.ex {
		reqTime += x.dur
		if x.route == "admin_results" {
			readback += x.dur
		}
		wireBytes[x.route] = append(wireBytes[x.route], float64(x.reqBytes+x.respBytes))
		if sd, ok := g.outer.byID[x.id]; ok {
			overhead = append(overhead, millis(x.dur-sd))
		}
	}
	g.outer.mu.Unlock()
	l["fleet.readback_s"] = readback.Seconds()
	l["wire.lease_bytes"] = mean(wireBytes["lease"])
	l["wire.results_bytes"] = mean(wireBytes["results"])
	l["http.overhead_ms_p50"] = quantile(overhead, 0.5)
	l["amigo.round_trips_per_result"] = ratio(float64(len(it.ex)), float64(it.results))

	var execMs float64
	for _, k := range taskKinds {
		s := g.reg.Histogram("amigo_endpoint_task_exec_ms", obs.L("kind", k)).Snapshot()
		l["measure.exec_ms."+k] = s.Sum
		l["measure.exec_count."+k] = float64(s.Count)
		execMs += s.Sum
	}
	if vc == nil {
		// Worker time the layers do not explain: the pool's capacity
		// over the drive, less task execution and client request time.
		// A virtual campaign has no pool and executes in virtual time.
		l["fleet.residual_s"] = float64(conns)*it.drive.Seconds() - execMs/1000 - reqTime.Seconds()
	}

	amigoClock := g.outer
	if g.inner != nil {
		amigoClock = g.inner
		l["shard.gateway_self_s"] = (g.outer.total() - g.inner.total()).Seconds()
	}
	amigoClock.mu.Lock()
	for _, r := range routes {
		l["amigo.busy_s."+r] = amigoClock.busy[r].Seconds()
		l["amigo.requests."+r] = float64(amigoClock.count[r])
	}
	amigoClock.mu.Unlock()

	if g.sf != nil {
		samples, err := scrape(g.reg)
		if err != nil {
			return nil, err
		}
		for k, v := range shardLayers(samples) {
			l[k] = v
		}
	}
	it.layer = l
	return it, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// sampleParked samples v.Waiters every millisecond until the returned
// stop function is called, which returns the mean share of registered
// waiters parked in a clock wait.
func sampleParked(v *vclock.Virtual) (stop func() float64) {
	done := make(chan struct{})
	res := make(chan float64, 1)
	go func() {
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		sum, n := 0.0, 0
		for {
			select {
			case <-done:
				res <- ratio(sum, float64(n))
				return
			case <-tk.C:
				if reg, parked := v.Waiters(); reg > 0 {
					sum += float64(parked) / float64(reg)
					n++
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-res
	}
}

// fleetReference renders Table 4 and the RTT summary of the serial
// in-process campaign for the seed and plan.
func fleetReference(seed int64, plan fleet.Plan) (string, error) {
	w, err := airalo.Build(seed)
	if err != nil {
		return "", err
	}
	camp, err := fleet.RunInProcess(w, plan, seed, "table4", true)
	if err != nil {
		return "", err
	}
	ds, err := fleet.Ingest(w.Reg, camp)
	if err != nil {
		return "", err
	}
	return fleet.Table4(ds, camp.Plan).String() + fleet.RTTSummary(ds, camp.Plan).String(), nil
}
