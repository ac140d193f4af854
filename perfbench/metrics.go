package main

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// e2eSpecs are the end-to-end metrics of the untraced run. Every
// workload reports every one of them.
var e2eSpecs = []spec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"results_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// Route and task-kind labels of the per-layer metrics.
var (
	routes    = []string{"lease", "results", "register", "status", "schedule", "admin_results"}
	taskKinds = []string{"speedtest", "mtr", "cdn", "dns", "video"}
)

// layerSpecs are the per-layer metrics of the traced run. Every
// workload reports every one of them; a layer the workload does not
// exercise reads 0.
var layerSpecs = func() []spec {
	s := []spec{
		{"error_rate", "ratio"},
		{"lease_p50_ms", "ms"}, {"lease_p99_ms", "ms"}, {"lease_samples", "count"},
		{"upload_p50_ms", "ms"}, {"upload_p99_ms", "ms"}, {"upload_samples", "count"},
		{"bench.trace_overhead_s", "s"},
		{"airalo.build_s", "s"},
	}
	for _, c := range paperCampaigns {
		s = append(s, spec{"experiments.campaign." + c.name + "_s", "s"})
	}
	for _, j := range paperJobs {
		s = append(s, spec{"experiments.artifact." + j.name + "_s", "s"})
	}
	s = append(s,
		spec{"esimdb.pages", "count"}, spec{"esimdb.page_ms_p50", "ms"},
		spec{"esimdb.page_ms_p99", "ms"}, spec{"esimdb.busy_s", "s"},
		spec{"fleet.drive_s", "s"}, spec{"fleet.ingest_s", "s"},
		spec{"fleet.ingest_us_per_result", "us"}, spec{"fleet.readback_s", "s"},
		spec{"fleet.residual_s", "s"},
	)
	for _, r := range routes {
		s = append(s, spec{"amigo.busy_s." + r, "s"}, spec{"amigo.requests." + r, "count"})
	}
	s = append(s, spec{"amigo.round_trips_per_result", "ratio"})
	for _, k := range taskKinds {
		s = append(s, spec{"measure.exec_ms." + k, "ms"}, spec{"measure.exec_count." + k, "count"})
	}
	return append(s,
		spec{"netsim.route_hit_ratio", "ratio"}, spec{"netsim.dijkstra_runs", "count"},
		spec{"wire.lease_bytes", "B"}, spec{"wire.results_bytes", "B"},
		spec{"http.overhead_ms_p50", "ms"}, spec{"http.conns_new", "count"},
		spec{"shard.gateway_self_s", "s"}, spec{"shard.imbalance", "ratio"},
		spec{"walsink.fsyncs", "count"}, spec{"walsink.fsync_ms_p50", "ms"},
		spec{"walsink.bytes", "B"}, spec{"walsink.records_per_fsync", "ratio"},
		spec{"vclock.virtual_s", "s"}, spec{"vclock.parked_share", "ratio"},
		spec{"proc.cpu_s", "s"}, spec{"proc.alloc_mb", "MB"},
		spec{"proc.gc_cycles", "count"}, spec{"proc.gc_pause_ms", "ms"},
	)
}()

// unitOf maps every reported metric to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]spec(nil), e2eSpecs...), layerSpecs...) {
		m[s.name] = s.unit
	}
	return m
}()

// mustUnit returns a metric's unit; reporting an undeclared metric is a
// bug in this package.
func mustUnit(name string) string {
	u, ok := unitOf[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	return u
}

func (r *runReport) setE2E(name string, v float64) { r.e2e[name] = metric{v, mustUnit(name)} }

// setLayers reports measured per-layer values.
func (r *runReport) setLayers(vals map[string]float64) {
	for k, v := range vals {
		r.layer[k] = metric{v, mustUnit(k)}
	}
}
