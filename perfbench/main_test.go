package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/experiments"
)

// smokeOptions runs a workload at a size small enough for a test: one
// iteration per pass, 20 MEs, and small paper campaigns.
func smokeOptions(t *testing.T, workload string) options {
	return options{
		workload: workload,
		seed:     3,
		budget:   time.Nanosecond,
		trace:    true,
		workDir:  t.TempDir(),
		mes:      20,
		paper: experiments.Config{
			TracesPerCountry: 2, SpeedtestsPerCountry: 2, CDNFetchesPerCountry: 2,
			DNSPerCountry: 2, VideosPerCountry: 1, WebMeasurements: 1,
		},
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads
// and metrics the code runs and reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code runs %s", got, want)
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []spec) {
		fileUnits := map[string]string{}
		for _, m := range file {
			fileUnits[m.Name] = m.Unit
		}
		for _, s := range code {
			if u, ok := fileUnits[s.name]; !ok || u != s.unit {
				t.Errorf("%s metric %s (%s): BENCHMARK.json has unit %q (listed %v)", kind, s.name, s.unit, u, ok)
			}
		}
		if len(file) != len(code) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, code reports %d", len(file), kind, len(code))
		}
	}
	same("end_to_end", bf.EndToEnd, e2eSpecs)
	same("per_layer", bf.PerLayer, layerSpecs)
}

// TestSmokeEveryWorkload runs every workload traced at smoke size and
// checks that every metric BENCHMARK.json names is reported with its
// unit, that no check fails, that the layers each workload exercises
// did work and the others did none, and that the three fleet
// workloads render identical Table 4 / RTT output.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	nonzero := map[string][]string{
		"paper": {"esimdb.pages", "experiments.artifact.fig16_s", "experiments.campaign.traces_s", "netsim.dijkstra_runs"},
		"fleet-mem": {"fleet.drive_s", "fleet.ingest_s", "amigo.requests.lease", "amigo.busy_s.results",
			"measure.exec_count.mtr", "wire.results_bytes", "http.conns_new", "lease_samples", "upload_samples"},
		"fleet-durable": {"fleet.drive_s", "walsink.bytes", "shard.gateway_self_s", "shard.imbalance", "amigo.requests.results"},
		"fleet-virtual": {"fleet.drive_s", "vclock.virtual_s", "vclock.parked_share"},
	}
	zero := map[string][]string{
		"paper":         {"fleet.drive_s", "amigo.requests.lease", "walsink.fsyncs", "vclock.virtual_s"},
		"fleet-mem":     {"esimdb.pages", "walsink.fsyncs", "shard.gateway_self_s", "vclock.virtual_s"},
		"fleet-durable": {"esimdb.pages", "vclock.virtual_s"},
		"fleet-virtual": {"esimdb.pages", "walsink.fsyncs", "shard.gateway_self_s"},
	}
	digests := map[string]bool{}
	for _, w := range workloadNames() {
		rep, err := run(smokeOptions(t, w))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", w, rep.failed, rep.attempted, rep.notes)
		}
		for kind, set := range map[string]map[string]metric{"end_to_end": rep.e2e, "per_layer": rep.layer} {
			list := bf.EndToEnd
			if kind == "per_layer" {
				list = bf.PerLayer
			}
			for _, m := range list {
				got, ok := set[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: %s metric %s missing or not in %s: %+v", w, kind, m.Name, m.Unit, got)
				}
			}
		}
		for _, name := range e2eSpecs {
			if rep.e2e[name.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name.name, rep.e2e[name.name].Value)
			}
		}
		for _, name := range append([]string{"airalo.build_s", "proc.cpu_s"}, nonzero[w]...) {
			if rep.layer[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, rep.layer[name].Value)
			}
		}
		for _, name := range zero[w] {
			if rep.layer[name].Value != 0 {
				t.Errorf("%s: %s = %v, want 0", w, name, rep.layer[name].Value)
			}
		}
		if d, ok := rep.manifest["output_sha256"].(string); ok {
			digests[d] = true
		}
	}
	if len(digests) != 1 {
		t.Errorf("fleet workloads render %d different Table 4 / RTT outputs, want 1", len(digests))
	}
}

// TestCheckRejectsTamperedArtifact tampers with the harness's copy of
// a real artifact and expects the comparison to fail and name it.
func TestCheckRejectsTamperedArtifact(t *testing.T) {
	cfg := smokeOptions(t, "paper").paper
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files, err := paperJobs[0].run(r)
	if err != nil {
		t.Fatal(err)
	}
	ref, got := t.TempDir(), t.TempDir()
	for _, dir := range []string{ref, got} {
		if err := writeFiles(dir, files); err != nil {
			t.Fatal(err)
		}
	}
	var ok tally
	if err := compareDirs(&ok, got, ref); err != nil || ok.failed != 0 || ok.attempted != int64(len(files)) {
		t.Fatalf("identical copies: err %v, %d of %d failed: %v", err, ok.failed, ok.attempted, ok.notes)
	}

	name := filepath.Join(got, files[0].name)
	body := []byte(files[0].body)
	body[len(body)/2] ^= 1
	if err := os.WriteFile(name, body, 0o644); err != nil {
		t.Fatal(err)
	}
	var bad tally
	if err := compareDirs(&bad, got, ref); err != nil {
		t.Fatal(err)
	}
	if bad.failed != 1 || !strings.Contains(strings.Join(bad.notes, "\n"), files[0].name) {
		t.Errorf("tampered %s: %d failed, notes %v", files[0].name, bad.failed, bad.notes)
	}
}

// TestCheckRejectsDroppedResult drops and duplicates results in the
// harness's copy of a real campaign and expects the completeness check
// to fail and name the (ME, task) pairs.
func TestCheckRejectsDroppedResult(t *testing.T) {
	o := smokeOptions(t, "fleet-mem")
	it, err := fleetIteration(o, fleetPlan(o.mes), false)
	if err != nil {
		t.Fatal(err)
	}
	camp := it.camp
	var ok tally
	checkComplete(&ok, camp, it.sched)
	if ok.failed != 0 || ok.attempted != int64(camp.Stats.TasksScheduled) {
		t.Fatalf("intact campaign: %d of %d failed: %v", ok.failed, ok.attempted, ok.notes)
	}

	dropped := *camp
	victim := camp.Results[len(camp.Results)/2]
	dropped.Results = append(append([]amigo.Result(nil), camp.Results[:len(camp.Results)/2]...), camp.Results[len(camp.Results)/2+1:]...)
	var bad tally
	checkComplete(&bad, &dropped, it.sched)
	if bad.failed != 1 || !strings.Contains(bad.notes[0], victim.ME) {
		t.Errorf("dropped %s task %d: %d failed, notes %v", victim.ME, victim.TaskID, bad.failed, bad.notes)
	}

	duplicated := *camp
	duplicated.Results = append(append([]amigo.Result(nil), camp.Results...), victim)
	var dup tally
	checkComplete(&dup, &duplicated, it.sched)
	if dup.failed != 1 {
		t.Errorf("duplicated %s task %d: %d failed, notes %v", victim.ME, victim.TaskID, dup.failed, dup.notes)
	}
}
