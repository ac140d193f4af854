package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
)

// newObsControlServer is the full control-server wiring with an
// optional metrics registry and optional chaos storm middleware — the
// way cmd/roam-fleet -metrics -chaos assembles it.
func newObsControlServer(t testing.TB, reg *obs.Registry, inj *chaos.Injector) *httptest.Server {
	t.Helper()
	srv := amigo.NewServer(nil, amigo.WithObs(reg))
	mux := http.NewServeMux()
	h := srv.Handler()
	mux.Handle("/v1/", h)
	mux.Handle("/v2/", h)
	mux.Handle("/v3/", h)
	mux.Handle("/admin/", srv.AdminHandler())
	var root http.Handler = mux
	if inj != nil {
		root = inj.Middleware(root)
	}
	hs := httptest.NewServer(root)
	t.Cleanup(hs.Close)
	return hs
}

// runObsCampaign runs the chaos-test plan with the registry attached
// everywhere (server, driver, endpoints, netsim) and returns the
// ingested dataset blob plus the server URL for scraping.
func runObsCampaign(t *testing.T, reg *obs.Registry, inj *chaos.Injector, workers int) ([]byte, string) {
	t.Helper()
	w := testWorld(t)
	hs := newObsControlServer(t, reg, inj)
	RegisterNetObs(reg, w.Net)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: workers,
		LeaseBatch: 4, StreamLabel: "obs-eq", Heartbeat: true, Chaos: inj, Obs: reg}
	camp, err := d.Run(w, chaosTestPlan())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Ingest(w.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return blob, hs.URL
}

// TestFleetMetricsEquivalence is the tentpole's determinism proof:
// attaching the observability layer must not change a single byte of
// the ingested dataset — across worker counts, and even under heavy
// chaos where instrumentation rides every retry and restart path.
func TestFleetMetricsEquivalence(t *testing.T) {
	baseline, _ := runObsCampaign(t, nil, nil, 4)
	if len(baseline) == 0 {
		t.Fatal("empty baseline dataset")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("metrics-on/workers=%d", workers), func(t *testing.T) {
			got, _ := runObsCampaign(t, obs.NewRegistry(), nil, workers)
			if !bytes.Equal(got, baseline) {
				t.Error("dataset differs with metrics enabled")
			}
		})
	}
	t.Run("metrics-on/chaos", func(t *testing.T) {
		inj := chaos.NewInjector(7, chaos.Heavy())
		got, _ := runObsCampaign(t, obs.NewRegistry(), inj, 4)
		if !bytes.Equal(got, baseline) {
			t.Errorf("chaos+metrics dataset differs from clean baseline\nfault trace:\n%s", inj.TraceString())
		}
		if len(inj.Events()) == 0 {
			t.Error("chaos run injected zero faults; the test proved nothing")
		}
	})
}

// TestFleetMetricsEndpoint scrapes /admin/metrics over real HTTP after
// a campaign and checks the exposition is well-formed Prometheus text
// covering every instrumented layer, and that /admin/trace serves JSON.
func TestFleetMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	inj := chaos.NewInjector(7, chaos.Heavy())
	_, baseURL := runObsCampaign(t, reg, inj, 4)

	resp, err := http.Get(baseURL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	text := string(body)
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously small exposition (%d lines):\n%s", len(lines), text)
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable value in line %q: %v", line, err)
		}
	}

	// Every instrumented layer must be represented: the control server,
	// the ME client, the fleet driver, and the network simulator.
	for _, family := range []string{
		"amigo_server_requests_total", "amigo_server_leased_tasks_total",
		"amigo_server_request_duration_ms_bucket", "amigo_server_spool_depth",
		"amigo_endpoint_requests_total", "amigo_endpoint_task_exec_ms_bucket",
		"amigo_endpoint_connections_total",
		"fleet_incarnations_total", "fleet_tasks_executed_total",
		"fleet_chaos_faults_total",
		"netsim_route_cache_hits_total", "netsim_dijkstra_runs_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %s family", family)
		}
	}

	// The campaign actually moved: task counters must be positive.
	var executed float64
	for _, line := range lines {
		if strings.HasPrefix(line, "fleet_tasks_executed_total ") {
			executed, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
		}
	}
	if executed <= 0 {
		t.Errorf("fleet_tasks_executed_total = %v, want > 0", executed)
	}

	resp, err = http.Get(baseURL + "/admin/trace?n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", resp.StatusCode)
	}
	var trace struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	for _, e := range trace.Events {
		if e.Seq == 0 || e.Name == "" {
			t.Fatalf("malformed trace event: %+v", e)
		}
	}
}
