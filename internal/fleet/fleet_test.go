package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
)

const testSeed = 21

var sharedWorld *airalo.World

func testWorld(t testing.TB) *airalo.World {
	t.Helper()
	if sharedWorld == nil {
		w, err := airalo.Build(testSeed)
		if err != nil {
			t.Fatal(err)
		}
		sharedWorld = w
	}
	return sharedWorld
}

// newControlServer stands up a full control server (the /v1/, /v2/ and
// /v3/ protocol routes + admin) the way cmd/amigo-server wires it.
func newControlServer(t testing.TB, opts ...amigo.Option) (*amigo.Server, *httptest.Server) {
	t.Helper()
	srv := amigo.NewServer(nil, opts...)
	mux := http.NewServeMux()
	h := srv.Handler()
	mux.Handle("/v1/", h)
	mux.Handle("/v2/", h)
	mux.Handle("/v3/", h)
	mux.Handle("/admin/", srv.AdminHandler())
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return srv, hs
}

func TestPlanSchedules(t *testing.T) {
	plan := Plan{Countries: []string{"PAK", "DEU"}, MEsPerCountry: 2,
		Tasks:   []amigo.Task{{Kind: "speedtest"}, {Kind: "mtr", Target: "Google"}},
		Configs: []string{"esim"}, Reps: 3}
	scheds := plan.Schedules()
	if len(scheds) != 4 {
		t.Fatalf("schedules = %d, want 4", len(scheds))
	}
	if scheds[0].Name != "me-PAK-0" || scheds[3].Name != "me-DEU-1" {
		t.Errorf("names = %s .. %s", scheds[0].Name, scheds[3].Name)
	}
	if got := len(scheds[0].Tasks); got != plan.TasksPerME() || got != 6 {
		t.Fatalf("tasks per ME = %d, want 6", got)
	}
	// Task kind outermost, rep innermost.
	if scheds[0].Tasks[0].Kind != "speedtest" || scheds[0].Tasks[2].Kind != "speedtest" ||
		scheds[0].Tasks[3].Kind != "mtr" {
		t.Errorf("unexpected task nesting: %+v", scheds[0].Tasks)
	}
	// One ME per country uses the bare ISO label (in-process parity).
	one := Plan{Countries: []string{"PAK"}}.Schedules()
	if one[0].Name != "me-PAK" || one[0].Label != "PAK" {
		t.Errorf("single-ME naming: %+v", one[0])
	}
}

func TestFleetEndToEnd(t *testing.T) {
	w := testWorld(t)
	srv, hs := newControlServer(t)
	plan := Plan{
		Countries: []string{"PAK", "DEU"}, MEsPerCountry: 3,
		Tasks:   []amigo.Task{{Kind: "speedtest"}, {Kind: "dns"}, {Kind: "mtr", Target: "Google"}},
		Configs: []string{"esim"}, Reps: 2,
	}
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 4, LeaseBatch: 3, Heartbeat: true}
	camp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := 6 * plan.TasksPerME()
	if camp.Stats.Results != want || len(camp.Results) != want {
		t.Fatalf("results = %d, want %d", len(camp.Results), want)
	}
	if got := len(srv.MEs()); got != 6 {
		t.Errorf("registered MEs = %d, want 6", got)
	}
	ds, err := Ingest(w.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Failures) != 0 {
		t.Errorf("failures: %+v", ds.Failures)
	}
	if len(ds.Speed) != 12 || len(ds.DNS) != 12 || len(ds.Traces) != 12 {
		t.Errorf("dataset sizes: speed=%d dns=%d traces=%d, want 12 each",
			len(ds.Speed), len(ds.DNS), len(ds.Traces))
	}
	for _, r := range ds.Speed {
		if r.Payload.DownMbps <= 0 || r.Payload.PublicIP == "" {
			t.Fatalf("bad speed record: %+v", r)
		}
	}
	demarcated := 0
	for _, r := range ds.Traces {
		if r.Demarcated {
			demarcated++
			if r.PA.FinalRTTms <= 0 || r.PA.UniqueASNs < 1 {
				t.Fatalf("bad demarcation: %+v", r.PA)
			}
		}
	}
	if demarcated == 0 {
		t.Error("no trace demarcated")
	}
}

// TestFleetDeterminismAcrossWorkers is the fleet determinism contract:
// for a fixed seed the ingested dataset is byte-identical no matter the
// worker count or lease batch size.
func TestFleetDeterminismAcrossWorkers(t *testing.T) {
	w := testWorld(t)
	plan := Plan{
		Countries: []string{"PAK", "DEU", "GEO"}, MEsPerCountry: 2,
		Tasks: []amigo.Task{
			{Kind: "speedtest"}, {Kind: "mtr", Target: "Facebook"},
			{Kind: "cdn", Target: "Cloudflare"}, {Kind: "video"},
		},
		Configs: []string{"sim", "esim"}, Reps: 2,
	}
	var baseline []byte
	for _, cfg := range []struct{ workers, lease int }{{1, 1}, {4, 8}, {8, 64}} {
		_, hs := newControlServer(t)
		d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: cfg.workers,
			LeaseBatch: cfg.lease, Heartbeat: true}
		camp, err := d.Run(w, plan)
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
		if baseline == nil {
			baseline = blob
			continue
		}
		if !bytes.Equal(baseline, blob) {
			t.Fatalf("dataset differs at workers=%d lease=%d", cfg.workers, cfg.lease)
		}
	}
}

// TestFleetMatchesInProcessCampaign cross-checks the HTTP fleet driver
// against the serial in-process campaign (RunInProcess) for the same
// seed: the ingested datasets, Table 4 counts, and RTT aggregates must
// be byte-identical.
func TestFleetMatchesInProcessCampaign(t *testing.T) {
	w := testWorld(t)
	plan := Plan{
		Countries: []string{"GEO", "QAT", "THA"},
		Tasks: []amigo.Task{
			{Kind: "speedtest"}, {Kind: "mtr", Target: "Facebook"},
			{Kind: "mtr", Target: "Google"}, {Kind: "cdn", Target: "jsDelivr"},
		},
		Configs: []string{"sim", "esim"}, Reps: 3,
	}
	_, hs := newControlServer(t)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 6, LeaseBatch: 5,
		StreamLabel: "xcheck", Heartbeat: true}
	fleetCamp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	inprocCamp, err := RunInProcess(w, plan, testSeed, "xcheck", true)
	if err != nil {
		t.Fatal(err)
	}
	fleetDS, err := Ingest(w.Reg, fleetCamp)
	if err != nil {
		t.Fatal(err)
	}
	inprocDS, err := Ingest(w.Reg, inprocCamp)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := json.Marshal(fleetDS)
	ib, _ := json.Marshal(inprocDS)
	if !bytes.Equal(fb, ib) {
		t.Fatal("fleet dataset differs from in-process campaign dataset")
	}
	if got, want := Table4(fleetDS, plan).String(), Table4(inprocDS, plan).String(); got != want {
		t.Fatalf("Table 4 mismatch:\nfleet:\n%s\nin-process:\n%s", got, want)
	}
	if got, want := RTTSummary(fleetDS, plan).String(), RTTSummary(inprocDS, plan).String(); got != want {
		t.Fatalf("RTT summary mismatch:\nfleet:\n%s\nin-process:\n%s", got, want)
	}
}

// TestFleetTable4MatchesExperiments is the acceptance check: the
// device-campaign plan driven through the fleet control plane
// regenerates exactly the Table 4 of the serial in-process campaign —
// RunInProcess under label "table4" with heartbeats, which is how the
// experiments runner builds its Table 4 — for the same seed.
func TestFleetTable4MatchesExperiments(t *testing.T) {
	w := testWorld(t)
	plan := DeviceCampaignPlan()
	ref, err := RunInProcess(w, plan, testSeed, "table4", true)
	if err != nil {
		t.Fatal(err)
	}
	refDS, err := Ingest(w.Reg, ref)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newControlServer(t)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 8,
		StreamLabel: "table4", Heartbeat: true}
	camp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Ingest(w.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	got := Table4(ds, camp.Plan).String()
	if want := Table4(refDS, ref.Plan).String(); got != want {
		t.Fatalf("fleet Table 4 differs from the in-process Table 4:\nfleet:\n%s\nin-process:\n%s", got, want)
	}
}

// TestDriverRejectsUnknownProto pins the Driver.Proto contract: v3 is
// the only protocol, so anything but "" or "v3" — including the removed
// "v2" — fails fast instead of silently running something else.
func TestDriverRejectsUnknownProto(t *testing.T) {
	w := testWorld(t)
	_, hs := newControlServer(t)
	for _, proto := range []string{"v2", "v9"} {
		d := &Driver{BaseURL: hs.URL, Seed: testSeed, Proto: proto}
		if _, err := d.Run(w, chaosTestPlan()); err == nil {
			t.Errorf("Run accepted protocol %q", proto)
		}
	}
}

// TestScheduleIDCountMismatch: a control server (here an external
// stand-in) whose schedule response carries the wrong number of task
// IDs fails the ME loudly, naming it and both counts. Running on with
// unpinned IDs would let a later shard recovery replay the schedule
// under fresh IDs that Ingest's (ME, task ID) dedup cannot match.
func TestScheduleIDCountMismatch(t *testing.T) {
	world := testWorld(t)
	plan := Plan{Countries: []string{"PAK"}, Tasks: []amigo.Task{{Kind: "dns"}},
		Configs: []string{"sim", "esim"}, Reps: 2}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /admin/schedule", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"task_ids":[1,2,3]}`) // one short of the 4 scheduled
	})
	mux.HandleFunc("GET /admin/results", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"cursor":0,"results":[]}`)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 1}
	_, err := d.Run(world, plan)
	if err == nil {
		t.Fatal("Run accepted a schedule response with 3 task IDs for 4 tasks")
	}
	for _, want := range []string{"me-PAK", "3 task IDs", "4 tasks"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// lossySink stores like a MemorySink, except that it silently loses the
// first batch whose records belong to one ME, after the server has
// already answered 204 for that upload.
type lossySink struct {
	*amigo.MemorySink
	me   string
	lost atomic.Bool
}

func (s *lossySink) Append(batch []amigo.Result) {
	if len(batch) > 0 && batch[0].ME == s.me && s.lost.CompareAndSwap(false, true) {
		return
	}
	s.MemorySink.Append(batch)
}

// TestRunFailsOnLostResults: a control plane that acknowledges an upload
// and then loses it makes Run fail, naming the incomplete ME and how
// many of its tasks are missing, instead of returning a short dataset.
func TestRunFailsOnLostResults(t *testing.T) {
	world := testWorld(t)
	sink := &lossySink{MemorySink: amigo.NewMemorySink(), me: "me-GEO-1"}
	_, hs := newControlServer(t, amigo.WithSink(sink))
	// One worker and one lease batch per ME: the lost batch is me-GEO-1's
	// whole schedule.
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 1}
	_, err := d.Run(world, chaosTestPlan())
	if err == nil {
		t.Fatal("Run succeeded although me-GEO-1's only upload was lost")
	}
	if !sink.lost.Load() {
		t.Fatal("the sink never saw me-GEO-1's upload")
	}
	for _, want := range []string{"me-GEO-1 missing 12 of 12", "1/4 MEs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	for _, complete := range []string{"me-PAK-0", "me-PAK-1", "me-GEO-0"} {
		if strings.Contains(err.Error(), complete) {
			t.Errorf("error %q names complete ME %s", err, complete)
		}
	}
}
