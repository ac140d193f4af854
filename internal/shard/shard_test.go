package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

func TestRingDeterministicAndTotal(t *testing.T) {
	r1 := NewRing(4)
	r2 := NewRing(4)
	for i := 0; i < 100; i++ {
		me := fmt.Sprintf("PAK-%02d", i)
		s := r1.Shard(me)
		if s < 0 || s >= 4 {
			t.Fatalf("Shard(%q) = %d out of range", me, s)
		}
		if s2 := r2.Shard(me); s2 != s {
			t.Fatalf("placement not deterministic: %q -> %d vs %d", me, s, s2)
		}
	}
	if NewRing(1).Shard("anything") != 0 {
		t.Fatal("single-shard ring must place everything on shard 0")
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(4)
	counts := make([]int, 4)
	for c := 0; c < 10; c++ {
		for i := 0; i < 50; i++ {
			counts[r.Shard(fmt.Sprintf("C%d-%02d", c, i))]++
		}
	}
	for s, n := range counts {
		// 500 MEs over 4 shards: expect ~125 each; consistent hashing
		// with 128 vnodes should stay within a loose 2x band.
		if n < 60 || n > 250 {
			t.Fatalf("shard %d owns %d of 500 MEs — ring badly unbalanced: %v", s, n, counts)
		}
	}
}

// shardSet spins up n amigo servers behind a gateway for HTTP-level
// tests.
func shardSet(t *testing.T, n int) (*Gateway, []*amigo.Server, *httptest.Server) {
	t.Helper()
	servers := make([]*amigo.Server, n)
	backends := make([]http.Handler, n)
	for i := range servers {
		servers[i] = amigo.NewServer(nil)
		backends[i] = Mount(servers[i].Handler(), servers[i].AdminHandler())
	}
	gw := NewGateway(backends, Options{Obs: obs.NewRegistry()})
	hs := httptest.NewServer(gw)
	t.Cleanup(hs.Close)
	return gw, servers, hs
}

// driveME runs one ME through the full protocol via the gateway —
// JSON register and schedule, v3 frame leases and uploads — and returns
// its uploaded results.
func driveME(t *testing.T, baseURL, me string) []amigo.Result {
	t.Helper()
	ep := &amigo.Endpoint{Name: me, BaseURL: baseURL}
	reg, _ := json.Marshal(map[string]string{"me": me, "country": me[:3]})
	resp0, err := http.Post(baseURL+"/v1/register", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusNoContent {
		t.Fatalf("%s register via gateway: HTTP %d", me, resp0.StatusCode)
	}
	// Schedule through the gateway's admin route.
	body, _ := json.Marshal(map[string]any{"me": me, "tasks": []amigo.Task{
		{Kind: "speedtest", Config: "esim"},
		{Kind: "dns", Target: "8.8.8.8", Config: "sim"},
	}})
	resp, err := http.Post(baseURL+"/admin/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s schedule via gateway: HTTP %d", me, resp.StatusCode)
	}
	var out []amigo.Result
	for {
		tasks, err := ep.Lease(8)
		if err != nil {
			t.Fatalf("%s lease: %v", me, err)
		}
		if len(tasks) == 0 {
			break
		}
		var up []amigo.Result
		for _, task := range tasks {
			up = append(up, amigo.Result{TaskID: task.ID, ME: me, Kind: task.Kind, Config: task.Config, OK: true, Payload: []byte(`{"ok":1}`)})
		}
		if err := ep.Upload(up); err != nil {
			t.Fatalf("%s upload: %v", me, err)
		}
		out = append(out, up...)
	}
	return out
}

// TestGatewayRoutesBothProtocols: the gateway peeks the ME out of both
// body encodings it carries — JSON (register, schedule) and v3 frames
// (lease, upload) — and every request for an ME lands on its ring shard.
func TestGatewayRoutesBothProtocols(t *testing.T) {
	gw, servers, hs := shardSet(t, 4)
	mes := []string{"PAK-00", "PAK-01", "GEO-00", "GEO-01", "USA-00", "USA-01"}
	want := 0
	for _, me := range mes {
		want += len(driveME(t, hs.URL, me))
	}
	// Every ME's results must have landed wholly on its ring shard.
	totalByShard := 0
	for i, srv := range servers {
		rs := srv.Results()
		totalByShard += len(rs)
		for _, res := range rs {
			if got := gw.Ring().Shard(res.ME); got != i {
				t.Fatalf("result for %s found on shard %d, ring says %d", res.ME, i, got)
			}
		}
	}
	if totalByShard != want {
		t.Fatalf("shards hold %d results, uploaded %d", totalByShard, want)
	}

	// Merged /admin/mes equals the sorted ME list.
	resp, err := http.Get(hs.URL + "/admin/mes")
	if err != nil {
		t.Fatal(err)
	}
	var gotMEs []string
	if err := json.NewDecoder(resp.Body).Decode(&gotMEs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantMEs := append([]string(nil), mes...)
	sort.Strings(wantMEs)
	if !reflect.DeepEqual(gotMEs, wantMEs) {
		t.Fatalf("merged /admin/mes = %v, want %v", gotMEs, wantMEs)
	}
}

func TestGatewayMergedResultsPagination(t *testing.T) {
	gw, servers, hs := shardSet(t, 3)
	mes := []string{"PAK-00", "GEO-00", "USA-00", "FRA-00", "JPN-00"}
	uploaded := 0
	for _, me := range mes {
		uploaded += len(driveME(t, hs.URL, me))
	}

	// cursor=-1 returns just the global cursor.
	var head resultsPage
	getJSON(t, hs.URL+"/admin/results?cursor=-1", &head)
	if head.Cursor != uploaded {
		t.Fatalf("global cursor = %d, want %d", head.Cursor, uploaded)
	}

	// Page through with a small limit and check the merged stream equals
	// the per-shard logs concatenated in shard order.
	var want []json.RawMessage
	for _, srv := range servers {
		var rs []amigo.Result
		rs = srv.Results()
		for _, res := range rs {
			b, _ := json.Marshal(res)
			want = append(want, json.RawMessage(b))
		}
	}
	var got []json.RawMessage
	cursor := 0
	for {
		var page resultsPage
		getJSON(t, fmt.Sprintf("%s/admin/results?cursor=%d&limit=3", hs.URL, cursor), &page)
		if len(page.Results) == 0 || page.Cursor <= cursor {
			break
		}
		got = append(got, page.Results...)
		cursor = page.Cursor
	}
	if len(got) != len(want) {
		t.Fatalf("merged pagination yielded %d results, want %d", len(got), len(want))
	}
	for i := range got {
		var a, b amigo.Result
		if err := json.Unmarshal(got[i], &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want[i], &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("merged result %d diverged:\n got %+v\nwant %+v", i, a, b)
		}
	}
	_ = gw
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// blindSink is write-only: it forces the 501 path.
type blindSink struct{}

func (blindSink) Append([]amigo.Result) {}

func TestGatewayMergedResults501(t *testing.T) {
	srvOK := amigo.NewServer(nil)
	srvBlind := amigo.NewServer(nil, amigo.WithSink(blindSink{}))
	gw := NewGateway([]http.Handler{
		Mount(srvOK.Handler(), srvOK.AdminHandler()),
		Mount(srvBlind.Handler(), srvBlind.AdminHandler()),
	}, Options{})
	hs := httptest.NewServer(gw)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/admin/results?cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("merged results over a blind shard: HTTP %d, want 501", resp.StatusCode)
	}
}

func TestGatewaySetBackendSwapsLive(t *testing.T) {
	gw, _, hs := shardSet(t, 2)
	me := "PAK-00"
	shard := gw.Ring().Shard(me)
	driveME(t, hs.URL, me)

	// Swap the owning shard for a fresh empty server: the ME is now
	// unknown there, and the lease route must answer 404.
	fresh := amigo.NewServer(nil)
	gw.SetBackend(shard, Mount(fresh.Handler(), fresh.AdminHandler()))
	body := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: me, Max: 1})
	resp, err := http.Post(hs.URL+"/v3/tasks/lease", wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("lease after backend swap: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestGatewayRetiredRoutesGone: the gateway no longer routes v1
// one-task polling or the v2 JSON lease/upload batches; a stale client
// gets 404 from the gateway itself and no shard sees the request.
func TestGatewayRetiredRoutesGone(t *testing.T) {
	_, servers, hs := shardSet(t, 2)
	driveME(t, hs.URL, "PAK-00")
	before := 0
	for _, srv := range servers {
		before += len(srv.Results())
	}
	for _, rt := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/tasks?me=PAK-00", ""},
		{http.MethodPost, "/v1/results", `{"task_id":1,"me":"PAK-00"}`},
		{http.MethodPost, "/v2/tasks/lease", `{"me":"PAK-00","max":1}`},
		{http.MethodPost, "/v2/results", `[{"task_id":1,"me":"PAK-00"}]`},
	} {
		req, _ := http.NewRequest(rt.method, hs.URL+rt.path, strings.NewReader(rt.body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s via gateway: HTTP %d, want 404", rt.method, rt.path, resp.StatusCode)
		}
	}
	after := 0
	for _, srv := range servers {
		after += len(srv.Results())
	}
	if after != before {
		t.Errorf("retired routes stored %d results", after-before)
	}
}

func TestGatewayV3BadFrames(t *testing.T) {
	_, _, hs := shardSet(t, 2)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"short", []byte("R3")},
		{"garbage", bytes.Repeat([]byte{0xff}, 32)},
		{"tasks-frame", wire.AppendTasks(nil, []wire.Task{{ID: 1, Kind: "dns", Config: "sim"}})},
	} {
		resp, err := http.Post(hs.URL+"/v3/results", wire.ContentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
}
