package amigo

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"roamsim/internal/rng"
	"roamsim/internal/wire"
)

func v3Testbed(t *testing.T, iso string, opts ...Option) (*Server, *Endpoint, func()) {
	t.Helper()
	fixed := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	srv := NewServer(func() time.Time { return fixed }, opts...)
	hs := httptest.NewServer(srv.Handler())
	ep := NewEndpoint("me-"+iso, hs.URL, world(t).Deployments[iso], rng.New(5))
	return srv, ep, hs.Close
}

// TestV3EndToEnd runs the full register/lease/execute/upload loop over
// the binary protocol and checks the results landed server-side.
func TestV3EndToEnd(t *testing.T) {
	srv, ep, done := v3Testbed(t, "PAK")
	defer done()
	if err := ep.Register(); err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		{Kind: "speedtest", Config: "esim"},
		{Kind: "dns", Config: "sim"},
		{Kind: "mtr", Target: "WhatsApp", Config: "esim"},
	}
	if _, err := srv.ScheduleBatch("me-PAK", tasks); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		n, err := ep.RunBatch(2)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total != len(tasks) {
		t.Fatalf("executed %d tasks, want %d", total, len(tasks))
	}
	rs := srv.Results()
	if len(rs) != len(tasks) {
		t.Fatalf("server retained %d results, want %d", len(rs), len(tasks))
	}
	for _, r := range rs {
		if r.ME != "me-PAK" || r.TaskID == 0 {
			t.Errorf("bad result: %+v", r)
		}
		if r.Uploaded.IsZero() {
			t.Errorf("result %d not stamped", r.TaskID)
		}
		if r.OK && len(r.Payload) == 0 {
			t.Errorf("result %d OK but empty payload", r.TaskID)
		}
	}
}

// TestV3LeaseAckRedelivery checks the ack-cursor semantics over the
// wire: an unacked lease is re-delivered byte-identically.
func TestV3LeaseAckRedelivery(t *testing.T) {
	srv, ep, done := v3Testbed(t, "PAK")
	defer done()
	if err := ep.Register(); err != nil {
		t.Fatal(err)
	}
	ids, err := srv.ScheduleBatch("me-PAK", []Task{
		{Kind: "dns", Config: "esim"}, {Kind: "dns", Config: "sim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ep.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0].ID != ids[0] {
		t.Fatalf("lease = %+v", first)
	}
	// A second endpoint incarnation that never acked re-leases the same
	// tasks (fresh ack cursor, server redelivers outstanding).
	ep2 := NewEndpoint("me-PAK", ep.BaseURL, ep.Dep, rng.New(6))
	again, err := ep2.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0] != first[0] || again[1] != first[1] {
		t.Fatalf("redelivery mismatch: %+v vs %+v", again, first)
	}
}

// TestV3UploadIdempotency re-uploads the same batch and expects the
// duplicate to be dropped by the content-derived idempotency key.
func TestV3UploadIdempotency(t *testing.T) {
	srv, ep, done := v3Testbed(t, "PAK")
	defer done()
	batch := []Result{{TaskID: 7, ME: "me-PAK", Kind: "dns", Config: "esim", OK: true,
		Payload: []byte(`{"rtt_ms":3}`)}}
	if err := ep.Upload(batch); err != nil {
		t.Fatal(err)
	}
	if err := ep.Upload(batch); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Results()); got != 1 {
		t.Fatalf("server retained %d results, want 1 (dedup)", got)
	}
}

// TestV3Backpressure fills the spool with a blocked sink and expects
// 429 + Retry-After on the v3 results route.
func TestV3Backpressure(t *testing.T) {
	block := make(chan struct{})
	sink := &blockingSink{release: block, busy: make(chan struct{})}
	srv, ep, done := v3Testbed(t, "PAK", WithSink(sink), WithSpoolCapacity(1), WithRetryAfter(2*time.Second))
	defer done()
	_ = srv
	// First upload occupies the sink; its spool slot drains.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ep.Upload([]Result{{TaskID: 1, ME: "me-PAK", Kind: "dns", Config: "esim"}})
	}()
	sink.waitBusy(t)

	// With the sink wedged, fill the spool from a second submitter (it
	// spools its batch, then parks waiting to drain), then try an
	// upload over v3: it must see 429 and the Retry-After hint.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Submit([]Result{{TaskID: 2, ME: "me-PAK"}})
	}()
	waitFor(t, func() bool { return srv.SpoolDepth() == 1 })
	frame := wire.AppendResults(nil, []Result{{TaskID: 3, ME: "me-PAK", Kind: "dns", Config: "sim"}})
	req, _ := http.NewRequest(http.MethodPost, ep.BaseURL+"/v3/results", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want 2", resp.Header.Get("Retry-After"))
	}
	close(block)
	wg.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingSink parks the first Append until released, wedging the
// spool behind it.
type blockingSink struct {
	release <-chan struct{}
	busy    chan struct{}
	once    sync.Once
}

func (s *blockingSink) Append(batch []Result) {
	s.once.Do(func() {
		close(s.busy)
		<-s.release
	})
}

func (s *blockingSink) waitBusy(t *testing.T) {
	t.Helper()
	select {
	case <-s.busy:
	case <-time.After(5 * time.Second):
		t.Fatal("sink never engaged")
	}
}

// TestV3RejectsBadRequests covers the negotiation and validation
// surface: wrong content type (415), garbage frames, wrong message
// type, and unknown MEs (404).
func TestV3RejectsBadRequests(t *testing.T) {
	_, ep, done := v3Testbed(t, "PAK")
	defer done()

	post := func(path, ct string, body []byte) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ep.BaseURL+path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
		return resp
	}

	leaseFrame := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: "me-PAK", Max: 2})
	resultFrame := wire.AppendResults(nil, []Result{{TaskID: 1, ME: "me-PAK"}})

	if resp := post("/v3/tasks/lease", "application/json", []byte(`{"me":"me-PAK"}`)); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("JSON to v3 lease: %d, want 415", resp.StatusCode)
	}
	if resp := post("/v3/results", "text/plain", resultFrame); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("wrong content type to v3 results: %d, want 415", resp.StatusCode)
	}
	if resp := post("/v3/tasks/lease", wire.ContentType, []byte("XX garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage frame: %d, want 400", resp.StatusCode)
	}
	if resp := post("/v3/tasks/lease", wire.ContentType, leaseFrame[:len(leaseFrame)-2]); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated frame: %d, want 400", resp.StatusCode)
	}
	// A body is exactly one frame: trailing bytes are refused.
	if resp := post("/v3/tasks/lease", wire.ContentType, append(leaseFrame[:len(leaseFrame):len(leaseFrame)], 0)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("lease frame with a trailing byte: %d, want 400", resp.StatusCode)
	}
	if resp := post("/v3/results", wire.ContentType, append(resultFrame[:len(resultFrame):len(resultFrame)], 0)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("results frame with a trailing byte: %d, want 400", resp.StatusCode)
	}
	// A results frame on the lease route is a type mismatch.
	if resp := post("/v3/tasks/lease", wire.ContentType, resultFrame); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong message type: %d, want 400", resp.StatusCode)
	}
	// Empty ME is invalid even though the frame is well-formed.
	noME := wire.AppendLeaseRequest(nil, wire.LeaseRequest{Max: 2})
	if resp := post("/v3/tasks/lease", wire.ContentType, noME); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing ME: %d, want 400", resp.StatusCode)
	}
	ghost := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: "ghost", Max: 2})
	if resp := post("/v3/tasks/lease", wire.ContentType, ghost); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ME: %d, want 404", resp.StatusCode)
	}
}

// TestV3LeaseClampsMax: a huge Max must not drain more than
// maxLeaseBatch tasks in one response.
func TestV3LeaseClampsMax(t *testing.T) {
	srv, ep, done := v3Testbed(t, "PAK")
	defer done()
	if err := ep.Register(); err != nil {
		t.Fatal(err)
	}
	batch := make([]Task, maxLeaseBatch+10)
	for i := range batch {
		batch[i] = Task{Kind: "dns", Config: "esim"}
	}
	if _, err := srv.ScheduleBatch("me-PAK", batch); err != nil {
		t.Fatal(err)
	}
	tasks, err := ep.Lease(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != maxLeaseBatch {
		t.Fatalf("leased %d tasks, want clamp at %d", len(tasks), maxLeaseBatch)
	}
}

// TestDetachPayloads pins the slab copy: detached payloads must not
// alias the original buffer.
func TestDetachPayloads(t *testing.T) {
	frame := wire.AppendResults(nil, []Result{
		{TaskID: 1, ME: "m", OK: true, Payload: []byte(`{"a":1}`)},
		{TaskID: 2, ME: "m", Error: "x"},
		{TaskID: 3, ME: "m", OK: true, Payload: []byte(`{"b":2}`)},
	})
	batch, err := wire.NewDecoder().Results(frame[wire.HeaderLen:], nil)
	if err != nil {
		t.Fatal(err)
	}
	detachPayloads(batch)
	for i := range frame {
		frame[i] = 0xee // scribble over the frame buffer
	}
	if string(batch[0].Payload) != `{"a":1}` || string(batch[2].Payload) != `{"b":2}` {
		t.Fatalf("payloads still alias the frame buffer: %q %q", batch[0].Payload, batch[2].Payload)
	}
	if batch[1].Payload != nil {
		t.Fatalf("empty payload grew bytes: %q", batch[1].Payload)
	}
}
