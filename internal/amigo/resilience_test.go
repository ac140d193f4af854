package amigo

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roamsim/internal/wire"
)

// TestLeaseAckRedeliversUnacked pins the at-least-once lease contract:
// a batch stays outstanding until the next lease acknowledges it, so a
// lease response lost in flight is re-delivered rather than dropped.
func TestLeaseAckRedeliversUnacked(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("me", "PAK")
	ids, err := srv.ScheduleBatch("me", []Task{
		{Kind: "dns", Config: "esim"}, {Kind: "dns", Config: "esim"}, {Kind: "dns", Config: "esim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := srv.Lease("me", 2, 0, nil)
	if err != nil || len(first) != 2 {
		t.Fatalf("first lease = %v, %v", first, err)
	}
	// The "client" never saw the response: leasing again without an ack
	// must re-deliver the same two tasks, not advance the queue.
	again, err := srv.Lease("me", 2, 0, nil)
	if err != nil || len(again) != 2 || again[0].ID != first[0].ID || again[1].ID != first[1].ID {
		t.Fatalf("unacked release = %v, %v; want redelivery of %v", again, err, first)
	}
	// Acking the batch retires it and hands out fresh work.
	next, err := srv.Lease("me", 2, first[1].ID, nil)
	if err != nil || len(next) != 1 || next[0].ID != ids[2] {
		t.Fatalf("acked lease = %v, %v; want [%d]", next, err, ids[2])
	}
	// Ack the tail; the queue is drained.
	empty, err := srv.Lease("me", 2, next[0].ID, nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("drained lease = %v, %v", empty, err)
	}
}

// TestRequeueRestoresFullSchedule pins the crash-replay contract: after
// any mix of acked, outstanding, and queued tasks, Requeue restores the
// ME's entire schedule with its ORIGINAL task IDs in original order, so
// a restarted ME replays from the top and idempotency keys line up.
func TestRequeueRestoresFullSchedule(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("me", "PAK")
	var tasks []Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, Task{Kind: "dns", Config: "esim"})
	}
	ids, err := srv.ScheduleBatch("me", tasks)
	if err != nil {
		t.Fatal(err)
	}
	// Batch 1 leased and acked (done); batch 2 leased, never acked
	// (outstanding); the rest still queued. Then the ME "crashes".
	b1, _ := srv.Lease("me", 2, 0, nil)
	b2, _ := srv.Lease("me", 2, b1[1].ID, nil)
	if len(b1) != 2 || len(b2) != 2 {
		t.Fatalf("setup leases: %v / %v", b1, b2)
	}
	// 4 tasks had been delivered (2 acked + 2 outstanding); those are
	// what Requeue restores ahead of the 2 never-delivered ones.
	n, err := srv.Requeue("me")
	if err != nil || n != 4 {
		t.Fatalf("Requeue = %d, %v; want 4", n, err)
	}
	replay, err := srv.Lease("me", 10, 0, nil)
	if err != nil || len(replay) != 6 {
		t.Fatalf("replay lease = %v, %v", replay, err)
	}
	for i, task := range replay {
		if task.ID != ids[i] {
			t.Fatalf("replay[%d].ID = %d, want original %d", i, task.ID, ids[i])
		}
	}
	// Requeue for an unknown ME is an error; repeating it for a known
	// ME is harmless (the restart path may race a watchdog restart).
	if _, err := srv.Requeue("ghost"); err == nil {
		t.Error("Requeue(ghost) succeeded, want error")
	}
	if _, err := srv.Requeue("me"); err != nil {
		t.Errorf("second Requeue: %v", err)
	}
}

// TestSubmitKeyedDedup pins upload idempotency: a batch resent under
// the same Idempotency-Key is dropped, distinct keys both land, and an
// empty key keeps the legacy non-idempotent behavior.
func TestSubmitKeyedDedup(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("me", "PAK")
	batch := []Result{{TaskID: 1, ME: "me", Kind: "dns", Config: "esim", OK: true}}
	for i := 0; i < 3; i++ { // original + two replays
		if err := srv.SubmitKeyed("k1", batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(srv.Results()); got != 1 {
		t.Fatalf("results after keyed replays = %d, want 1", got)
	}
	if err := srv.SubmitKeyed("k2", batch); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Results()); got != 2 {
		t.Fatalf("results after distinct key = %d, want 2", got)
	}
	srv.SubmitKeyed("", batch)
	srv.SubmitKeyed("", batch)
	if got := len(srv.Results()); got != 4 {
		t.Fatalf("results after unkeyed submits = %d, want 4", got)
	}
}

// TestUploadRetryAfterClamped pins satellite #1: the endpoint must not
// blindly trust a server-sent Retry-After. A hostile 3600s hint is
// clamped to the backoff policy's Max, and the upload errors out after
// MaxAttempts instead of spinning forever.
func TestUploadRetryAfterClamped(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer hs.Close()
	ep := &Endpoint{Name: "me", BaseURL: hs.URL, Client: hs.Client(),
		Retry: Backoff{MaxAttempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond}}
	start := time.Now()
	err := ep.Upload([]Result{{TaskID: 1, ME: "me", Kind: "dns", OK: true}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Upload succeeded against an always-429 server")
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Errorf("error = %v, want attempt-budget failure", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	// Two sleeps, each clamped to <= 5ms (plus jitterless slack): if the
	// 3600s hint had been honoured this would take hours.
	if elapsed > 2*time.Second {
		t.Errorf("upload took %v; Retry-After was not clamped", elapsed)
	}
}

// TestPostRetriesTransient5xx: control-plane posts ride the same
// backoff policy, so a server that fails twice and then recovers does
// not fail the campaign.
func TestPostRetriesTransient5xx(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hs.Close()
	ep := &Endpoint{Name: "me", BaseURL: hs.URL, Client: hs.Client(),
		Retry: Backoff{MaxAttempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond}}
	if err := ep.post("/v1/register", map[string]string{"me": "me"}); err != nil {
		t.Fatalf("post after transient 5xx: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	// A permanent client error must NOT be retried.
	hits.Store(100)
	if err := ep.post("/v1/register", map[string]string{"me": "me"}); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
}

// TestBackoffDelayClamp unit-tests the schedule: exponential growth,
// the Max cap, and hint clamping.
func TestBackoffDelayClamp(t *testing.T) {
	b := Backoff{MaxAttempts: 10, Base: 25 * time.Millisecond, Max: 2 * time.Second}.withDefaults()
	cases := []struct {
		attempt int
		hint    time.Duration
		want    time.Duration
	}{
		{0, 0, 25 * time.Millisecond},
		{1, 0, 50 * time.Millisecond},
		{3, 0, 200 * time.Millisecond},
		{20, 0, 2 * time.Second},                            // exponential overflow capped
		{0, time.Hour, 2 * time.Second},                     // hostile hint clamped
		{5, 100 * time.Millisecond, 100 * time.Millisecond}, // sane hint honoured
	}
	for _, c := range cases {
		if got := b.delay(c.attempt, c.hint); got != c.want {
			t.Errorf("delay(%d, %v) = %v, want %v", c.attempt, c.hint, got, c.want)
		}
	}
}

// TestParseLeaseRequest covers the lease decode-and-normalize step
// (readLeaseRequest) the fuzz target explores: clamping, missing
// fields, out-of-range integers, frames of the wrong type, garbage.
func TestParseLeaseRequest(t *testing.T) {
	frame := func(req wire.LeaseRequest) []byte { return wire.AppendLeaseRequest(nil, req) }
	cases := []struct {
		name    string
		body    []byte
		wantErr bool
		wantMax int
		wantAck int
	}{
		{"normal", frame(wire.LeaseRequest{ME: "m", Max: 8, Ack: 3}), false, 8, 3},
		{"missing me", frame(wire.LeaseRequest{Max: 8}), true, 0, 0},
		{"zero max clamped", frame(wire.LeaseRequest{ME: "m"}), false, 1, 0},
		{"huge max clamped", frame(wire.LeaseRequest{ME: "m", Max: 99999}), false, maxLeaseBatch, 0},
		// A negative int encodes as a uvarint past MaxInt64, which the
		// decoder rejects rather than wrapping.
		{"negative max rejected", frame(wire.LeaseRequest{ME: "m", Max: -5}), true, 0, 0},
		{"negative ack rejected", frame(wire.LeaseRequest{ME: "m", Max: 1, Ack: -7}), true, 0, 0},
		{"wrong frame type", wire.AppendResults(nil, []Result{{TaskID: 1, ME: "m"}}), true, 0, 0},
		{"garbage", []byte("XX garbage"), true, 0, 0},
		{"empty", nil, true, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf []byte
			req, err := readLeaseRequest(bytes.NewReader(c.body), &buf)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, c.wantErr)
			}
			if err != nil {
				return
			}
			if req.ME != "m" || req.Max != c.wantMax || req.Ack != c.wantAck {
				t.Errorf("parsed = %+v, want me=m max=%d ack=%d", req, c.wantMax, c.wantAck)
			}
		})
	}
}

// TestRequeueNeedsSchedule pins the shard-replacement guard: Requeue
// restores nothing for an ME this server registered but never
// scheduled — it errors, and over HTTP the endpoint sees ErrUnknownME —
// while an ME scheduled with an empty batch still requeues cleanly.
func TestRequeueNeedsSchedule(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("fresh", "PAK")
	if n, err := srv.Requeue("fresh"); err == nil {
		t.Fatalf("Requeue of a never-scheduled ME = %d, nil; want error", n)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ep := &Endpoint{Name: "fresh", BaseURL: hs.URL, Client: hs.Client()}
	if err := ep.Redeliver(); !errors.Is(err, ErrUnknownME) {
		t.Fatalf("Redeliver against a never-scheduled ME = %v, want ErrUnknownME", err)
	}
	srv.Register("empty", "PAK")
	if _, err := srv.ScheduleBatch("empty", nil); err != nil {
		t.Fatal(err)
	}
	if n, err := srv.Requeue("empty"); err != nil || n != 0 {
		t.Fatalf("Requeue after an empty schedule = %d, %v; want 0, nil", n, err)
	}
}

// TestEndpointLeaseSurvivesLostResponse drives the full client path: a
// proxy that drops the first lease response mid-body forces the
// endpoint's decode-failure retry, which must land the same batch.
func TestEndpointLeaseSurvivesLostResponse(t *testing.T) {
	srv := NewServer(nil)
	inner := srv.Handler()
	var leases atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v3/tasks/lease" && leases.Add(1) == 1 {
			// Claim a body is coming, send half the frame, cut it off.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.WriteHeader(rec.Code)
			w.Write(body[:len(body)/2])
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()
	srv.Register("me", "PAK")
	ids, err := srv.ScheduleBatch("me", []Task{
		{Kind: "dns", Config: "esim"}, {Kind: "dns", Config: "esim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := &Endpoint{Name: "me", BaseURL: hs.URL, Client: hs.Client(),
		Retry: Backoff{MaxAttempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond}}
	tasks, err := ep.Lease(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[0].ID != ids[0] || tasks[1].ID != ids[1] {
		t.Fatalf("leased %v, want original %v", tasks, ids)
	}
	if leases.Load() < 2 {
		t.Error("lease was not retried after the truncated response")
	}
}
