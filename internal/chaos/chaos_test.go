package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func countingServer(t *testing.T) (*httptest.Server, *struct {
	sync.Mutex
	bodies []string
}) {
	t.Helper()
	seen := &struct {
		sync.Mutex
		bodies []string
	}{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		seen.Lock()
		seen.bodies = append(seen.bodies, string(b))
		seen.Unlock()
		io.WriteString(w, `{"ok":true,"padding":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`)
	}))
	t.Cleanup(hs.Close)
	return hs, seen
}

// roundTrips drives n sequential requests through a chaos transport and
// classifies each outcome.
func roundTrips(t *testing.T, inj *Injector, hs *httptest.Server, n int) (ok, errs, decodeFail int) {
	t.Helper()
	rt := inj.Transport("me-X", 0, hs.Client().Transport)
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v3/results", strings.NewReader(`{"n":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rt.RoundTrip(req)
		if err != nil {
			errs++
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || len(body) == 0 {
			decodeFail++
			continue
		}
		ok++
	}
	return ok, errs, decodeFail
}

// TestTransportScheduleReplays pins the core determinism property: two
// injectors at the same seed produce identical fault schedules and
// identical per-request outcomes, request by request.
func TestTransportScheduleReplays(t *testing.T) {
	hs, _ := countingServer(t)
	cfg := Heavy()
	cfg.LatencyProb = 0 // keep the test fast; latency is timing-only anyway
	cfg.Crash = 0

	type outcome struct{ ok, errs, decodeFail int }
	var runs []outcome
	var traces []string
	for i := 0; i < 2; i++ {
		inj := NewInjector(42, cfg)
		ok, errs, decodeFail := roundTrips(t, inj, hs, 200)
		runs = append(runs, outcome{ok, errs, decodeFail})
		traces = append(traces, inj.TraceString())
	}
	if runs[0] != runs[1] {
		t.Errorf("outcomes differ across same-seed runs: %+v vs %+v", runs[0], runs[1])
	}
	if traces[0] != traces[1] {
		t.Errorf("fault traces differ across same-seed runs:\n%s\nvs\n%s", traces[0], traces[1])
	}
	if runs[0].errs == 0 || runs[0].decodeFail == 0 || runs[0].ok == 0 {
		t.Errorf("heavy config should produce a mix of outcomes, got %+v", runs[0])
	}
	// A different seed must yield a different schedule.
	other := NewInjector(43, cfg)
	roundTrips(t, other, hs, 200)
	if other.TraceString() == traces[0] {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestTransportDuplicateDelivery: a duplicated request reaches the
// server twice but the caller sees a single (second) response.
func TestTransportDuplicateDelivery(t *testing.T) {
	hs, seen := countingServer(t)
	cfg := Config{Duplicate: 1} // every request duplicated
	inj := NewInjector(1, cfg)
	ok, errs, decodeFail := roundTrips(t, inj, hs, 3)
	if ok != 3 || errs != 0 || decodeFail != 0 {
		t.Fatalf("outcomes = ok %d errs %d decode %d, want all ok", ok, errs, decodeFail)
	}
	seen.Lock()
	defer seen.Unlock()
	if len(seen.bodies) != 6 {
		t.Fatalf("server saw %d requests, want 6 (3 duplicated)", len(seen.bodies))
	}
	for _, b := range seen.bodies {
		if b != `{"n":1}` {
			t.Errorf("request body corrupted on resend: %q", b)
		}
	}
}

// TestTransportResetBeforeNeverReachesServer: reset-before faults must
// fail the request without any server-side effect.
func TestTransportResetBeforeNeverReachesServer(t *testing.T) {
	hs, seen := countingServer(t)
	inj := NewInjector(1, Config{ResetBefore: 1})
	_, errs, _ := roundTrips(t, inj, hs, 3)
	if errs != 3 {
		t.Fatalf("errs = %d, want 3", errs)
	}
	seen.Lock()
	defer seen.Unlock()
	if len(seen.bodies) != 0 {
		t.Fatalf("server saw %d requests, want 0", len(seen.bodies))
	}
}

// TestTransportResetAfterReachesServer: reset-after faults fail the
// request AFTER the server processed it — the half-open failure that
// forces idempotency.
func TestTransportResetAfterReachesServer(t *testing.T) {
	hs, seen := countingServer(t)
	inj := NewInjector(1, Config{ResetAfter: 1})
	_, errs, _ := roundTrips(t, inj, hs, 3)
	if errs != 3 {
		t.Fatalf("errs = %d, want 3", errs)
	}
	seen.Lock()
	defer seen.Unlock()
	if len(seen.bodies) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(seen.bodies))
	}
}

// TestTransportTruncationFailsDecode: truncated bodies end in
// ErrUnexpectedEOF, never a silent short read.
func TestTransportTruncationFailsDecode(t *testing.T) {
	hs, _ := countingServer(t)
	inj := NewInjector(1, Config{Truncate: 1})
	rt := inj.Transport("me-X", 0, hs.Client().Transport)
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v3/tasks/lease", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestMaybeCrashBudgetAndDeterminism: crash decisions replay for a
// given seed and never exceed the per-ME cap.
func TestMaybeCrashBudgetAndDeterminism(t *testing.T) {
	cfg := Config{Crash: 0.5, MaxCrashes: 2}
	draw := func() (crashes int, pattern []bool) {
		inj := NewInjector(77, cfg)
		for round := 0; round < 40; round++ {
			c := inj.MaybeCrash("me-A", 0, round)
			pattern = append(pattern, c)
			if c {
				crashes++
			}
		}
		return crashes, pattern
	}
	c1, p1 := draw()
	c2, p2 := draw()
	if c1 != c2 {
		t.Fatalf("crash counts differ: %d vs %d", c1, c2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("crash pattern diverges at round %d", i)
		}
	}
	if c1 > cfg.MaxCrashes {
		t.Errorf("crashes = %d exceeds cap %d", c1, cfg.MaxCrashes)
	}
	if c1 == 0 {
		t.Error("P=0.5 over 40 rounds crashed zero times; stream looks broken")
	}
}

// TestMiddlewareSparesUnmarkedTraffic: requests without the ME header
// (admin, operators) are never stormed, even at 100% storm rates.
func TestMiddlewareSparesUnmarkedTraffic(t *testing.T) {
	inj := NewInjector(1, Config{Err5xx: 1})
	var reached int
	h := inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached++
		w.WriteHeader(http.StatusNoContent)
	}))
	// Unmarked request passes through.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/schedule", nil))
	if rec.Code != http.StatusNoContent || reached != 1 {
		t.Fatalf("unmarked request: code %d reached %d", rec.Code, reached)
	}
	// Marked request storms with Retry-After, before the handler runs.
	req := httptest.NewRequest(http.MethodPost, "/v3/results", nil)
	req.Header.Set(MEHeader, "me-A")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || reached != 1 {
		t.Fatalf("marked request: code %d reached %d", rec.Code, reached)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("storm response missing Retry-After")
	}
}

// TestLatencySpikeRespectsContext: a latency spike must not outlive the
// request's context (the straggler watchdog depends on this).
func TestLatencySpikeRespectsContext(t *testing.T) {
	hs, _ := countingServer(t)
	inj := NewInjector(1, Config{LatencyProb: 1, LatencyMin: time.Hour, LatencyMax: 2 * time.Hour})
	rt := inj.Transport("me-X", 0, hs.Client().Transport)
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/x", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rt.RoundTrip(req.WithContext(ctx))
	if err == nil {
		t.Fatal("spiked request returned without error despite cancelled context")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
