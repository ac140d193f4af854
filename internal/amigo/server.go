// Package amigo reimplements the AmiGo testbed the paper extended: a
// control server that manages remote measurement endpoints (MEs) over a
// REST API, and the ME client that reports device vitals, fetches
// instrumentation, and uploads results.
//
// The paper's MEs were rooted Samsung S21+ phones running termux; here
// the ME drives sessions of the simulated world instead of a radio, but
// the control-plane protocol — register, heartbeat with vitals, poll for
// tasks, upload observations — is the same shape, over real HTTP.
//
// # Protocol
//
// Register, heartbeat and crash recovery are JSON, one call per ME
// lifetime event:
//
//	POST /v1/register      {"me": ..., "country": ...} -> 204
//	POST /v1/status        {"me": ..., "vitals": {...}} -> 204 (heartbeat)
//	POST /v2/tasks/requeue {"me": ...}                  -> 204 (404 if never scheduled here)
//
// Leasing tasks and uploading results — the per-batch hot path — are
// internal/wire binary frames (see server_v3.go and DESIGN.md "v3 wire
// format"). An ME leases up to K tasks in one round trip and uploads
// their results as one batch:
//
//	POST /v3/tasks/lease   MsgLeaseRequest frame -> MsgTasks frame (204 if none)
//	POST /v3/results       MsgResults frame      -> 204, or 429 + Retry-After
//
// Frames must carry Content-Type application/vnd.amigo.v3 (else 415).
// The path prefixes are historical: v1 one-task polling and v2 JSON
// batches once had lease/upload routes of their own, and the surviving
// JSON routes kept their paths.
//
// Delivery is at-least-once and loss-tolerant: a lease's Ack
// acknowledges every previously delivered task ID <= Ack, and unacked
// deliveries are re-sent before fresh work is popped, so a lease
// response lost or truncated on a flaky link is simply re-fetched
// (Lease). A crashed ME calls /v2/tasks/requeue after re-registering
// to get its entire schedule back, original task IDs included; a
// server that never scheduled the ME — a replacement for a killed
// shard — answers 404 instead, so the ME re-schedules rather than
// draining nothing. Uploads may carry an Idempotency-Key header; a
// batch whose key was already accepted is dropped server-side
// (SubmitKeyed), so retried and duplicated uploads never double-count
// results.
//
// # Backpressure
//
// Uploaded results flow through a bounded spool into a pluggable Sink
// (MemorySink by default, which retains results for Results /
// ResultsSince). An upload returns only after its batch has reached the
// sink, so Results() observed after a 2xx upload always includes it.
// When the sink cannot keep up and the spool is full, uploads are shed
// with HTTP 429 and a Retry-After hint instead of growing memory without
// bound.
//
// The ME registry is sharded by endpoint name, so registration,
// heartbeats, leases and scheduling for different MEs do not contend on
// one mutex at fleet scale.
package amigo

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

// Vitals are the device-health metrics an ME reports with heartbeats.
type Vitals struct {
	Battery  float64 `json:"battery"`   // 0..1
	RSSI     float64 `json:"rssi"`      // dBm
	SNR      float64 `json:"snr"`       // dB
	CQI      int     `json:"cqi"`       //
	RAT      string  `json:"rat"`       // "4G" / "5G"
	ActiveID string  `json:"active_id"` // active SIM profile ("sim"/"esim")
}

// Task is one instrumentation command for an ME. The struct lives in
// internal/wire (aliased here) so the binary codec and the JSON admin
// routes share one canonical definition.
type Task = wire.Task

// Result is an uploaded observation (canonical struct in
// internal/wire, see Task).
type Result = wire.Result

// ErrSpoolFull is returned by Submit when the bounded result spool has
// no room for a batch; HTTP handlers translate it to 429 + Retry-After.
var ErrSpoolFull = errors.New("amigo: result spool full")

// meState tracks one registered endpoint.
type meState struct {
	Country    string
	LastVitals Vitals
	LastSeen   time.Time
	queue      []Task
	// outstanding are tasks Lease delivered that the ME has not
	// acknowledged yet. A lease whose response was lost on the wire is
	// retried with an unchanged ack, and the server re-delivers these
	// instead of popping fresh work — so a flaky link can cost round
	// trips but never lose tasks.
	outstanding []Task
	// done are acknowledged deliveries, retained so Requeue can restore
	// a crashed ME's entire schedule in original ID order.
	done []Task
	// scheduled records that this server accepted a schedule for the ME
	// (possibly an empty one). Registration alone does not set it, so
	// Requeue can tell a crashed ME's history from a fresh server that
	// never held its schedule.
	scheduled bool
}

// registryShard holds a slice of the ME registry under its own lock.
type registryShard struct {
	mu  sync.Mutex
	mes map[string]*meState // guarded by mu
}

const (
	defaultShardCount = 16
	defaultSpoolCap   = 8192
)

// Server is the AmiGo control server.
type Server struct {
	shards []registryShard
	nextID atomic.Int64
	clock  func() time.Time

	retryAfter time.Duration

	spoolMu  sync.Mutex
	spool    []Result // guarded by spoolMu
	spoolCap int

	drainMu sync.Mutex
	sink    Sink
	cur     CursorSink // nil when the sink supports no cursor reads

	idemMu   sync.Mutex
	idemSeen map[string]struct{} // guarded by idemMu

	// obs is the optional metrics/trace registry (see WithObs). All
	// metric handles below are nil-safe no-ops when obs is nil, so the
	// serving path carries no "is observability enabled" branches.
	obs *obs.Registry
	met serverMetrics
}

// serverMetrics are the control-plane counters, created once at
// construction so the request path touches only atomics (never the
// registry lock).
type serverMetrics struct {
	scheduled     *obs.Counter // tasks queued via Schedule/ScheduleBatch
	leased        *obs.Counter // fresh task deliveries
	redelivered   *obs.Counter // unacked tasks re-sent after a lost response
	acked         *obs.Counter // tasks retired by a lease ack
	requeued      *obs.Counter // tasks restored by /v2/tasks/requeue
	submitted     *obs.Counter // results accepted into the spool
	dedupDropped  *obs.Counter // duplicate idempotency-key batches dropped
	spoolRejected *obs.Counter // batches shed with 429 (spool full)
	encodeErrors  *obs.Counter // response encode/write failures (client gone mid-response)
}

// Option configures a Server.
type Option func(*Server)

// WithSink replaces the default MemorySink. The server itself retains
// nothing: Results / ResultsSince / Cursor are served by the sink when
// it implements CursorSink (MemorySink and walsink.Sink do), and the
// admin results route answers 501 when it does not — a write-only sink
// is a configuration the operator should see, not an empty page.
func WithSink(sink Sink) Option {
	return func(s *Server) {
		s.sink = sink
		s.cur, _ = sink.(CursorSink)
	}
}

// WithSpoolCapacity bounds the result spool (default 8192 results).
func WithSpoolCapacity(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.spoolCap = n
		}
	}
}

// WithShardCount sets the ME registry shard count (default 16).
func WithShardCount(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.shards = make([]registryShard, n)
		}
	}
}

// WithRetryAfter sets the Retry-After hint sent with 429 responses
// (default 1s; rounded up to whole seconds on the wire).
func WithRetryAfter(d time.Duration) Option {
	return func(s *Server) { s.retryAfter = d }
}

// WithObs attaches a metrics/trace registry: per-route request counts
// and latency histograms, lease/ack/redelivery/dedup counters, and
// spool gauges are recorded into it, and AdminHandler serves it at
// GET /admin/metrics (Prometheus text format) and GET /admin/trace.
// Without it the server collects nothing and the admin routes serve an
// empty exposition. Instrumentation is off the hot path — counters are
// single atomics created up front — and never perturbs determinism:
// campaign datasets are byte-identical with metrics on or off.
func WithObs(reg *obs.Registry) Option {
	return func(s *Server) { s.obs = reg }
}

// NewServer returns a control server. clock may be nil (wall clock).
func NewServer(clock func() time.Time, opts ...Option) *Server {
	if clock == nil {
		clock = time.Now
	}
	mem := NewMemorySink()
	s := &Server{
		shards:     make([]registryShard, defaultShardCount),
		clock:      clock,
		retryAfter: time.Second,
		spoolCap:   defaultSpoolCap,
		sink:       mem,
		cur:        mem,
		idemSeen:   map[string]struct{}{},
	}
	for _, opt := range opts {
		opt(s)
	}
	for i := range s.shards {
		//lint:allow guardedfield constructor: the server is not shared until New returns
		s.shards[i].mes = map[string]*meState{}
	}
	s.initObs()
	return s
}

// initObs creates the metric handles (nil no-ops when no registry is
// attached) and registers the liveness gauges.
func (s *Server) initObs() {
	s.met = serverMetrics{
		scheduled:     s.obs.Counter("amigo_server_tasks_scheduled_total"),
		leased:        s.obs.Counter("amigo_server_leased_tasks_total"),
		redelivered:   s.obs.Counter("amigo_server_redelivered_tasks_total"),
		acked:         s.obs.Counter("amigo_server_acked_tasks_total"),
		requeued:      s.obs.Counter("amigo_server_requeued_tasks_total"),
		submitted:     s.obs.Counter("amigo_server_results_submitted_total"),
		dedupDropped:  s.obs.Counter("amigo_server_dedup_dropped_batches_total"),
		spoolRejected: s.obs.Counter("amigo_server_spool_rejections_total"),
		encodeErrors:  s.obs.Counter("amigo_server_response_encode_errors_total"),
	}
	s.obs.GaugeFunc("amigo_server_spool_depth", func() float64 { return float64(s.SpoolDepth()) })
	s.obs.GaugeFunc("amigo_server_registered_mes", func() float64 { return float64(len(s.MEs())) })
}

func (s *Server) shardFor(me string) *registryShard {
	h := fnv.New32a()
	h.Write([]byte(me))
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Register creates (or refreshes) an ME registration.
func (s *Server) Register(me, country string) {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.mes[me]; !ok {
		sh.mes[me] = &meState{Country: country}
	}
	sh.mes[me].LastSeen = s.clock()
}

// Schedule queues a task for the named ME and returns its ID.
func (s *Server) Schedule(me string, task Task) (int, error) {
	ids, err := s.ScheduleBatch(me, []Task{task})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// ScheduleBatch queues tasks for the named ME in order and returns their
// IDs. Tasks with ID 0 get fresh server-assigned IDs (globally unique,
// monotonically increasing per ME); a task carrying a positive ID keeps
// it, and the allocator advances past it so later fresh IDs never
// collide. Pre-set IDs are how the fleet driver re-schedules an ME on a
// replacement control shard after a crash: the re-executed tasks upload
// under their original (ME, task ID), so ingest dedup absorbs the
// replay instead of double-counting it.
func (s *Server) ScheduleBatch(me string, tasks []Task) ([]int, error) {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		return nil, fmt.Errorf("amigo: unknown ME %q", me)
	}
	ids := make([]int, len(tasks))
	for i, t := range tasks {
		if t.ID > 0 {
			s.reserveID(int64(t.ID))
		} else {
			t.ID = int(s.nextID.Add(1))
		}
		st.queue = append(st.queue, t)
		ids[i] = t.ID
	}
	st.scheduled = true
	s.met.scheduled.Add(int64(len(tasks)))
	return ids, nil
}

// reserveID advances the ID allocator to at least id, so explicitly
// scheduled IDs and fresh ones never collide.
func (s *Server) reserveID(id int64) {
	for {
		cur := s.nextID.Load()
		if cur >= id || s.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Lease is the at-least-once lease: ack acknowledges every previously
// delivered task with ID <= ack, and any still-unacked deliveries are
// re-sent (in the original order) before up to max fresh tasks are
// popped. A client that lost a lease response simply retries with its
// unchanged ack and receives the same tasks again, so response loss or
// truncation never drops scheduled work. ack 0 (a fresh client)
// acknowledges nothing. The tasks are appended onto dst (nil is fine):
// the frame handler passes a pooled slice re-sliced to [:0], so the
// steady-state lease copies into recycled capacity instead of
// allocating per response. It errors when the ME is unknown.
func (s *Server) Lease(me string, max, ack int, dst []Task) ([]Task, error) {
	if max < 1 {
		max = 1
	}
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		return dst, fmt.Errorf("amigo: unknown ME %q", me)
	}
	// Retire acknowledged deliveries into the done log (kept for Requeue).
	for len(st.outstanding) > 0 && st.outstanding[0].ID <= ack {
		st.done = append(st.done, st.outstanding[0])
		st.outstanding = st.outstanding[1:]
		s.met.acked.Add(1)
	}
	if len(st.outstanding) > 0 {
		// Unacked deliveries: the previous response was lost — re-deliver.
		n := min(max, len(st.outstanding))
		s.met.redelivered.Add(int64(n))
		return append(dst, st.outstanding[:n]...), nil
	}
	n := min(max, len(st.queue))
	dst = append(dst, st.queue[:n]...)
	st.outstanding = append(st.outstanding, st.queue[:n]...)
	st.queue = st.queue[n:]
	if len(st.queue) == 0 {
		st.queue = nil
	}
	s.met.leased.Add(int64(n))
	return dst, nil
}

// Requeue restores the ME's full schedule — acknowledged, outstanding
// and undelivered tasks, in original ID order — to the head of its
// queue. It is how a crashed-and-restarted ME gets its work re-delivered
// with the original task IDs (so replayed uploads dedup instead of
// duplicating). Requeue is idempotent: a second call with nothing
// delivered since is a no-op. It returns how many tasks were restored.
//
// It errors for an ME this server never scheduled, registered or not:
// a replacement server for a killed shard accepts the crashed ME's
// re-registration, but holds none of its schedule, and restoring
// "nothing" would let the ME report a clean drain with its remaining
// tasks lost. The error (404 on the wire) sends the ME down the
// re-schedule path instead.
func (s *Server) Requeue(me string) (int, error) {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		return 0, fmt.Errorf("amigo: unknown ME %q", me)
	}
	if !st.scheduled {
		return 0, fmt.Errorf("amigo: ME %q holds no schedule on this server", me)
	}
	restored := len(st.done) + len(st.outstanding)
	if restored == 0 {
		return 0, nil
	}
	q := make([]Task, 0, restored+len(st.queue))
	q = append(q, st.done...)
	q = append(q, st.outstanding...)
	q = append(q, st.queue...)
	st.queue = q
	st.done, st.outstanding = nil, nil
	s.met.requeued.Add(int64(restored))
	s.obs.Trace().Record("requeue", obs.L("me", me), obs.L("restored", strconv.Itoa(restored)))
	return restored, nil
}

// Submit stamps a batch with the server clock and routes it through the
// bounded spool into the sink. It returns ErrSpoolFull when the spool
// cannot absorb the batch; otherwise it returns only after the batch has
// reached the sink, so a subsequent Results call observes it.
func (s *Server) Submit(batch []Result) error {
	if len(batch) == 0 {
		return nil
	}
	now := s.clock()
	stamped := make([]Result, len(batch))
	copy(stamped, batch)
	for i := range stamped {
		stamped[i].Uploaded = now
	}
	s.spoolMu.Lock()
	if len(s.spool)+len(stamped) > s.spoolCap {
		s.spoolMu.Unlock()
		s.met.spoolRejected.Add(1)
		s.obs.Trace().Record("spool-full", obs.L("batch", strconv.Itoa(len(stamped))))
		return ErrSpoolFull
	}
	s.spool = append(s.spool, stamped...)
	s.spoolMu.Unlock()
	s.drain()
	s.met.submitted.Add(int64(len(stamped)))
	return nil
}

// SubmitKeyed is Submit with at-most-once semantics: a batch whose
// idempotency key was already accepted is dropped silently (the first
// copy is durable by the time its key is recorded, so read-your-writes
// still holds for the duplicate's 2xx). Keys are recorded only on
// success — a batch shed with ErrSpoolFull may retry under the same key.
// An empty key degrades to plain Submit. Uploads for one ME are
// sequential in every supported client, so the check-then-record window
// is not raced in practice; a pathological concurrent duplicate would
// merely double-submit, which Ingest's (ME, task ID) dedup absorbs.
func (s *Server) SubmitKeyed(key string, batch []Result) error {
	if key == "" {
		return s.Submit(batch)
	}
	s.idemMu.Lock()
	_, dup := s.idemSeen[key]
	s.idemMu.Unlock()
	if dup {
		s.met.dedupDropped.Add(1)
		return nil
	}
	if err := s.Submit(batch); err != nil {
		return err
	}
	s.idemMu.Lock()
	s.idemSeen[key] = struct{}{}
	s.idemMu.Unlock()
	return nil
}

// drain moves spooled results into the sink. Sink writes are serialized
// under drainMu; a submitter whose batch was claimed by a concurrent
// drainer blocks here until that drainer has sunk it, preserving
// read-your-writes for uploads.
func (s *Server) drain() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	for {
		s.spoolMu.Lock()
		batch := s.spool
		s.spool = nil
		s.spoolMu.Unlock()
		if len(batch) == 0 {
			return
		}
		s.sink.Append(batch)
	}
}

// SpoolDepth reports how many results are parked in the spool awaiting
// the sink — a liveness metric; nonzero values mean the sink is behind.
func (s *Server) SpoolDepth() int {
	s.spoolMu.Lock()
	defer s.spoolMu.Unlock()
	return len(s.spool)
}

// Results returns a copy of every retained result. It pages through
// ResultsSince because a disk-backed CursorSink may serve bounded pages
// rather than the whole history in one call.
func (s *Server) Results() []Result {
	var out []Result
	cursor := 0
	for {
		rs, next := s.ResultsSince(cursor)
		if len(rs) == 0 || next <= cursor {
			return out
		}
		out = append(out, rs...)
		cursor = next
	}
}

// ResultsSince returns the retained results at positions >= cursor and
// the cursor one past the last returned result (which may trail the
// newest: a disk-backed sink serves bounded pages — loop until the
// cursor stops advancing). It returns nothing when the installed sink
// is not a CursorSink; HTTP callers get 501 instead (SupportsCursor).
func (s *Server) ResultsSince(cursor int) ([]Result, int) {
	if s.cur == nil {
		return nil, 0
	}
	return s.cur.Since(cursor)
}

// Cursor returns the current result cursor (see ResultsSince).
func (s *Server) Cursor() int {
	if s.cur == nil {
		return 0
	}
	return s.cur.Len()
}

// SupportsCursor reports whether the installed sink can serve cursor
// reads (Results / ResultsSince / GET /admin/results).
func (s *Server) SupportsCursor() bool { return s.cur != nil }

// MEs lists registered endpoints, sorted.
func (s *Server) MEs() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for name := range sh.mes {
			out = append(out, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Vitals returns the last-reported vitals for an ME.
func (s *Server) Vitals(me string) (Vitals, bool) {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		return Vitals{}, false
	}
	return st.LastVitals, true
}

// rejectBusy writes the 429 + Retry-After backpressure response.
func (s *Server) rejectBusy(w http.ResponseWriter) {
	secs := 0
	if s.retryAfter > 0 {
		secs = int(math.Ceil(s.retryAfter.Seconds()))
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "result spool full", http.StatusTooManyRequests)
}

// writeJSON encodes v as the JSON response body. Encode failures here
// mean the client vanished mid-response (the headers are already out,
// so no status change is possible); they were previously dropped on
// the floor — now they count, so a fleet tearing connections down
// mid-read is visible in /admin/metrics instead of silent.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.met.encodeErrors.Add(1)
	}
}

// atoiParam parses an optional integer query parameter: empty means 0,
// anything else must be a well-formed integer.
func atoiParam(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	return strconv.Atoi(raw)
}

// writeFrame writes an encoded v3 frame, counting short/failed writes
// like writeJSON counts encode failures.
func (s *Server) writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	if _, err := w.Write(frame); err != nil {
		s.met.encodeErrors.Add(1)
	}
}

// statusWriter captures the response status code for route metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// statusClass buckets a status code for the request counter. 429 gets
// its own class — it is the backpressure signal, not a generic client
// error — and everything else collapses to a class to bound cardinality.
func statusClass(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "429"
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// requestClasses are the pre-created status classes per route.
var requestClasses = []string{"2xx", "3xx", "4xx", "429", "5xx"}

// instrument registers a route with per-route request counters and a
// latency histogram. All handles are created here, at mux construction,
// so the request path adds one clock read, one atomic counter bump and
// one histogram shard lock. With no registry attached the handler is
// registered bare.
func (s *Server) instrument(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	if s.obs == nil {
		mux.HandleFunc(pattern, h)
		return
	}
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	byClass := make(map[string]*obs.Counter, len(requestClasses))
	for _, class := range requestClasses {
		byClass[class] = s.obs.Counter("amigo_server_requests_total",
			obs.L("route", route), obs.L("class", class))
	}
	dur := s.obs.Histogram("amigo_server_request_duration_ms", obs.L("route", route))
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		dur.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		code := sw.code
		if code == 0 {
			code = http.StatusOK // handler wrote nothing: implicit 200
		}
		byClass[statusClass(code)].Add(1)
	})
}

// Handler exposes the measurement-endpoint API: the JSON register,
// status and requeue routes and the v3 frame lease/upload routes (see
// the package comment).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.instrument(mux, "POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ME      string `json:"me"`
			Country string `json:"country"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.ME == "" {
			http.Error(w, "bad register", http.StatusBadRequest)
			return
		}
		s.Register(req.ME, req.Country)
		w.WriteHeader(http.StatusNoContent)
	})
	s.instrument(mux, "POST /v1/status", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ME     string `json:"me"`
			Vitals Vitals `json:"vitals"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad status", http.StatusBadRequest)
			return
		}
		sh := s.shardFor(req.ME)
		sh.mu.Lock()
		st, ok := sh.mes[req.ME]
		if ok {
			st.LastVitals = req.Vitals
			st.LastSeen = s.clock()
		}
		sh.mu.Unlock()
		if !ok {
			http.Error(w, "unknown me", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	s.instrument(mux, "POST /v2/tasks/requeue", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ME string `json:"me"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.ME == "" {
			http.Error(w, "bad requeue", http.StatusBadRequest)
			return
		}
		if _, err := s.Requeue(req.ME); err != nil {
			http.Error(w, "unknown me", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	s.instrument(mux, "POST /v3/tasks/lease", s.handleV3Lease)
	s.instrument(mux, "POST /v3/results", s.handleV3Results)
	return mux
}

// maxLeaseBatch bounds how many tasks one lease round trip may
// request, so a malformed or hostile client cannot drain an entire
// fleet-sized queue into one response.
const maxLeaseBatch = 1024

// AdminHandler exposes the operator API:
//
//	POST /admin/schedule  {"me":..., "kind":..., "target":..., "config":..., "count":N}
//	                      or {"me":..., "tasks":[Task, ...]} for a batch
//	GET  /admin/results?cursor=N[&limit=M] -> {"cursor": next, "results": [...]}
//	                      cursor=-1 returns just the current cursor
//	GET  /admin/mes
//	GET  /admin/metrics        -> Prometheus text exposition (see WithObs)
//	GET  /admin/trace?n=K      -> newest K trace events as JSON
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	s.instrument(mux, "POST /admin/schedule", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ME     string `json:"me"`
			Kind   string `json:"kind"`
			Target string `json:"target"`
			Config string `json:"config"`
			Count  int    `json:"count"`
			Tasks  []Task `json:"tasks"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		tasks := req.Tasks
		if len(tasks) == 0 {
			if req.Count <= 0 {
				req.Count = 1
			}
			for i := 0; i < req.Count; i++ {
				tasks = append(tasks, Task{Kind: req.Kind, Target: req.Target, Config: req.Config})
			}
		}
		ids, err := s.ScheduleBatch(req.ME, tasks)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		s.writeJSON(w, map[string]any{"task_ids": ids})
	})
	s.instrument(mux, "GET /admin/results", func(w http.ResponseWriter, r *http.Request) {
		if !s.SupportsCursor() {
			http.Error(w, "results not readable: installed sink has no cursor support", http.StatusNotImplemented)
			return
		}
		q := r.URL.Query()
		// Missing parameters default to zero; malformed ones are 400s —
		// silently reading garbage as cursor 0 would replay the whole
		// log as a "successful" page.
		cursor, err := atoiParam(q.Get("cursor"))
		if err != nil {
			http.Error(w, "bad cursor", http.StatusBadRequest)
			return
		}
		limit, err := atoiParam(q.Get("limit"))
		if err != nil {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		var rs []Result
		var next int
		if cursor < 0 {
			rs, next = nil, s.Cursor()
		} else {
			rs, next = s.ResultsSince(cursor)
			if limit > 0 && len(rs) > limit {
				rs = rs[:limit]
				next = cursor + limit
			}
		}
		if rs == nil {
			rs = []Result{}
		}
		s.writeJSON(w, map[string]any{"cursor": next, "results": rs})
	})
	s.instrument(mux, "GET /admin/mes", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, s.MEs())
	})
	// Observability routes. Both are valid (empty) with no registry
	// attached, and deliberately uninstrumented: scraping the metrics
	// endpoint should not move the metrics it reports.
	mux.Handle("GET /admin/metrics", s.obs.MetricsHandler())
	mux.Handle("GET /admin/trace", s.obs.TraceHandler())
	return mux
}
