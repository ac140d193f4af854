package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

// maxBody bounds how much of a request body the gateway buffers for the
// routing peek. It matches the largest legitimate upload (a full
// campaign's worth of payloads is far smaller); anything bigger is
// refused before a byte reaches a shard.
const maxBody = 64 << 20

// routes the gateway understands, in the order they appear in the
// per-shard request counters.
var routeNames = []string{
	"v1/register", "v1/status", "v2/requeue",
	"v3/lease", "v3/results",
	"admin/schedule",
}

// Options configures a Gateway.
type Options struct {
	// Obs, when set, receives gateway metrics: per-shard per-route
	// request counters and admin merge counters. The registry also backs
	// the gateway's own GET /admin/metrics and /admin/trace routes.
	Obs *obs.Registry
}

// topology is one immutable generation of the gateway's world: the
// placement ring, the backend per shard, and the per-shard request
// counters. Requests load it once and use it consistently; topology
// changes swap the whole value.
type topology struct {
	ring     *Ring
	backends []http.Handler
	reqs     [][]*obs.Counter // [shard][route] request counters
}

func newTopology(backends []http.Handler, reg *obs.Registry) *topology {
	t := &topology{
		ring:     NewRing(len(backends)),
		backends: append([]http.Handler(nil), backends...),
	}
	t.reqs = make([][]*obs.Counter, len(backends))
	for s := range t.reqs {
		t.reqs[s] = make([]*obs.Counter, len(routeNames))
		for rt, name := range routeNames {
			// Counter handles are shared per (name, labels), so a swap to
			// the same shard count reuses the existing series.
			t.reqs[s][rt] = reg.Counter("gateway_requests_total",
				obs.L("shard", strconv.Itoa(s)), obs.L("route", name))
		}
	}
	return t
}

// Gateway fronts N shard backends with the single-server HTTP surface:
// MEs talk to one base URL and never learn the topology. Every data-
// plane request is routed whole to the ME's owning shard (no fan-out on
// the hot path); the admin read routes merge across shards in canonical
// shard-index order. The topology is swappable at runtime: SetBackend
// replaces one shard's handler in place (the shard-kill recovery hook),
// and Pause/Resume quiesce the whole data plane and install a new ring
// — possibly with a different shard count — which is how a live reshard
// goes atomic (see fleet.ShardedFleet.Reshard).
type Gateway struct {
	obs *obs.Registry
	mux *http.ServeMux

	mu   sync.Mutex // serializes topology swaps; readers load topo lock-free
	topo atomic.Pointer[topology]

	// gate quiesces the request plane across a topology change: every
	// request holds it shared for its whole round trip; Pause takes it
	// exclusive, so Pause returns only once in-flight requests have
	// drained, and new requests block (not fail) until Resume. Blocking
	// matters: MEs parked in a gated round trip count as busy to the
	// virtual clock and burn no bounded-retry budget, so a swap is
	// invisible to them except as latency.
	gate sync.RWMutex
}

// NewGateway builds a gateway over the given backends — typically each
// an amigo Server's Handler()+AdminHandler() composite (see Mount). The
// ring is derived from len(backends).
func NewGateway(backends []http.Handler, opts Options) *Gateway {
	if len(backends) == 0 {
		panic("shard: NewGateway needs at least one backend")
	}
	g := &Gateway{obs: opts.Obs}
	g.topo.Store(newTopology(backends, opts.Obs))
	g.mux = g.buildMux()
	return g
}

// Mount composes one amigo server's protocol and admin handlers into a
// single backend the way cmd/roam-fleet self-hosting does: /v1/
// (register, status), /v2/ (requeue) and /v3/ (lease, results) from the
// protocol handler, /admin/ from the admin handler.
func Mount(protocol, admin http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", protocol)
	mux.Handle("/v2/", protocol)
	mux.Handle("/v3/", protocol)
	mux.Handle("/admin/", admin)
	return mux
}

// Ring exposes the gateway's current placement ring (read-only), so
// harnesses and benchmarks can schedule tasks directly against the
// owning shard. After a Resume with a different shard count this
// returns the new ring.
func (g *Gateway) Ring() *Ring { return g.topo.Load().ring }

// Backend returns shard i's current backend.
func (g *Gateway) Backend(i int) http.Handler {
	return g.topo.Load().backends[i]
}

// Backends returns a copy of the current backend list, in shard order.
func (g *Gateway) Backends() []http.Handler {
	t := g.topo.Load()
	return append([]http.Handler(nil), t.backends...)
}

// SetBackend atomically replaces shard i's backend. In-flight requests
// finish against the handler they resolved; new requests see the
// replacement. This is the shard-kill recovery hook: the harness swaps
// in a fresh server wired to the dead shard's surviving WAL.
func (g *Gateway) SetBackend(i int, h http.Handler) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.topo.Load()
	next := append([]http.Handler(nil), cur.backends...)
	next[i] = h
	g.topo.Store(&topology{ring: cur.ring, backends: next, reqs: cur.reqs})
}

// Pause gates the control plane for a topology swap: it blocks new
// requests at the door and returns only once every in-flight request
// has drained. Between Pause and Resume the world is quiescent — every
// result a shard ever acknowledged is in its sink, and nothing new can
// arrive — which is the window a reshard copies WALs in. Requests
// arriving while paused simply wait; callers must pair every Pause
// with exactly one Resume, and must not call Pause from a goroutine
// that is itself serving a gateway request (that request can never
// drain).
func (g *Gateway) Pause() { g.gate.Lock() }

// Resume installs backends as the new topology — rebuilding the ring,
// so the shard count may differ from the previous generation — and
// reopens the gate. Blocked requests then route by the new ring.
func (g *Gateway) Resume(backends []http.Handler) {
	if len(backends) == 0 {
		panic("shard: Resume needs at least one backend")
	}
	g.mu.Lock()
	g.topo.Store(newTopology(backends, g.obs))
	g.mu.Unlock()
	g.gate.Unlock()
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.gate.RLock()
	defer g.gate.RUnlock()
	g.mux.ServeHTTP(w, r)
}

func (g *Gateway) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	// Data plane: peek the ME, forward whole to its shard.
	mux.HandleFunc("POST /v1/register", g.routeJSON(0))
	mux.HandleFunc("POST /v1/status", g.routeJSON(1))
	mux.HandleFunc("POST /v2/tasks/requeue", g.routeJSON(2))
	mux.HandleFunc("POST /v3/tasks/lease", g.routeV3(3))
	mux.HandleFunc("POST /v3/results", g.routeV3(4))
	mux.HandleFunc("POST /admin/schedule", g.routeJSON(5))
	// Admin read surface: merged views.
	mux.HandleFunc("GET /admin/results", g.handleMergedResults)
	mux.HandleFunc("GET /admin/mes", g.handleMergedMEs)
	// The gateway's own observability, covering gateway counters plus
	// whatever the harness registered alongside (per-shard WAL metrics).
	mux.Handle("GET /admin/metrics", g.obs.MetricsHandler())
	mux.Handle("GET /admin/trace", g.obs.TraceHandler())
	return mux
}

// forward dispatches the (body-rewound) request to me's shard. One
// topology load covers both the placement and the backend, so a
// concurrent swap can never route by one ring and serve from another.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, me string, route int) {
	t := g.topo.Load()
	shard := t.ring.Shard(me)
	t.reqs[shard][route].Inc()
	t.backends[shard].ServeHTTP(w, r)
}

// bufferBody reads the whole request body (bounded) and rewinds the
// request so the backend sees it untouched.
func bufferBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		http.Error(w, "reading body", http.StatusBadRequest)
		return nil, false
	}
	if len(body) > maxBody {
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	return body, true
}

// jsonObjectME peeks {"me": ...} out of a JSON object body.
func jsonObjectME(body []byte) (string, error) {
	var obj struct {
		ME string `json:"me"`
	}
	if err := json.Unmarshal(body, &obj); err != nil {
		return "", err
	}
	return obj.ME, nil
}

// routeJSON buffers the body, peeks its {"me": ...}, and forwards. A
// body the peek cannot parse is rejected here with 400 — the shard
// would reject it identically, so nothing observable changes versus a
// single server.
func (g *Gateway) routeJSON(route int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := bufferBody(w, r)
		if !ok {
			return
		}
		me, err := jsonObjectME(body)
		if err != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		g.forward(w, r, me, route)
	}
}

// routeV3 peeks the ME out of a binary wire frame: the header names the
// message type, and LeaseRequest.ME / the first upload record's ME
// names the owning shard. Only the routing-relevant prefix is decoded
// strictly here; the shard's handler decodes (and rejects) the full
// frame as usual.
func (g *Gateway) routeV3(route int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := bufferBody(w, r)
		if !ok {
			return
		}
		if len(body) < wire.HeaderLen {
			http.Error(w, "short frame", http.StatusBadRequest)
			return
		}
		h, err := wire.ParseHeader(body[:wire.HeaderLen])
		if err != nil || len(body) != wire.HeaderLen+int(h.N) {
			http.Error(w, "bad frame", http.StatusBadRequest)
			return
		}
		payload := body[wire.HeaderLen:]
		dec := wire.GetDecoder()
		var me string
		switch h.Type {
		case wire.MsgLeaseRequest:
			var req wire.LeaseRequest
			req, err = dec.LeaseRequest(payload)
			me = req.ME
		case wire.MsgResults:
			me, err = dec.FirstResultME(payload)
		default:
			err = fmt.Errorf("shard: unroutable frame type 0x%02x", h.Type)
		}
		wire.PutDecoder(dec)
		if err != nil {
			http.Error(w, "bad frame", http.StatusBadRequest)
			return
		}
		g.forward(w, r, me, route)
	}
}

// memResponse is a minimal in-memory http.ResponseWriter for the
// synthetic sub-requests the merged admin routes issue against shard
// backends.
type memResponse struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (m *memResponse) Header() http.Header {
	if m.hdr == nil {
		m.hdr = make(http.Header)
	}
	return m.hdr
}

func (m *memResponse) WriteHeader(code int) {
	if m.code == 0 {
		m.code = code
	}
}

func (m *memResponse) Write(p []byte) (int, error) {
	if m.code == 0 {
		m.code = http.StatusOK
	}
	return m.body.Write(p)
}

// adminGet issues a synthetic GET against shard i's backend in the
// given topology snapshot and decodes the JSON response into out.
// Non-2xx statuses are returned as errors carrying the status code.
func adminGet(t *topology, i int, path string, out any) (int, error) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	var resp memResponse
	t.backends[i].ServeHTTP(&resp, req)
	if resp.code == 0 {
		resp.code = http.StatusOK
	}
	if resp.code != http.StatusOK {
		return resp.code, fmt.Errorf("shard %d: %s: HTTP %d", i, path, resp.code)
	}
	if out != nil {
		if err := json.Unmarshal(resp.body.Bytes(), out); err != nil {
			return resp.code, fmt.Errorf("shard %d: %s: %w", i, path, err)
		}
	}
	return resp.code, nil
}

// resultsPage mirrors the amigo admin results response.
type resultsPage struct {
	Cursor  int               `json:"cursor"`
	Results []json.RawMessage `json:"results"`
}

// handleMergedResults serves GET /admin/results with the single-server
// contract — {"cursor": next, "results": [...]} paged by cursor and
// limit, cursor=-1 returning just the current cursor — over the
// concatenation of all shards' logs in shard-index order.
//
// The global cursor maps onto per-shard cursors via a prefix-sum
// snapshot of the shard log lengths, probed once up front. Within one
// request the merge is a consistent view of that snapshot: every
// per-shard read is clamped to min(want, probedTotal-local), so a shard
// appending between the probe and the reads can neither shift the
// prefix sums (duplicating records) nor leak post-snapshot results into
// the page. Across separate paged requests the mapping is stable only
// while uploads are quiescent (growth in earlier shards shifts later
// shards' global offsets), which matches how the fleet driver uses it:
// results are paged out after the campaign has drained, exactly as with
// one server. If any shard's sink cannot be read back (501), the merged
// route answers 501 — a partial merge would silently drop a shard's
// worth of results.
func (g *Gateway) handleMergedResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cursor, ok := intParam(w, q.Get("cursor"), "cursor")
	if !ok {
		return
	}
	limit, ok := intParam(w, q.Get("limit"), "limit")
	if !ok {
		return
	}

	t := g.topo.Load()
	n := t.ring.Shards()
	lens := make([]int, n)
	for i := 0; i < n; i++ {
		var page resultsPage
		code, err := adminGet(t, i, "/admin/results?cursor=-1", &page)
		if err != nil {
			if code == http.StatusNotImplemented {
				http.Error(w, "results not readable: a shard's sink has no cursor support", http.StatusNotImplemented)
			} else {
				http.Error(w, err.Error(), http.StatusBadGateway)
			}
			return
		}
		lens[i] = page.Cursor
	}
	total := 0
	for _, l := range lens {
		total += l
	}

	if cursor < 0 {
		writeJSON(w, map[string]any{"cursor": total, "results": []json.RawMessage{}})
		return
	}
	if limit <= 0 {
		limit = total // "no limit": one page covers everything
	}

	merged := make([]json.RawMessage, 0, min(limit, 4096))
	prefix := 0
	for i := 0; i < n && len(merged) < limit; i++ {
		segEnd := prefix + lens[i]
		local := 0
		if cursor > prefix {
			local = cursor - prefix
		}
		// Page through this shard's log; shards may serve bounded pages
		// (walsink does), so loop until the snapshot length is covered.
		for local < lens[i] && len(merged) < limit {
			want := lens[i] - local
			if rem := limit - len(merged); rem < want {
				want = rem
			}
			var page resultsPage
			path := fmt.Sprintf("/admin/results?cursor=%d&limit=%d", local, want)
			if _, err := adminGet(t, i, path, &page); err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			if len(page.Results) > want {
				// The shard appended past the probe and served more than
				// asked; keep the merge inside the snapshot.
				page.Results = page.Results[:want]
			}
			if len(page.Results) == 0 {
				break // shard shrank?! — serve what we have rather than spin
			}
			// Advance by what was actually merged, not the shard's own
			// cursor: a post-snapshot append must not skip ahead.
			merged = append(merged, page.Results...)
			local += len(page.Results)
		}
		prefix = segEnd
	}
	g.obs.Counter("gateway_admin_merges_total").Inc()
	writeJSON(w, map[string]any{"cursor": cursor + len(merged), "results": merged})
}

// intParam parses an optional integer query parameter. A missing value
// is 0; a malformed one answers 400 and returns ok=false — silently
// treating garbage as 0 would replay the whole log as a "successful"
// read.
func intParam(w http.ResponseWriter, raw, name string) (int, bool) {
	if raw == "" {
		return 0, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		http.Error(w, "bad "+name, http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// handleMergedMEs serves GET /admin/mes as the sorted union of every
// shard's registered MEs.
func (g *Gateway) handleMergedMEs(w http.ResponseWriter, r *http.Request) {
	t := g.topo.Load()
	var all []string
	for i := 0; i < t.ring.Shards(); i++ {
		var mes []string
		if _, err := adminGet(t, i, "/admin/mes", &mes); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		all = append(all, mes...)
	}
	sort.Strings(all)
	writeJSON(w, all)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
	}
}
