package amigo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/measure"
	"roamsim/internal/mno"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/vclock"
	"roamsim/internal/video"
	"roamsim/internal/wire"
)

// ProtoV3 names the lease/upload protocol: internal/wire frames over
// /v3/tasks/lease and /v3/results, the only data-plane protocol the
// server and endpoint speak. It is kept because fleet.Driver.Proto
// still accepts it (see there).
const ProtoV3 = "v3"

// Backoff is the endpoint's retry policy: capped exponential backoff
// with optional jitter, shared by every control-plane operation. The
// zero value means defaults.
type Backoff struct {
	// MaxAttempts caps the tries per logical operation (default 10);
	// the operation fails with the last error once exhausted — the
	// endpoint never loops forever against a broken server.
	MaxAttempts int
	// Base is the first retry delay; it doubles each attempt (default
	// 25ms).
	Base time.Duration
	// Max caps the backoff delay AND clamps any server-sent
	// Retry-After hint (default 2s) — a confused or hostile server
	// cannot park the fleet for an hour with one header.
	Max time.Duration
	// Jitter, when set, scales every delay by a uniform factor in
	// [0.5, 1.5) drawn from this stream, de-synchronizing fleet
	// retries. It must be a stream separate from the measurement
	// source (rng.Stream), so retry timing never perturbs payloads.
	Jitter *rng.Source
}

func (b Backoff) withDefaults() Backoff {
	if b.MaxAttempts <= 0 {
		b.MaxAttempts = 10
	}
	if b.Base <= 0 {
		b.Base = 25 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	return b
}

// delay returns the wait before retry number attempt (0-based). A
// positive server hint (Retry-After) wins over the exponential
// schedule, but is clamped to Max rather than trusted blindly.
func (b Backoff) delay(attempt int, hint time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = b.Base << attempt
		if d <= 0 { // shift overflow
			d = b.Max
		}
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter != nil {
		d = time.Duration(b.Jitter.Uniform(0.5, 1.5) * float64(d))
	}
	return d
}

// ErrUnknownME is wrapped into any control-plane error caused by an
// HTTP 404: the server does not know this ME. In a sharded deployment
// that is the signature of a control-shard crash — the replacement
// shard lost every registration — and the fleet driver treats it as
// recoverable (re-register, re-schedule under the original task IDs,
// replay). Test with errors.Is.
var ErrUnknownME = errors.New("amigo: server does not know this ME")

// httpStatusErr builds the error for a non-2xx control-plane response,
// wrapping ErrUnknownME for 404 so callers can detect lost
// registrations with errors.Is instead of parsing messages.
func httpStatusErr(op string, code int) error {
	if code == http.StatusNotFound {
		return fmt.Errorf("amigo: %s: HTTP %d: %w", op, code, ErrUnknownME)
	}
	return fmt.Errorf("amigo: %s: HTTP %d", op, code)
}

// Endpoint is a measurement endpoint: the rooted-phone replacement that
// executes instrumentation against the simulated world and talks to the
// control server over HTTP.
type Endpoint struct {
	Name    string
	BaseURL string
	Client  *http.Client
	Dep     *airalo.Deployment
	Src     *rng.Source
	// Retry is the control-plane retry policy (zero value = defaults).
	Retry Backoff
	// Ctx, when set, bounds every request and backoff sleep — the
	// fleet driver's straggler watchdog cancels it to reclaim an ME
	// stuck behind pathological faults.
	Ctx context.Context
	// Obs, when set, records client-side metrics: per-path request
	// counts, retries and give-ups, 429 backpressure hits, connection
	// reuse vs churn, and per-kind task execution histograms. It must
	// be set before the first operation; instrumentation never touches
	// the measurement rng, so datasets are identical with or without it.
	Obs *obs.Registry
	// Clock is the time source for backoff sleeps, Retry-After waits,
	// realized task durations, and execution metrics (nil = wall clock).
	// On a vclock.Virtual the ME's goroutine must be a registered waiter.
	Clock vclock.Clock
	// Realize, when set, makes Execute sleep each task's simulated
	// network duration on Clock — the netsim delay realization. A real
	// ME spends the observed latencies and transfer times; with Realize
	// a simulated campaign spends them too (and a virtual-clock campaign
	// skips over them). Payloads are computed before the sleep, so the
	// dataset is byte-identical with Realize on or off.
	Realize bool

	battery float64
	acked   int // highest task ID leased so far (the lease ack cursor)

	metOnce sync.Once
	met     epMetrics
}

// epMetrics caches the endpoint's metric handles so the request path
// never takes the registry lock; all handles are nil no-ops when no
// registry is attached.
type epMetrics struct {
	requests map[string]*obs.Counter   // per control-plane path
	other    *obs.Counter              // fallback for unexpected paths
	c429     *obs.Counter              // 429 backpressure responses seen
	exec     map[string]*obs.Histogram // task execution time per kind
	// connTrace observes connection reuse (nil without a registry, so
	// the uninstrumented path allocates nothing per request).
	connTrace *httptrace.ClientTrace
}

var (
	epPaths = []string{
		"/v1/register", "/v1/status", "/v2/tasks/requeue",
		"/v3/tasks/lease", "/v3/results",
	}
	taskKinds = []string{"speedtest", "mtr", "cdn", "dns", "video", "other"}
)

// metrics lazily builds the handle cache. Lazy because the fleet driver
// attaches Obs after construction; Once because handles must be built
// exactly once even with concurrent first calls.
func (e *Endpoint) metrics() *epMetrics {
	e.metOnce.Do(func() {
		m := &e.met
		m.requests = make(map[string]*obs.Counter, len(epPaths))
		for _, p := range epPaths {
			m.requests[p] = e.Obs.Counter("amigo_endpoint_requests_total", obs.L("path", p))
		}
		m.other = e.Obs.Counter("amigo_endpoint_requests_total", obs.L("path", "other"))
		m.c429 = e.Obs.Counter("amigo_endpoint_backpressure_429_total")
		m.exec = make(map[string]*obs.Histogram, len(taskKinds))
		for _, k := range taskKinds {
			m.exec[k] = e.Obs.Histogram("amigo_endpoint_task_exec_ms", obs.L("kind", k))
		}
		if e.Obs != nil {
			connNew := e.Obs.Counter("amigo_endpoint_connections_total", obs.L("reused", "false"))
			connReused := e.Obs.Counter("amigo_endpoint_connections_total", obs.L("reused", "true"))
			m.connTrace = &httptrace.ClientTrace{
				GotConn: func(info httptrace.GotConnInfo) {
					if info.Reused {
						connReused.Add(1)
					} else {
						connNew.Add(1)
					}
				},
			}
		}
	})
	return &e.met
}

func (m *epMetrics) request(path string) {
	if c, ok := m.requests[path]; ok {
		c.Add(1)
		return
	}
	m.other.Add(1)
}

// reqContext is the request context, instrumented to observe connection
// reuse when a registry is attached.
func (e *Endpoint) reqContext() context.Context {
	ctx := e.ctx()
	if t := e.metrics().connTrace; t != nil {
		ctx = httptrace.WithClientTrace(ctx, t)
	}
	return ctx
}

// NewEndpoint creates an ME bound to a deployment.
func NewEndpoint(name, baseURL string, dep *airalo.Deployment, src *rng.Source) *Endpoint {
	return &Endpoint{
		Name: name, BaseURL: baseURL, Client: http.DefaultClient,
		Dep: dep, Src: src, battery: 1,
	}
}

func (e *Endpoint) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

func (e *Endpoint) httpClient() *http.Client {
	if e.Client != nil {
		return e.Client
	}
	return http.DefaultClient
}

func (e *Endpoint) clock() vclock.Clock {
	if e.Clock != nil {
		return e.Clock
	}
	return vclock.Wall
}

// sleep waits d on the endpoint's clock, or returns early with the
// context error if the endpoint is cancelled (watchdog, shutdown).
func (e *Endpoint) sleep(d time.Duration) error {
	return vclock.SleepCtx(e.clock(), e.ctx(), d)
}

// retry runs attempt under the endpoint's backoff policy. attempt
// returns done=true to stop (success or permanent failure), done=false
// to back off and try again; hint carries a server Retry-After to honour
// (clamped by the policy).
func (e *Endpoint) retry(op string, attempt func() (done bool, hint time.Duration, err error)) error {
	b := e.Retry.withDefaults()
	var lastErr error
	var lastHint time.Duration
	for i := 0; i < b.MaxAttempts; i++ {
		if i > 0 {
			e.Obs.Counter("amigo_endpoint_retries_total", obs.L("op", op)).Add(1)
			if err := e.sleep(b.delay(i-1, lastHint)); err != nil {
				return err
			}
		}
		done, hint, err := attempt()
		if done {
			return err
		}
		lastErr, lastHint = err, hint
		if ctxErr := e.ctx().Err(); ctxErr != nil {
			return ctxErr
		}
	}
	e.Obs.Counter("amigo_endpoint_retry_giveups_total", obs.L("op", op)).Add(1)
	e.Obs.Trace().Record("retry-giveup", obs.L("me", e.Name), obs.L("op", op))
	return fmt.Errorf("amigo: %s: giving up after %d attempts: %w", op, b.MaxAttempts, lastErr)
}

// retryableStatus reports whether a response status is worth retrying:
// backpressure (429) and server-side failures (5xx). Client errors are
// permanent.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// drainLimit bounds how many leftover body bytes drainClose will read
// to recycle a connection. Control-plane responses are tiny; a body
// bigger than this (a confused proxy, a fault-truncated stream that
// never ends) is cheaper to abandon than to drain.
const drainLimit = 256 << 10

// drainClose discards any unread body bytes (up to drainLimit) before
// closing, so the underlying connection goes back into the keep-alive
// pool instead of being torn down (a fleet of MEs would otherwise churn
// one TCP connection per request).
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	resp.Body.Close()
}

// post sends a JSON body and retries transport errors, 429s, and 5xx
// under the backoff policy. Control-plane posts (register, status,
// requeue) are idempotent on the server, so resending is always safe.
func (e *Endpoint) post(path string, body any) error {
	return e.retry(path, func() (bool, time.Duration, error) {
		resp, err := e.postResp(path, body, nil)
		if err != nil {
			return false, 0, err
		}
		wait := retryAfter(resp)
		drainClose(resp)
		switch {
		case resp.StatusCode < 300:
			return true, 0, nil
		case retryableStatus(resp.StatusCode):
			return false, wait, fmt.Errorf("amigo: %s: HTTP %d", path, resp.StatusCode)
		default:
			return true, 0, httpStatusErr(path, resp.StatusCode)
		}
	})
}

func (e *Endpoint) postResp(path string, body any, header map[string]string) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return e.postRaw(path, "application/json", buf, header)
}

// postRaw sends pre-encoded bytes — the shared tail of the JSON and
// frame post paths (request metrics, connection tracing, 429
// counting).
func (e *Endpoint) postRaw(path, contentType string, body []byte, header map[string]string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(e.reqContext(), http.MethodPost, e.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	m := e.metrics()
	m.request(path)
	resp, err := e.httpClient().Do(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		m.c429.Add(1)
	}
	return resp, err
}

// Register announces the ME to the control server.
func (e *Endpoint) Register() error {
	return e.post("/v1/register", map[string]string{
		"me": e.Name, "country": e.Dep.Country.ISO3,
	})
}

// Heartbeat reports current vitals, sampling the radio of the eSIM side.
func (e *Endpoint) Heartbeat() error {
	e.battery -= 0.002 // measurement drains the battery
	if e.battery < 0.05 {
		e.battery = 1 // the volunteer charged the phone
	}
	radio := e.Dep.Spec.RadioESIM.Sample(e.Src)
	return e.post("/v1/status", map[string]any{
		"me": e.Name,
		"vitals": Vitals{
			Battery: e.battery, RSSI: radio.RSSI, SNR: radio.SNR,
			CQI: radio.CQI, RAT: string(radio.RAT), ActiveID: "esim",
		},
	})
}

// Lease asks the server for up to max tasks over POST /v3/tasks/lease,
// acknowledging everything leased so far (the server retires acked
// tasks and re-delivers unacked ones, so a lease response lost to a
// fault is recovered on the next call). An empty slice means the queue
// is drained. Transport errors, truncated responses, 429s, and 5xx are
// retried under the backoff policy. The request frame is encoded once,
// into a pooled buffer, and reused across retries.
func (e *Endpoint) Lease(max int) ([]Task, error) {
	ebuf := wire.GetBuf()
	defer wire.PutBuf(ebuf)
	*ebuf = wire.AppendLeaseRequest((*ebuf)[:0],
		wire.LeaseRequest{ME: e.Name, Max: max, Ack: e.acked})
	var tasks []Task
	err := e.retry("lease", func() (bool, time.Duration, error) {
		resp, err := e.postRaw("/v3/tasks/lease", wire.ContentType, *ebuf, nil)
		if err != nil {
			return false, 0, err
		}
		switch resp.StatusCode {
		case http.StatusNoContent:
			drainClose(resp)
			tasks = nil
			return true, 0, nil
		case http.StatusOK:
		default:
			wait := retryAfter(resp)
			drainClose(resp)
			if retryableStatus(resp.StatusCode) {
				return false, wait, fmt.Errorf("amigo: lease: HTTP %d", resp.StatusCode)
			}
			return true, 0, httpStatusErr("lease", resp.StatusCode)
		}
		rbuf := wire.GetBuf()
		h, payload, err := wire.ReadFrame(resp.Body, (*rbuf)[:0])
		*rbuf = payload
		drainClose(resp)
		if err == nil && h.Type != wire.MsgTasks {
			err = fmt.Errorf("wire: unexpected message type 0x%02x", h.Type)
		}
		var got []Task
		if err == nil {
			dec := wire.GetDecoder()
			// Tasks carry no byte fields, so the decoded batch owns all
			// its data and rbuf can go straight back to the pool.
			got, err = dec.Tasks(payload, nil)
			wire.PutDecoder(dec)
		}
		wire.PutBuf(rbuf)
		if err != nil {
			// Truncated or garbled frame: the batch stays unacked on the
			// server and the retry re-delivers the same tasks.
			return false, 0, fmt.Errorf("amigo: lease: decoding response: %w", err)
		}
		tasks = got
		return true, 0, nil
	})
	if err != nil {
		return nil, err
	}
	if n := len(tasks); n > 0 {
		e.acked = tasks[n-1].ID
	}
	return tasks, nil
}

// Redeliver asks the server to restore this ME's full schedule — done,
// outstanding, and queued tasks, in original order — and resets the
// lease ack cursor. A restarted ME calls it after re-registering so a
// full replay re-leases every task; server-side idempotency keys keep
// the re-uploaded duplicates out of the dataset.
func (e *Endpoint) Redeliver() error {
	e.acked = 0
	return e.post("/v2/tasks/requeue", map[string]string{"me": e.Name})
}

// Upload posts a result batch over POST /v3/results under an
// Idempotency-Key derived from the batch content, retrying transport
// errors, 429 + Retry-After backpressure (clamped by the backoff
// policy), and 5xx. The key makes resending always safe: if the server
// processed a batch but the response was lost, the retry is dropped as
// a duplicate rather than double-ingested.
func (e *Endpoint) Upload(results []Result) error {
	if len(results) == 0 {
		return nil
	}
	header := map[string]string{"Idempotency-Key": uploadKey(e.Name, results)}
	ebuf := wire.GetBuf()
	defer wire.PutBuf(ebuf)
	*ebuf = wire.AppendResults((*ebuf)[:0], results)
	return e.retry("results", func() (bool, time.Duration, error) {
		resp, err := e.postRaw("/v3/results", wire.ContentType, *ebuf, header)
		if err != nil {
			return false, 0, err
		}
		wait := retryAfter(resp)
		drainClose(resp)
		switch {
		case resp.StatusCode < 300:
			return true, 0, nil
		case retryableStatus(resp.StatusCode):
			return false, wait, fmt.Errorf("amigo: results: HTTP %d", resp.StatusCode)
		default:
			return true, 0, httpStatusErr("results", resp.StatusCode)
		}
	})
}

// uploadKey derives a batch's idempotency key from its content: the ME
// name plus every result's (task ID, kind, config) — field values, not
// encoded bytes. A replayed or duplicated batch hashes identically, so the server keeps only the
// first copy; distinct batches differ because task IDs are unique per
// ME schedule.
func uploadKey(me string, results []Result) string {
	h := fnv.New64a()
	io.WriteString(h, me)
	for _, r := range results {
		fmt.Fprintf(h, "|%d/%s/%s", r.TaskID, r.Kind, r.Config)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// retryAfter reads a Retry-After header as whole seconds. The backoff
// policy clamps the hint before sleeping, so a bogus huge value cannot
// stall an ME.
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// RunBatch leases up to max tasks, executes them in order, and uploads
// the results as one batch. It returns the number of tasks executed;
// zero means the queue is drained.
func (e *Endpoint) RunBatch(max int) (int, error) {
	tasks, err := e.Lease(max)
	if err != nil || len(tasks) == 0 {
		return 0, err
	}
	results := make([]Result, len(tasks))
	for i, task := range tasks {
		results[i] = e.Execute(task)
	}
	if err := e.Upload(results); err != nil {
		return 0, err
	}
	return len(tasks), nil
}

// Execute runs the instrumentation for a task against the right session.
func (e *Endpoint) Execute(task Task) Result {
	m := e.metrics()
	h, ok := m.exec[task.Kind]
	if !ok {
		h = m.exec["other"]
	}
	start := e.clock().Now()
	res := e.execute(task)
	if e.Realize {
		// Spend the task's simulated network time on the clock, after
		// the payload is sealed: pacing can never perturb the dataset.
		e.sleep(realizeDuration(task.Kind, res))
	}
	h.Observe(float64(e.clock().Now().Sub(start)) / float64(time.Millisecond))
	return res
}

// realizeDuration maps a finished result to the network time an actual
// ME would have spent producing it, derived only from the uploaded
// payload so the pacing is as deterministic as the dataset itself.
func realizeDuration(kind string, res Result) time.Duration {
	if !res.OK {
		return 0
	}
	var ms float64
	switch kind {
	case "speedtest":
		var p SpeedtestPayload
		if json.Unmarshal(res.Payload, &p) != nil {
			return 0
		}
		ms = 2 * p.LatencyMs // probe round trips
		if p.DownMbps > 0 {
			ms += 8 * 16 / p.DownMbps * 1e3 // 16 MB down at the observed rate
		}
		if p.UpMbps > 0 {
			ms += 8 * 8 / p.UpMbps * 1e3 // 8 MB up
		}
	case "mtr":
		var p MTRPayload
		if json.Unmarshal(res.Payload, &p) != nil {
			return 0
		}
		for _, h := range p.Hops {
			if h.RTTms > 0 {
				ms += 3 * h.RTTms // three probes per TTL
			} else {
				ms += 500 // timed-out hop: one probe-timeout window
			}
		}
	case "cdn":
		var p CDNPayload
		if json.Unmarshal(res.Payload, &p) != nil {
			return 0
		}
		ms = p.TotalMs
	case "dns":
		var p DNSPayload
		if json.Unmarshal(res.Payload, &p) != nil {
			return 0
		}
		ms = p.DurationMs
	case "video":
		ms = 120 * 1e3 // the fixed stats-for-nerds watch window
	}
	return time.Duration(ms * float64(time.Millisecond))
}

func (e *Endpoint) execute(task Task) Result {
	res := Result{TaskID: task.ID, ME: e.Name, Kind: task.Kind, Config: task.Config}
	session, err := e.attach(task.Config)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	var payload any
	switch task.Kind {
	case "speedtest":
		payload, err = runSpeedtest(session, e.Src)
	case "mtr":
		payload, err = runMTR(session, task.Target, e.Src)
	case "cdn":
		payload, err = runCDN(session, task.Target, e.Src)
	case "dns":
		payload, err = runDNS(session, e.Src)
	case "video":
		payload, err = runVideo(session, e.Src)
	default:
		err = fmt.Errorf("amigo: unknown task kind %q", task.Kind)
	}
	if err != nil {
		res.Error = err.Error()
		return res
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.OK = true
	res.Payload = raw
	return res
}

func (e *Endpoint) attach(config string) (*airalo.Session, error) {
	switch config {
	case string(mno.ESIM):
		return e.Dep.AttachESIM(e.Src)
	case string(mno.PhysicalSIM):
		return e.Dep.AttachSIM(e.Src)
	default:
		return nil, fmt.Errorf("amigo: unknown config %q", config)
	}
}

// Payload types (the JSON the MEs upload).

// SpeedtestPayload is the uploaded Ookla-style observation.
type SpeedtestPayload struct {
	Server    string  `json:"server"`
	LatencyMs float64 `json:"latency_ms"`
	DownMbps  float64 `json:"down_mbps"`
	UpMbps    float64 `json:"up_mbps"`
	CQI       int     `json:"cqi"`
	RAT       string  `json:"rat"`
	PublicIP  string  `json:"public_ip"`
}

func runSpeedtest(s *airalo.Session, src *rng.Source) (SpeedtestPayload, error) {
	r, err := measure.Speedtest(s, src)
	if err != nil {
		return SpeedtestPayload{}, err
	}
	return SpeedtestPayload{
		Server: r.ServerCity, LatencyMs: r.LatencyMs,
		DownMbps: r.DownMbps, UpMbps: r.UpMbps,
		CQI: r.Radio.CQI, RAT: string(r.Radio.RAT),
		PublicIP: s.PublicIP.String(),
	}, nil
}

// MTRPayload is one uploaded traceroute.
type MTRPayload struct {
	Target string   `json:"target"`
	Hops   []MTRHop `json:"hops"`
}

// MTRHop is one hop line.
type MTRHop struct {
	TTL   int     `json:"ttl"`
	Addr  string  `json:"addr,omitempty"` // empty when the hop timed out
	RTTms float64 `json:"rtt_ms,omitempty"`
}

func runMTR(s *airalo.Session, target string, src *rng.Source) (MTRPayload, error) {
	tr, err := measure.Traceroute(s, target, src)
	if err != nil {
		return MTRPayload{}, err
	}
	p := MTRPayload{Target: target}
	for _, h := range tr.Raw.Hops {
		hop := MTRHop{TTL: h.TTL}
		if h.Responded {
			hop.Addr = h.Addr.String()
			hop.RTTms = h.BestRTTms
		}
		p.Hops = append(p.Hops, hop)
	}
	return p, nil
}

// CDNPayload is one uploaded CDN fetch.
type CDNPayload struct {
	Provider string  `json:"provider"`
	Cache    string  `json:"cache"`
	DNSMs    float64 `json:"dns_ms"`
	TotalMs  float64 `json:"total_ms"`
	Bytes    int     `json:"bytes"`
}

func runCDN(s *airalo.Session, provider string, src *rng.Source) (CDNPayload, error) {
	r, err := measure.CDNFetch(s, provider, src)
	if err != nil {
		return CDNPayload{}, err
	}
	return CDNPayload{
		Provider: r.Provider, Cache: string(r.Cache),
		DNSMs: r.DNSMs, TotalMs: r.TotalMs, Bytes: r.SizeBytes,
	}, nil
}

// DNSPayload is one uploaded resolver identification.
type DNSPayload struct {
	Resolver   string  `json:"resolver"`
	City       string  `json:"city"`
	Country    string  `json:"country"`
	DurationMs float64 `json:"duration_ms"`
	DoH        bool    `json:"doh"`
}

func runDNS(s *airalo.Session, src *rng.Source) (DNSPayload, error) {
	r, err := measure.DNSLookup(s, src)
	if err != nil {
		return DNSPayload{}, err
	}
	return DNSPayload{
		Resolver: r.Resolver.Addr.String(), City: r.Resolver.City,
		Country: r.Resolver.Country, DurationMs: r.DurationMs, DoH: r.DoH,
	}, nil
}

// VideoPayload is one uploaded stats-for-nerds summary.
type VideoPayload struct {
	Dominant  string             `json:"dominant"`
	Rebuffers int                `json:"rebuffers"`
	Shares    map[string]float64 `json:"shares"`
}

func runVideo(s *airalo.Session, src *rng.Source) (VideoPayload, error) {
	st, err := measure.StreamVideo(s, video.Config{DurationSec: 120}, src)
	if err != nil {
		return VideoPayload{}, err
	}
	shares := map[string]float64{}
	for name := range st.SecondsAt {
		shares[name] = st.Share(name)
	}
	return VideoPayload{Dominant: st.DominantResolution, Rebuffers: st.Rebuffers, Shares: shares}, nil
}
