package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// routeOf names the control-plane route of a request path; the fleet
// drive uses v3 lease/results and the JSON register, status and admin
// routes.
func routeOf(path string) string {
	switch path {
	case "/v3/tasks/lease":
		return "lease"
	case "/v3/results":
		return "results"
	case "/v1/register":
		return "register"
	case "/v1/status":
		return "status"
	case "/admin/schedule":
		return "schedule"
	case "/admin/results":
		return "admin_results"
	}
	return "other"
}

// reqIDHeader carries the recorder's request number in traced passes,
// so the server-side clock can pair its time with the client's.
const reqIDHeader = "X-Perfbench-Req"

// exchange is one client-observed request.
type exchange struct {
	route     string
	id        int64
	start     time.Time
	dur       time.Duration // send until the response body is closed
	status    int           // 0: transport error
	reqBytes  int64
	respBytes int64
}

// failed reports whether the exchange counts against error_rate: a
// transport error or a non-2xx status other than 429 backpressure.
func (x exchange) failed() bool {
	return x.status == 0 || (x.status >= 300 && x.status != http.StatusTooManyRequests)
}

// recorder is the fleet client's transport: it times every request
// from send until its response body is closed, counts the bytes each
// way and the connections dialled, and keeps the task IDs the server
// assigned to each ME's schedule for the completeness check.
type recorder struct {
	base  *http.Transport
	tag   bool // number requests in reqIDHeader
	next  atomic.Int64
	dials atomic.Int64

	mu    sync.Mutex
	ex    []exchange       // guarded by mu
	sched map[string][]int // ME -> scheduled task IDs; guarded by mu
}

// newRecorder returns a recorder over a transport that opens at most
// conns connections.
func newRecorder(conns int, tag bool) *recorder {
	rc := &recorder{tag: tag, sched: map[string][]int{}}
	var d net.Dialer
	rc.base = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			rc.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return rc
}

func (rc *recorder) client() *http.Client { return &http.Client{Transport: rc} }

func (rc *recorder) close() { rc.base.CloseIdleConnections() }

func (rc *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	x := exchange{route: routeOf(req.URL.Path), reqBytes: max(req.ContentLength, 0)}
	var me string
	if x.route == "schedule" && req.GetBody != nil {
		me = requestME(req)
	}
	if rc.tag {
		x.id = rc.next.Add(1)
		req = req.Clone(req.Context())
		req.Header.Set(reqIDHeader, strconv.FormatInt(x.id, 10))
	}
	x.start = time.Now()
	resp, err := rc.base.RoundTrip(req)
	if err != nil {
		x.dur = time.Since(x.start)
		rc.add(x)
		return nil, err
	}
	x.status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, rc: rc, x: x, me: me}
	return resp, nil
}

func (rc *recorder) add(x exchange) {
	rc.mu.Lock()
	rc.ex = append(rc.ex, x)
	rc.mu.Unlock()
}

// exchanges returns the requests recorded since the last call and
// forgets them.
func (rc *recorder) exchanges() []exchange {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ex := rc.ex
	rc.ex = nil
	return ex
}

// requestME reads the "me" field of a JSON request body from a copy.
func requestME(req *http.Request) string {
	body, err := req.GetBody()
	if err != nil {
		return ""
	}
	defer body.Close()
	var v struct {
		ME string `json:"me"`
	}
	_ = json.NewDecoder(body).Decode(&v) // a bad body names no ME; the check then reports the ME's tasks missing
	return v.ME
}

// timedBody ends its exchange's clock on Close. For a schedule
// response it keeps the body to record the assigned task IDs.
type timedBody struct {
	io.ReadCloser
	rc   *recorder
	x    exchange
	me   string
	kept []byte
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.x.respBytes += int64(n)
	if b.me != "" {
		b.kept = append(b.kept, p[:n]...)
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.x.dur = time.Since(b.x.start)
		b.rc.add(b.x)
		if b.me == "" || b.x.status != http.StatusOK {
			return
		}
		var v struct {
			TaskIDs []int `json:"task_ids"`
		}
		if json.Unmarshal(b.kept, &v) == nil {
			b.rc.mu.Lock()
			b.rc.sched[b.me] = v.TaskIDs
			b.rc.mu.Unlock()
		}
	})
	return err
}

// serverClock is the server side of a traced pass: it times every
// request a handler serves, per route, and (when pairing) per request
// number, so client time minus server time gives the HTTP overhead.
type serverClock struct {
	pair bool

	mu    sync.Mutex
	busy  map[string]time.Duration // guarded by mu
	count map[string]int64         // guarded by mu
	byID  map[int64]time.Duration  // guarded by mu
}

func newServerClock(pair bool) *serverClock {
	return &serverClock{pair: pair, busy: map[string]time.Duration{}, count: map[string]int64{}, byID: map[int64]time.Duration{}}
}

func (s *serverClock) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t)
		route := routeOf(r.URL.Path)
		var id int64
		if s.pair {
			id, _ = strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64) // absent: 0, not paired
		}
		s.mu.Lock()
		s.busy[route] += d
		s.count[route]++
		if id > 0 {
			s.byID[id] = d
		}
		s.mu.Unlock()
	})
}

func (s *serverClock) total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t time.Duration
	for _, d := range s.busy {
		t += d
	}
	return t
}

// server is a control plane (or catalog) served on a loopback port.
type server struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to end.
func (s *server) close() {
	_ = s.hs.Close() // only reports listener close errors, of no use here
	<-s.done
}
