package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/wire"
)

// BenchmarkFleetThroughput measures control-plane results/sec at fleet
// scale: N registered MEs draining a fixed task backlog over real HTTP
// on loopback, leasing and uploading v3 frame batches. Task execution
// is stubbed with a canned result so the benchmark isolates the serving
// path (registry sharding, lease/upload round trips, codec, spool)
// rather than the measurement simulation. The row names keep their
// "v3/" prefix so snapshots stay comparable with older ones.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, mes := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("v3/mes=%d", mes), func(b *testing.B) {
			if mes >= 10000 && testing.Short() {
				b.Skip("10k MEs skipped in -short smoke runs")
			}
			benchThroughput(b, mes, 1)
		})
	}
	// The sharded row: the same drain through a 4-shard gateway
	// (in-memory sinks), isolating the routing-peek overhead and the
	// registry/queue contention relief that sharding buys.
	b.Run("v3-shards4/mes=1000", func(b *testing.B) {
		benchThroughput(b, 1000, 4)
	})
}

// The device campaign schedules 72 tasks per ME (9 tools x 2 configs x
// 4 reps); 64 approximates that realistic backlog while keeping the
// 10k-ME case tractable.
const benchTasksPerME = 64

// benchFleet is the benchmark fixture: the control plane (possibly
// sharded), the registered MEs, and the drain loop.
// Everything it takes to build one — server construction, WAL/gateway
// wiring, ME registration, HTTP transport — happens in newBenchFleet,
// strictly before b.ResetTimer; the timed region of the benchmark is
// the backlog drain alone, with per-iteration rescheduling bracketed
// out by StopTimer/StartTimer.
type benchFleet struct {
	names     []string
	serverFor func(me string) *amigo.Server
	drain     func(me string) error
	taskTmpl  []amigo.Task
}

// schedule refills every ME's backlog in-process (no HTTP); callers
// must keep it outside the benchmark timer.
func (f *benchFleet) schedule(b *testing.B) {
	b.Helper()
	for _, name := range f.names {
		if _, err := f.serverFor(name).ScheduleBatch(name, f.taskTmpl); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchFleet(b *testing.B, mes, shards int) *benchFleet {
	const workers = 32
	const leaseBatch = 64

	// serverFor maps an ME to the amigo server owning it, so register
	// and schedule skip HTTP; the timed drain goes over the wire (and,
	// when sharded, through the gateway's routing peek).
	var serverFor func(me string) *amigo.Server
	var hs *httptest.Server
	if shards > 1 {
		f, err := NewShardedFleet(ShardedConfig{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { f.Close() })
		ring := f.Ring()
		serverFor = func(me string) *amigo.Server { return f.Server(ring.Shard(me)) }
		hs = httptest.NewServer(f.Handler())
	} else {
		srv := amigo.NewServer(nil)
		serverFor = func(string) *amigo.Server { return srv }
		hs = httptest.NewServer(srv.Handler())
	}
	b.Cleanup(hs.Close)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}}

	// Canned payloads stand in for typical observations of each tool so
	// the codec moves representative bytes: speedtests are small, mtr
	// traces carry a multi-hop list (the bulk of a real campaign's
	// upload volume), dns is in between.
	canned := map[string]json.RawMessage{
		"speedtest": json.RawMessage(`{"server":"Karachi","latency_ms":87.3,"down_mbps":9.42,"up_mbps":3.11,"cqi":9,"rat":"4G","public_ip":"203.0.113.7"}`),
		"mtr": json.RawMessage(`{"target":"Google","hops":[` +
			`{"ttl":1,"addr":"10.64.0.1","rtt_ms":31.2},{"ttl":2},{"ttl":3},` +
			`{"ttl":4,"addr":"100.66.12.9","rtt_ms":58.7},{"ttl":5,"addr":"100.66.8.1","rtt_ms":61.0},` +
			`{"ttl":6,"addr":"185.210.48.33","rtt_ms":96.4},{"ttl":7,"addr":"185.210.48.12","rtt_ms":98.9},` +
			`{"ttl":8,"addr":"62.115.120.7","rtt_ms":121.5},{"ttl":9,"addr":"62.115.140.22","rtt_ms":128.8},` +
			`{"ttl":10,"addr":"72.14.204.68","rtt_ms":141.2},{"ttl":11,"addr":"142.251.52.145","rtt_ms":143.7},` +
			`{"ttl":12,"addr":"142.250.184.14","rtt_ms":144.1}]}`),
		"dns": json.RawMessage(`{"resolver":"8.8.8.8","backend":"172.217.16.4","backend_asn":15169,"anycast":true,"lookup_ms":42.6}`),
	}

	names := make([]string, mes)
	taskTmpl := make([]amigo.Task, benchTasksPerME)
	kinds := []string{"speedtest", "mtr", "dns"}
	for i := range taskTmpl {
		taskTmpl[i] = amigo.Task{Kind: kinds[i%len(kinds)], Config: "esim"}
	}
	for i := range names {
		names[i] = fmt.Sprintf("me-%05d", i)
		serverFor(names[i]).Register(names[i], "PAK")
	}

	finish := func(resp *http.Response) int {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// drain leases and uploads until the ME's queue is empty, acking
	// each batch on the next lease (unacked batches are re-delivered).
	// One encode buffer, read buffer, decoder and scratch per ME drain,
	// reused across rounds — the steady state allocates nothing per
	// round trip beyond what net/http itself does.
	drain := func(me string) error {
		ebuf := wire.GetBuf()
		defer wire.PutBuf(ebuf)
		rbuf := wire.GetBuf()
		defer wire.PutBuf(rbuf)
		dec := wire.GetDecoder()
		defer wire.PutDecoder(dec)
		var tasks []amigo.Task
		var results []amigo.Result
		ack := 0
		for {
			*ebuf = wire.AppendLeaseRequest((*ebuf)[:0],
				wire.LeaseRequest{ME: me, Max: leaseBatch, Ack: ack})
			resp, err := client.Post(hs.URL+"/v3/tasks/lease", wire.ContentType, bytes.NewReader(*ebuf))
			if err != nil {
				return err
			}
			if resp.StatusCode == http.StatusNoContent {
				finish(resp)
				return nil
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("v3 lease: HTTP %d", finish(resp))
			}
			h, payload, err := wire.ReadFrame(resp.Body, (*rbuf)[:0])
			*rbuf = payload
			finish(resp)
			if err == nil && h.Type != wire.MsgTasks {
				err = fmt.Errorf("v3 lease: unexpected frame type %#x", h.Type)
			}
			if err == nil {
				tasks, err = dec.Tasks(payload, tasks[:0])
			}
			if err != nil {
				return err
			}
			if n := len(tasks); n > 0 {
				ack = tasks[n-1].ID
			}
			results = results[:0]
			for _, task := range tasks {
				results = append(results, amigo.Result{TaskID: task.ID, ME: me, Kind: task.Kind, Config: task.Config, OK: true, Payload: canned[task.Kind]})
			}
			*ebuf = wire.AppendResults((*ebuf)[:0], results)
			up, err := client.Post(hs.URL+"/v3/results", wire.ContentType, bytes.NewReader(*ebuf))
			if err != nil {
				return err
			}
			if code := finish(up); code >= 300 {
				return fmt.Errorf("v3 upload: HTTP %d", code)
			}
		}
	}

	return &benchFleet{names: names, serverFor: serverFor, drain: drain, taskTmpl: taskTmpl}
}

func benchThroughput(b *testing.B, mes, shards int) {
	const workers = 32
	f := newBenchFleet(b, mes, shards)

	// Timer discipline: fixture construction above is untimed; each
	// iteration re-schedules the backlog off the clock and times only
	// the concurrent drain over the wire.
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		f.schedule(b)
		b.StartTimer()
		errs := make([]error, mes)
		runPool(workers, mes, func(i int) {
			errs[i] = f.drain(f.names[i])
		})
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	total := float64(b.N * mes * benchTasksPerME)
	b.ReportMetric(total/b.Elapsed().Seconds(), "results/s")
}
