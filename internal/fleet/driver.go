package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/vclock"
)

// Driver runs a fleet campaign against a live AmiGo control server.
type Driver struct {
	// BaseURL is the control server ("http://127.0.0.1:8080"). The
	// server must expose both the amigo Handler routes (/v1/, /v2/,
	// /v3/) and the AdminHandler routes.
	BaseURL string
	// Client is the HTTP client shared by every ME; nil gets a
	// keep-alive-tuned default (the fleet would otherwise exhaust
	// ephemeral ports on connection churn).
	Client *http.Client
	// Seed roots the campaign's deterministic randomness.
	Seed int64
	// Workers bounds the ME worker pool (0 = GOMAXPROCS). Ignored when
	// Clock is a *vclock.Virtual: a virtual campaign spawns every ME as
	// a registered clock waiter, because a worker pool would make the
	// ME-to-worker assignment — and with it the quiescence schedule and
	// final virtual timestamp — depend on scheduling instead of the seed.
	Workers int
	// LeaseBatch is the max tasks leased per round trip (default 32).
	LeaseBatch int
	// Proto must be "" or amigo.ProtoV3: v3 frames are the only
	// lease/upload protocol, so the field selects nothing. It exists
	// only because the repository benchmark (perfbench) still sets it;
	// once that caller drops it, so can the field. Any other value
	// fails Run.
	Proto string
	// StreamLabel names the campaign's parent rng fork (default
	// "fleet"; "table4" reproduces the in-process device campaign's
	// streams exactly).
	StreamLabel string
	// Heartbeat makes each ME report vitals once after registering,
	// as the paper's device campaign did. Heartbeats draw from the
	// ME's radio stream, so this must match between runs being
	// compared.
	Heartbeat bool
	// Chaos, when set, injects deterministic faults: each ME's HTTP
	// transport is wrapped per incarnation, retry jitter draws from an
	// out-of-band stream keyed on the injector's seed, and MEs may
	// crash between batches and replay their schedule. The server side
	// must be wrapped with the same injector's Middleware. The
	// ingested dataset is unchanged by chaos — faults cost retries,
	// never data.
	Chaos *chaos.Injector
	// RestartBudget caps per-ME restarts — injected crashes plus
	// straggler-watchdog kills — before the campaign errors out
	// (default: the chaos config's crash cap + 3).
	RestartBudget int
	// Straggler, when positive, is the per-incarnation watchdog on the
	// campaign clock: an ME stuck that long behind pathological faults
	// is cancelled and restarted, consuming restart budget. A watchdog
	// kill changes the fault trace (an extra incarnation) but never
	// the dataset; it is an escape hatch, off by default. On a virtual
	// clock the deadline can only fire while the ME is parked in a
	// clock wait, so kills are deterministic too.
	Straggler time.Duration
	// Clock is the campaign time source (nil = wall clock). Inject a
	// *vclock.Virtual to run the campaign on discrete-event time: waits
	// are jumped instead of slept, Stats.Elapsed becomes the campaign's
	// virtual makespan, and the ingested dataset is byte-identical to a
	// real-clock run (TestVirtualTimeEquivalence).
	Clock vclock.Clock
	// Realize makes every ME spend each task's simulated network
	// duration on Clock (see amigo.Endpoint.Realize) — realistic pacing
	// on a real clock, free on a virtual one. Datasets are unaffected.
	Realize bool
	// Obs, when set, records fleet-level metrics (incarnations, task
	// throughput, watchdog kills, chaos fault counts) and trace events
	// into the registry, and propagates it to every ME endpoint.
	// Instrumentation never touches the per-ME rng streams, so campaign
	// datasets are byte-identical with or without it.
	Obs *obs.Registry

	met driverMetrics
}

// driverMetrics are the fleet campaign counters, created once per Run
// so the per-ME and per-batch paths touch only atomics.
type driverMetrics struct {
	incarnations    *obs.Counter // ME lifetimes started (first runs + restarts)
	crashRestarts   *obs.Counter // restarts caused by injected crashes
	watchdogKills   *obs.Counter // stragglers cancelled and restarted
	tasksExecuted   *obs.Counter // tasks executed across all MEs
	meFailures      *obs.Counter // MEs whose lifecycle ended in an error
	shardRecoveries *obs.Counter // re-register/re-schedule cycles after a shard lost its state
}

// initObs creates the metric handles (nil no-ops when no registry is
// attached) and registers the chaos fault-count gauges.
func (d *Driver) initObs() {
	d.met = driverMetrics{
		incarnations:    d.Obs.Counter("fleet_incarnations_total"),
		crashRestarts:   d.Obs.Counter("fleet_crash_restarts_total"),
		watchdogKills:   d.Obs.Counter("fleet_watchdog_kills_total"),
		tasksExecuted:   d.Obs.Counter("fleet_tasks_executed_total"),
		meFailures:      d.Obs.Counter("fleet_me_failures_total"),
		shardRecoveries: d.Obs.Counter("fleet_shard_recoveries_total"),
	}
	if d.Obs != nil && d.Chaos != nil {
		inj := d.Chaos
		for _, kind := range chaos.FaultKinds {
			kind := kind
			d.Obs.CounterFunc("fleet_chaos_faults_total", func() float64 {
				return float64(inj.Counts()[kind])
			}, obs.L("kind", kind))
		}
	}
}

// Stats summarizes one campaign run.
type Stats struct {
	MEs            int
	TasksScheduled int
	Results        int
	Elapsed        time.Duration
}

// Campaign is the output of a driver run: the expanded plan, every
// uploaded result fetched back from the server, and run stats.
type Campaign struct {
	Plan      Plan
	Schedules []MESchedule
	Results   []amigo.Result
	Stats     Stats
}

func (d *Driver) client() *http.Client {
	if d.Client != nil {
		return d.Client
	}
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
}

func (d *Driver) workers() int {
	if d.Workers > 0 {
		return d.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (d *Driver) clock() vclock.Clock {
	if d.Clock != nil {
		return d.Clock
	}
	return vclock.Wall
}

func (d *Driver) leaseBatch() int {
	if d.LeaseBatch > 0 {
		return d.LeaseBatch
	}
	return 32
}

func (d *Driver) streamLabel() string {
	if d.StreamLabel != "" {
		return d.StreamLabel
	}
	return "fleet"
}

func (d *Driver) restartBudget() int {
	if d.RestartBudget > 0 {
		return d.RestartBudget
	}
	budget := 3
	if d.Chaos != nil {
		cfg := d.Chaos.Config()
		crashes := cfg.MaxCrashes
		if crashes == 0 && cfg.Crash > 0 {
			crashes = 1
		}
		budget += crashes
	}
	return budget
}

// Run executes the plan: every ME registers, receives its schedule,
// then leases, executes and uploads in batches until drained; finally
// the uploaded results are fetched back from the server.
//
// Determinism: per-ME rng streams are pre-forked serially in schedule
// order before the pool starts, and each ME's tasks execute in queue
// order within its own goroutine, so uploaded payloads depend only on
// (seed, plan), never on Workers or scheduling. Only the arrival order
// of results varies; Ingest canonicalizes it.
func (d *Driver) Run(w *airalo.World, plan Plan) (*Campaign, error) {
	plan = plan.withDefaults()
	scheds := plan.Schedules()
	for _, sc := range scheds {
		if w.Deployments[sc.ISO] == nil {
			return nil, fmt.Errorf("fleet: no deployment for country %q", sc.ISO)
		}
	}
	if d.Proto != "" && d.Proto != amigo.ProtoV3 {
		return nil, fmt.Errorf("fleet: unknown protocol %q (v3 is the only one)", d.Proto)
	}
	d.initObs()
	client := d.client()
	if d.Chaos != nil {
		// Latency spikes stall on the campaign clock, not the wall.
		d.Chaos.SetClock(d.clock())
	}

	// Pre-fork, then spawn: one child SEED per ME, captured serially in
	// canonical schedule order (see internal/rng). Storing the seed
	// rather than the Source lets a crashed ME recreate its stream from
	// the top and replay its schedule byte-identically.
	parent := rng.New(d.Seed).Fork(d.streamLabel())
	seeds := make([]int64, len(scheds))
	for i, sc := range scheds {
		seeds[i] = parent.ForkSeed(sc.Label)
	}

	startCursor, err := d.fetchCursor(client)
	if err != nil {
		return nil, err
	}

	start := d.clock().Now()
	errs := make([]error, len(scheds))
	if v, ok := d.clock().(*vclock.Virtual); ok {
		// Virtual time: every ME is a registered clock waiter, all
		// spawned after the whole cohort is added (the rng pre-fork rule
		// applied to the waiter registry). Quiescence is then a global
		// barrier over the full fleet, so the advance sequence — and the
		// final virtual timestamp — is a pure function of (seed, plan),
		// independent of Workers and GOMAXPROCS.
		var wg sync.WaitGroup
		v.Add(len(scheds))
		wg.Add(len(scheds))
		for i := range scheds {
			i := i
			go func() {
				defer wg.Done()
				defer v.Done()
				errs[i] = d.runME(client, scheds[i], w.Deployments[scheds[i].ISO], seeds[i])
			}()
		}
		wg.Wait()
	} else {
		runPool(d.workers(), len(scheds), func(i int) {
			errs[i] = d.runME(client, scheds[i], w.Deployments[scheds[i].ISO], seeds[i])
		})
	}
	// Report every failed ME, not just the first: a campaign debugging
	// session needs to see whether one straggler died or half the fleet
	// did, and which MEs by name.
	var failures []error
	for i, err := range errs {
		if err != nil {
			d.met.meFailures.Add(1)
			failures = append(failures, fmt.Errorf("%s: %w", scheds[i].Name, err))
		}
	}
	if len(failures) > 0 {
		return nil, fmt.Errorf("fleet: %d/%d MEs failed: %w", len(failures), len(scheds), errors.Join(failures...))
	}

	results, err := d.fetchResults(client, startCursor)
	if err != nil {
		return nil, err
	}
	camp := &Campaign{
		Plan:      plan,
		Schedules: scheds,
		Results:   results,
		Stats: Stats{
			MEs:            len(scheds),
			TasksScheduled: len(scheds) * plan.TasksPerME(),
			Results:        len(results),
			Elapsed:        d.clock().Now().Sub(start),
		},
	}
	return camp, nil
}

// runME is the per-ME lifecycle with crash tolerance: run incarnations
// until one drains the queue cleanly. An injected crash or a straggler
// watchdog kill starts the next incarnation, which replays the full
// schedule from a recreated rng stream; the schedule is only POSTed
// once — later incarnations ask the server to re-deliver it instead, so
// task IDs (and therefore idempotency keys) are stable across restarts.
//
// Shard recovery: when the control plane answers "unknown ME"
// (amigo.ErrUnknownME) mid-campaign, the shard that knew this ME has
// lost its in-memory state — a killed shard came back as a fresh
// server over its surviving WAL. The next incarnation re-registers and
// re-POSTs the schedule with the task IDs pinned from the first
// schedule, so re-executed uploads carry the same (ME, TaskID)
// identities and dedup to nothing at ingest.
func (d *Driver) runME(client *http.Client, sc MESchedule, dep *airalo.Deployment, seed int64) error {
	scheduled := false
	recoveries := 0
	tasks := append([]amigo.Task(nil), sc.Tasks...)
	for inc := 0; ; inc++ {
		crashed, err := d.runIncarnation(client, sc, dep, seed, inc, &scheduled, tasks)
		if err != nil {
			if errors.Is(err, amigo.ErrUnknownME) && recoveries < d.restartBudget() {
				recoveries++
				scheduled = false // re-register and re-schedule with pinned IDs
				d.met.shardRecoveries.Add(1)
				d.Obs.Trace().Record("shard-recover",
					obs.L("me", sc.Name), obs.L("inc", fmt.Sprint(inc)))
				continue
			}
			if d.Straggler > 0 && errors.Is(err, context.DeadlineExceeded) && inc < d.restartBudget() {
				d.met.watchdogKills.Add(1)
				d.Obs.Trace().Record("watchdog-kill",
					obs.L("me", sc.Name), obs.L("inc", fmt.Sprint(inc)))
				continue // watchdog kill: reclaim the straggler, restart it
			}
			return err
		}
		if !crashed {
			return nil
		}
		if inc+1 > d.restartBudget() {
			return fmt.Errorf("fleet: %s exceeded restart budget (%d)", sc.Name, d.restartBudget())
		}
		d.met.crashRestarts.Add(1)
		d.Obs.Trace().Record("crash-restart",
			obs.L("me", sc.Name), obs.L("inc", fmt.Sprint(inc)))
	}
}

// runIncarnation runs one ME lifetime: register, obtain the schedule
// (POST it the first time, re-deliver it after a crash), optionally
// heartbeat, then lease/execute/upload until drained. It reports
// crashed=true when the chaos injector kills the ME between batches.
// The first successful schedule pins the server-assigned task IDs into
// tasks (in place), so a shard-recovery re-schedule reuses them; a
// schedule response with the wrong number of IDs is an error, because
// unpinned IDs would let a later recovery replay under fresh IDs that
// Ingest's (ME, task ID) dedup cannot match.
func (d *Driver) runIncarnation(client *http.Client, sc MESchedule, dep *airalo.Deployment, seed int64, inc int, scheduled *bool, tasks []amigo.Task) (crashed bool, err error) {
	ctx := context.Background()
	if d.Straggler > 0 {
		var cancel context.CancelFunc
		ctx, cancel = vclock.ContextWithTimeout(ctx, d.clock(), d.Straggler)
		defer cancel()
	}

	// Recreating the stream from the stored seed makes every
	// incarnation's draws — heartbeat vitals included — identical to the
	// first run's, so replayed payloads are byte-identical and server
	// dedup can drop them.
	d.met.incarnations.Add(1)
	ep := amigo.NewEndpoint(sc.Name, d.BaseURL, dep, rng.New(seed))
	ep.Client = client
	ep.Ctx = ctx
	ep.Obs = d.Obs
	ep.Clock = d.clock()
	ep.Realize = d.Realize
	if d.Chaos != nil {
		// Fault injection wraps this incarnation's transport; retry
		// jitter draws from a stateless out-of-band stream so backoff
		// timing never perturbs the measurement stream.
		ep.Client = &http.Client{Transport: d.Chaos.Transport(sc.Name, inc, client.Transport)}
		ep.Retry.Jitter = rng.Stream(d.Chaos.Seed(), fmt.Sprintf("jitter/%s/%d", sc.Name, inc))
	}

	if err := ep.Register(); err != nil {
		return false, err
	}
	if !*scheduled {
		ids, err := d.scheduleBatch(client, sc.Name, tasks)
		if err != nil {
			return false, err
		}
		if len(ids) != len(tasks) {
			return false, fmt.Errorf("fleet: schedule %s: server returned %d task IDs for %d tasks", sc.Name, len(ids), len(tasks))
		}
		for i := range tasks {
			tasks[i].ID = ids[i]
		}
		*scheduled = true
	} else if err := ep.Redeliver(); err != nil {
		return false, err
	}
	if d.Heartbeat {
		if err := ep.Heartbeat(); err != nil {
			return false, err
		}
	}
	for round := 0; ; round++ {
		n, err := ep.RunBatch(d.leaseBatch())
		if err != nil {
			return false, err
		}
		if n == 0 {
			return false, nil
		}
		d.met.tasksExecuted.Add(int64(n))
		if d.Chaos != nil && d.Chaos.MaybeCrash(sc.Name, inc, round) {
			return true, nil
		}
	}
}

// drainBody discards a bounded amount of unread body before closing so
// the connection is recycled into the keep-alive pool; a response
// bigger than the bound is cheaper to abandon than to drain.
func drainBody(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 256<<10))
	body.Close()
}

// scheduleBatch POSTs the ME's schedule and returns the task IDs the
// server assigned (or honored, when the tasks carried pinned IDs).
func (d *Driver) scheduleBatch(client *http.Client, me string, tasks []amigo.Task) ([]int, error) {
	buf, err := json.Marshal(map[string]any{"me": me, "tasks": tasks})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(d.BaseURL+"/admin/schedule", "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		drainBody(resp.Body)
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("fleet: schedule %s: HTTP %d: %w", me, resp.StatusCode, amigo.ErrUnknownME)
		}
		return nil, fmt.Errorf("fleet: schedule %s: HTTP %d", me, resp.StatusCode)
	}
	var out struct {
		TaskIDs []int `json:"task_ids"`
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&out)
	drainBody(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("fleet: schedule %s: decoding response: %w", me, err)
	}
	return out.TaskIDs, nil
}

type resultsPage struct {
	Cursor  int            `json:"cursor"`
	Results []amigo.Result `json:"results"`
}

func (d *Driver) fetchPage(client *http.Client, cursor, limit int) (resultsPage, error) {
	var page resultsPage
	url := fmt.Sprintf("%s/admin/results?cursor=%d", d.BaseURL, cursor)
	if limit > 0 {
		url += fmt.Sprintf("&limit=%d", limit)
	}
	resp, err := client.Get(url)
	if err != nil {
		return page, err
	}
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return page, fmt.Errorf("fleet: results: HTTP %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	return page, err
}

func (d *Driver) fetchCursor(client *http.Client) (int, error) {
	page, err := d.fetchPage(client, -1, 0)
	return page.Cursor, err
}

// fetchResults pages through /admin/results from the given cursor.
func (d *Driver) fetchResults(client *http.Client, cursor int) ([]amigo.Result, error) {
	const pageSize = 5000
	var out []amigo.Result
	for {
		page, err := d.fetchPage(client, cursor, pageSize)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Results...)
		if len(page.Results) == 0 || page.Cursor <= cursor {
			return out, nil
		}
		cursor = page.Cursor
	}
}

// RunInProcess executes the same plan the way the paper's campaign ran:
// serially, one ME at a time, against a private control server, each ME
// leasing its whole schedule in one batch. It is the oracle the fleet
// driver is cross-checked against: for equal (seed, label, heartbeat,
// plan) it produces byte-identical ingested datasets.
func RunInProcess(w *airalo.World, plan Plan, seed int64, label string, heartbeat bool) (*Campaign, error) {
	plan = plan.withDefaults()
	scheds := plan.Schedules()
	srv := amigo.NewServer(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	parent := rng.New(seed).Fork(label)
	start := vclock.Wall.Now()
	for _, sc := range scheds {
		dep := w.Deployments[sc.ISO]
		if dep == nil {
			return nil, fmt.Errorf("fleet: no deployment for country %q", sc.ISO)
		}
		ep := amigo.NewEndpoint(sc.Name, hs.URL, dep, parent.Fork(sc.Label))
		if err := ep.Register(); err != nil {
			return nil, err
		}
		if _, err := srv.ScheduleBatch(sc.Name, sc.Tasks); err != nil {
			return nil, err
		}
		if heartbeat {
			if err := ep.Heartbeat(); err != nil {
				return nil, err
			}
		}
		for {
			n, err := ep.RunBatch(len(sc.Tasks))
			if err != nil {
				return nil, err
			}
			if n == 0 {
				break
			}
		}
	}
	results := srv.Results()
	return &Campaign{
		Plan:      plan,
		Schedules: scheds,
		Results:   results,
		Stats: Stats{
			MEs:            len(scheds),
			TasksScheduled: len(scheds) * plan.TasksPerME(),
			Results:        len(results),
			Elapsed:        vclock.Wall.Now().Sub(start),
		},
	}, nil
}

// runPool executes n index-addressed jobs on a bounded worker pool.
func runPool(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
