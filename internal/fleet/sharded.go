package fleet

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
	"roamsim/internal/walsink"
)

// ShardedConfig configures a self-hosted sharded control plane.
type ShardedConfig struct {
	// Shards is the shard count (default 1).
	Shards int
	// WALDir, when set, gives every shard a durable walsink WAL under
	// <WALDir>/shard-<i>; empty means in-memory sinks (no durability,
	// no shard-kill survival).
	WALDir string
	// SegmentBytes / SyncBytes tune the per-shard WALs (0 = walsink
	// defaults). Tests set a tiny SegmentBytes to force rotation.
	SegmentBytes int
	SyncBytes    int
	// Chaos, when set, draws the shard-kill schedule: after each
	// accepted upload, chaos.MaybeKillShard decides whether that shard
	// dies. The same injector's Middleware should be wrapped around
	// Handler() by the caller, exactly as with a single server.
	Chaos *chaos.Injector
	// ForceKill kills shard ForceKillShard after its first accepted
	// upload — the deterministic one-shot used by tests and the
	// -kill-shard flag, independent of any chaos schedule.
	ForceKill      bool
	ForceKillShard int
	// Reshards schedules live re-sharding mid-campaign (see
	// ReshardStep); requires WALDir — resharding replays the durable
	// log, so there is nothing to reshard from with in-memory sinks.
	Reshards []ReshardStep
	// CompactAfter, when > 0, compacts a shard's WAL whenever its
	// sealed-segment count reaches CompactAfter, folding the replayed
	// history into one canonical segment and retiring the sources.
	// Requires WALDir.
	CompactAfter int
	// ForceCompactKill kills shard ForceCompactKillShard at its first
	// compaction's post-rename crash point (compacted segment committed,
	// covered sources not yet removed) — the deterministic one-shot
	// analog of ForceKill for torn compactions, independent of any
	// chaos schedule.
	ForceCompactKill      bool
	ForceCompactKillShard int
	// Obs, when set, receives the gateway's routing counters and every
	// shard WAL's metrics (labeled shard=<i>), and backs the gateway's
	// /admin/metrics route.
	Obs *obs.Registry
}

func (c ShardedConfig) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// ShardedFleet self-hosts a horizontally sharded control plane: N
// amigo.Servers (each with its own result sink, optionally a durable
// WAL) behind a consistent-hash shard.Gateway. MEs talk to Handler()
// exactly as they would to one server; the harness also injects the
// shard-kill fault — dropping a shard's server wholesale and bringing
// up a fresh one over the dead shard's WAL — which is what the
// crash-recovery tests drive.
type ShardedFleet struct {
	cfg ShardedConfig
	gw  *shard.Gateway

	mu      sync.Mutex
	servers []*amigo.Server // current server per shard; guarded by mu
	sinks   []amigo.Sink    // survive kills, swapped by reshards; guarded by mu
	wals    []*walsink.Sink // nil entries when WALDir == ""; guarded by mu
	uploads []int           // accepted uploads per shard, this epoch; guarded by mu
	kills   int             // shard kills performed; guarded by mu
	forced  bool            // the ForceKill one-shot has fired; guarded by mu

	epoch         int                // live WAL epoch, bumped per reshard; guarded by mu
	total         int                // accepted uploads fleet-wide, across epochs; guarded by mu
	nextReshard   int                // next cfg.Reshards step to fire; guarded by mu
	resharding    bool               // a reshard is in flight; guarded by mu
	reshards      int                // reshards completed; guarded by mu
	lastReshard   shard.ReshardStats // stats of the latest reshard; guarded by mu
	reshardErr    error              // first reshard failure; guarded by mu
	compactPoints map[int]int        // compaction crash points seen per shard; guarded by mu
	compactForced bool               // the ForceCompactKill one-shot has fired; guarded by mu
	compactKills  int                // compact-kills performed; guarded by mu
	compactErr    error              // first non-crash compaction failure; guarded by mu
	wg            sync.WaitGroup     // in-flight reshard goroutine
}

// NewShardedFleet builds the shard servers, their sinks, and the
// gateway.
func NewShardedFleet(cfg ShardedConfig) (*ShardedFleet, error) {
	n := cfg.shards()
	epoch := 0
	if cfg.WALDir == "" {
		if len(cfg.Reshards) > 0 {
			return nil, fmt.Errorf("fleet: Reshards requires WALDir — resharding replays the durable log")
		}
		if cfg.CompactAfter > 0 {
			return nil, fmt.Errorf("fleet: CompactAfter requires WALDir")
		}
	} else {
		// Manifest-aware restart: an existing deployment may have
		// resharded, so the manifest — not the config — says which epoch
		// and shard count are live. A fresh directory gets the epoch-0
		// manifest written up front so cold recovery always has it.
		m, ok, err := readWALManifest(cfg.WALDir)
		if err != nil {
			return nil, err
		}
		if ok {
			epoch, n = m.Epoch, m.Shards
		} else if err := writeWALManifest(cfg.WALDir, walManifest{Epoch: 0, Shards: n}); err != nil {
			return nil, err
		}
	}
	for _, step := range cfg.Reshards {
		if step.Shards < 1 {
			return nil, fmt.Errorf("fleet: reshard step to %d shards", step.Shards)
		}
	}
	f := &ShardedFleet{
		cfg:           cfg,
		servers:       make([]*amigo.Server, n),
		sinks:         make([]amigo.Sink, n),
		wals:          make([]*walsink.Sink, n),
		uploads:       make([]int, n),
		epoch:         epoch,
		compactPoints: map[int]int{},
	}
	for i := 0; i < n; i++ {
		if cfg.WALDir != "" {
			wal, err := walsink.Open(EpochWALDir(cfg.WALDir, epoch, i), walsink.Options{
				SegmentBytes: cfg.SegmentBytes,
				SyncBytes:    cfg.SyncBytes,
				Obs:          cfg.Obs,
				Labels:       walLabels(i, epoch),
				CompactCrash: f.compactCrashFn(i),
			})
			if err != nil {
				f.Close()
				return nil, err
			}
			f.wals[i] = wal
			f.sinks[i] = wal
		} else {
			f.sinks[i] = amigo.NewMemorySink()
		}
		// Shard servers carry no registry of their own: the gateway and
		// the WALs own the sharded deployment's metrics, and a replacement
		// server after a kill must not re-register colliding gauges.
		f.servers[i] = amigo.NewServer(nil, amigo.WithSink(f.sinks[i]))
	}
	backends := make([]http.Handler, n)
	for i := 0; i < n; i++ {
		backends[i] = f.backend(i, f.servers[i])
	}
	f.gw = shard.NewGateway(backends, shard.Options{Obs: cfg.Obs})
	return f, nil
}

// ShardWALDir is the canonical WAL directory for one shard of a
// sharded deployment rooted at dir.
func ShardWALDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// Handler is the fleet-facing control plane: the gateway. Wrap it in
// chaos middleware (and an HTTP server) exactly as with a single amigo
// server.
func (f *ShardedFleet) Handler() http.Handler { return f.gw }

// Gateway exposes the underlying gateway.
func (f *ShardedFleet) Gateway() *shard.Gateway { return f.gw }

// Ring exposes shard placement, for benchmarks that schedule directly
// against shard servers.
func (f *ShardedFleet) Ring() *shard.Ring { return f.gw.Ring() }

// Server returns shard i's current server (the replacement, after a
// kill).
func (f *ShardedFleet) Server(i int) *amigo.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.servers[i]
}

// WAL returns shard i's WAL sink, or nil for in-memory deployments.
func (f *ShardedFleet) WAL(i int) *walsink.Sink {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wals[i]
}

// Kills reports how many shard kills have been performed.
func (f *ShardedFleet) Kills() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.kills
}

// Shards reports the current shard count — the original config's until
// a reshard changes it.
func (f *ShardedFleet) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.servers)
}

// Epoch reports the live WAL epoch (0 until the first reshard).
func (f *ShardedFleet) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Reshards reports how many reshards completed and the stats of the
// latest one.
func (f *ShardedFleet) Reshards() (int, shard.ReshardStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reshards, f.lastReshard
}

// ReshardErr returns the first reshard failure, if any. A failed
// reshard leaves the deployment on its previous epoch, still serving.
func (f *ShardedFleet) ReshardErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reshardErr
}

// CompactKills reports how many shards died at an injected compaction
// crash point.
func (f *ShardedFleet) CompactKills() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactKills
}

// CompactErr returns the first non-crash compaction failure, if any.
func (f *ShardedFleet) CompactErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactErr
}

// WaitIdle blocks until no reshard is in flight. Campaign harnesses
// call it before asserting on WAL or topology state: the last upload
// of a run may have fired a reshard that is still swapping.
func (f *ShardedFleet) WaitIdle() { f.wg.Wait() }

// backend wraps a shard server's mounted handler with the upload
// counter that drives the shard-kill fault: kills fire after a
// successful upload response, which is the interesting moment — the ME
// believes its results are safe, and only the WAL still has them.
func (f *ShardedFleet) backend(i int, srv *amigo.Server) http.Handler {
	mounted := shard.Mount(srv.Handler(), srv.AdminHandler())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !isUploadPath(r.URL.Path) {
			mounted.ServeHTTP(w, r)
			return
		}
		sw := &statusRecorder{ResponseWriter: w}
		mounted.ServeHTTP(sw, r)
		if sw.code < 300 {
			f.afterUpload(i)
		}
	})
}

func isUploadPath(path string) bool { return path == "/v3/results" }

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

// afterUpload counts shard i's accepted upload and runs the
// upload-triggered lifecycle machinery in a fixed order: maybe the
// shard dies (ForceKill one-shot or the chaos schedule), maybe its WAL
// compacts (CompactAfter threshold — which may itself die at an
// injected crash point and kill the shard), and maybe the next
// scheduled reshard fires (on its own goroutine; see maybeReshard).
func (f *ShardedFleet) afterUpload(i int) {
	f.mu.Lock()
	f.uploads[i]++
	f.total++
	n := f.uploads[i]
	total := f.total
	wal := f.wals[i]
	force := f.cfg.ForceKill && f.cfg.ForceKillShard == i && !f.forced
	if force {
		f.forced = true
	}
	f.mu.Unlock()
	if force || (f.cfg.Chaos != nil && f.cfg.Chaos.MaybeKillShard(i, n)) {
		f.KillShard(i)
	}
	f.maybeCompact(i, wal)
	f.maybeReshard(total)
}

// KillShard simulates shard i's process dying: its server — registry,
// task queues, ack cursors, idempotency keys, spool — is dropped
// wholesale and a fresh server is brought up over the same sink. For a
// WAL-backed shard that means every result drained to disk survives;
// everything in memory is gone, and MEs rediscover the shard via
// "unknown ME" responses and re-register (see Driver.runME).
//
// In-flight requests against the old server finish against it and
// drain into the shared sink; new requests route to the replacement.
func (f *ShardedFleet) KillShard(i int) {
	f.mu.Lock()
	fresh := amigo.NewServer(nil, amigo.WithSink(f.sinks[i]))
	f.servers[i] = fresh
	f.kills++
	f.mu.Unlock()
	f.gw.SetBackend(i, f.backend(i, fresh))
}

// Close waits out any in-flight reshard, then syncs and closes every
// WAL. The first error wins; in-memory deployments never error.
func (f *ShardedFleet) Close() error {
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for _, wal := range f.wals {
		if wal == nil {
			continue
		}
		if err := wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReplayWALs reopens the WALs of a sharded deployment rooted at dir
// and streams every durable result back, concatenated in shard order —
// the post-crash recovery read. The sinks are opened read-only in
// spirit (nothing is appended) and closed before returning.
func ReplayWALs(dir string, shards int) ([]amigo.Result, error) {
	var out []amigo.Result
	var err error
	for i := 0; i < shards; i++ {
		if out, err = replayDirInto(out, ShardWALDir(dir, i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
