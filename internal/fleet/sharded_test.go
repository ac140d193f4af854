package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
	"roamsim/internal/vclock"
)

// runShardedCampaign runs the chaos test plan against a self-hosted
// sharded control plane and returns the ingested artifacts plus the
// harness and driver for post-run assertions. The WAL lives in a test
// tempdir with a tiny segment size so rotation is exercised.
func runShardedCampaign(t *testing.T, cfg ShardedConfig, inj *chaos.Injector, reg *obs.Registry, workers int, clk vclock.Clock) (dsBlob []byte, table4, rtt string, f *ShardedFleet) {
	t.Helper()
	w := testWorld(t)
	plan := chaosTestPlan()
	f, err := NewShardedFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	var handler = f.Handler()
	if inj != nil {
		handler = inj.Middleware(handler)
	}
	hs := httptest.NewServer(handler)
	t.Cleanup(hs.Close)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: workers,
		LeaseBatch: 4, StreamLabel: "chaos-eq", Heartbeat: true,
		Chaos: inj, Obs: reg, Clock: clk}
	camp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Ingest(w.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return blob, Table4(ds, plan).String(), RTTSummary(ds, plan).String(), f
}

// TestShardedFleetEquivalence is the sharding differential test: the
// same seeded campaign, against 1 shard or 4 shards with durable WAL
// sinks, must ingest the byte-identical dataset, Table 4, and RTT
// summary as the clean single-server run. Placement is a pure function
// of ME name, so sharding is a deployment detail that must never change
// data.
func TestShardedFleetEquivalence(t *testing.T) {
	wantDS, wantT4, wantRTT := runChaosCampaign(t, nil, 1)
	if len(wantDS) == 0 || wantT4 == "" || wantRTT == "" {
		t.Fatal("empty baseline artifacts")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := ShardedConfig{
				Shards: shards, WALDir: t.TempDir(),
				SegmentBytes: 4096, // force rotation mid-campaign
			}
			gotDS, gotT4, gotRTT, f := runShardedCampaign(t, cfg, nil, nil, 4, nil)
			if !bytes.Equal(gotDS, wantDS) {
				t.Error("sharded dataset differs from single-server baseline")
			}
			if gotT4 != wantT4 {
				t.Errorf("Table 4 differs:\nsharded:\n%s\nbaseline:\n%s", gotT4, wantT4)
			}
			if gotRTT != wantRTT {
				t.Errorf("RTT summary differs:\nsharded:\n%s\nbaseline:\n%s", gotRTT, wantRTT)
			}
			// The WALs must actually have been written and rotated, or
			// the durability half of this test proved nothing.
			records, segments := 0, 0
			for i := 0; i < shards; i++ {
				wal := f.WAL(i)
				if err := wal.Err(); err != nil {
					t.Fatalf("shard %d WAL error: %v", i, err)
				}
				records += wal.Len()
				n, _ := wal.Segments()
				segments += n
			}
			if records == 0 {
				t.Error("no results reached any WAL")
			}
			if segments <= shards {
				t.Errorf("no WAL rotated (%d segments over %d shards) — shrink SegmentBytes", segments, shards)
			}
		})
	}
}

// TestShardCrashRecovery kills control-plane shards mid-campaign —
// dropping their registries, queues and idempotency state wholesale —
// under full chaos besides, and requires (a) the campaign still
// ingests the byte-identical dataset (zero lost, zero duplicated
// results), and (b) replaying the surviving WALs alone, as a cold
// post-crash recovery would, rebuilds that same dataset.
func TestShardCrashRecovery(t *testing.T) {
	runShardCrashRecoveryCases(t, func() vclock.Clock { return nil })
}

// TestShardCrashRecoveryVirtual re-runs the full crash-recovery matrix
// with the fleet driver on a virtual clock: WAL replay, shard-kill
// recovery, and cold rebuild are control-plane durability mechanics —
// they must be clock-agnostic, surviving a campaign whose waits were
// jumped instead of slept.
func TestShardCrashRecoveryVirtual(t *testing.T) {
	runShardCrashRecoveryCases(t, func() vclock.Clock { return vclock.NewVirtual() })
}

func runShardCrashRecoveryCases(t *testing.T, mkClock func() vclock.Clock) {
	wantDS, wantT4, _ := runChaosCampaign(t, nil, 1)

	cases := []struct {
		name string
		cfg  chaos.Config
		mod  func(*ShardedConfig)
	}{
		{
			// Deterministic one-shot: the busiest moment variant — a shard
			// dies right after acknowledging its first upload.
			name: "force-kill",
			cfg:  chaos.Config{},
			mod: func(c *ShardedConfig) {
				c.ForceKill = true
				// Kill the shard that actually owns an ME in this small
				// plan; placement is a pure function of the name.
				c.ForceKillShard = shard.NewRing(c.Shards).Shard("me-PAK-0")
			},
		},
		{
			// Seeded schedule under heavy chaos: kills land wherever the
			// stream puts them, on top of resets, storms and ME crashes.
			name: "chaos-schedule",
			cfg: func() chaos.Config {
				c := chaos.Heavy()
				c.ShardKill = 0.6
				c.MaxShardKills = 2
				return c
			}(),
			mod: func(c *ShardedConfig) {},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inj *chaos.Injector
			if tc.cfg != (chaos.Config{}) {
				inj = chaos.NewInjector(7, tc.cfg)
			}
			reg := obs.NewRegistry()
			walDir := t.TempDir()
			cfg := ShardedConfig{Shards: 4, WALDir: walDir, SegmentBytes: 4096, Chaos: inj}
			tc.mod(&cfg)
			gotDS, gotT4, _, f := runShardedCampaign(t, cfg, inj, reg, 4, mkClock())

			if f.Kills() == 0 {
				t.Fatal("no shard was killed; the test proved nothing")
			}
			if got := reg.Counter("fleet_shard_recoveries_total").Value(); got == 0 {
				t.Error("no ME ran shard recovery despite a kill")
			}
			if !bytes.Equal(gotDS, wantDS) {
				t.Error("dataset after shard kill differs from clean single-server baseline")
			}
			if gotT4 != wantT4 {
				t.Errorf("Table 4 after shard kill differs:\ngot:\n%s\nwant:\n%s", gotT4, wantT4)
			}

			// Cold recovery: close everything, reopen the WALs from disk,
			// and rebuild the dataset from the replay alone.
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			replayed, err := ReplayWALs(walDir, cfg.Shards)
			if err != nil {
				t.Fatal(err)
			}
			w := testWorld(t)
			plan := chaosTestPlan()
			camp := &Campaign{Plan: plan, Schedules: plan.Schedules(), Results: replayed}
			ds, err := Ingest(w.Reg, camp)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(ds)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, wantDS) {
				t.Error("dataset rebuilt from WAL replay differs from baseline")
			}
		})
	}
}

// TestShardKillDeterminism pins what IS deterministic about shard
// kills. The kill schedule keys on (shard, upload-index); with one
// worker the fleet's upload order is itself deterministic, so the full
// fault trace — kills included — replays exactly. With concurrent
// workers the Nth upload at a shard depends on goroutine interleaving,
// so the kill lands at a varying campaign moment; the dataset must be
// byte-identical regardless.
func TestShardKillDeterminism(t *testing.T) {
	mkInj := func() *chaos.Injector {
		cfg := chaos.Heavy()
		cfg.ShardKill = 0.6
		cfg.MaxShardKills = 2
		return chaos.NewInjector(7, cfg)
	}
	var traces []string
	var blobs [][]byte
	for _, workers := range []int{1, 1, 4} {
		inj := mkInj()
		shardCfg := ShardedConfig{Shards: 4, WALDir: t.TempDir(), Chaos: inj}
		blob, _, _, _ := runShardedCampaign(t, shardCfg, inj, nil, workers, nil)
		traces = append(traces, inj.TraceString())
		blobs = append(blobs, blob)
	}
	if traces[0] != traces[1] {
		t.Errorf("serial fault traces diverged across identical runs:\n--- run 0\n%s\n--- run 1\n%s", traces[0], traces[1])
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Error("serial datasets diverged across identical runs")
	}
	if !bytes.Equal(blobs[0], blobs[2]) {
		t.Error("dataset changed with worker count under shard kills")
	}
}

// TestCrashOnReplacedShardReschedules is the regression test for a
// crashed ME whose shard is replaced between its incarnations:
//
//  1. the ME's first incarnation runs one batch, and its upload kills
//     the ME's shard (ForceKill calls KillShard before the upload's
//     204 reaches the ME, so the fresh server is in place first);
//  2. the ME then crashes (Crash: 1, once);
//  3. its next incarnation re-registers on the fresh server and asks
//     it to re-deliver the schedule, as runME does after any crash.
//
// The fresh server never scheduled the ME, so Requeue must refuse and
// the ME must re-schedule under its pinned IDs. When Requeue restored
// "nothing" instead, the lease came back empty and the ME reported a
// clean drain with every task after its first batch lost. Each step is
// sequential within the one ME, so no interleaving or load is needed.
func TestCrashOnReplacedShardReschedules(t *testing.T) {
	w := testWorld(t)
	plan := Plan{
		Countries: []string{"PAK"},
		Tasks:     []amigo.Task{{Kind: "dns"}, {Kind: "mtr", Target: "Google"}},
		Configs:   []string{"sim", "esim"}, Reps: 2,
	}
	me := plan.Schedules()[0].Name
	f, err := NewShardedFleet(ShardedConfig{
		Shards: 2, WALDir: t.TempDir(),
		ForceKill: true, ForceKillShard: shard.NewRing(2).Shard(me),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	hs := httptest.NewServer(f.Handler())
	t.Cleanup(hs.Close)
	inj := chaos.NewInjector(1, chaos.Config{Crash: 1})
	reg := obs.NewRegistry()
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 1, LeaseBatch: 2,
		StreamLabel: "chaos-eq", Heartbeat: true, Chaos: inj, Obs: reg}
	camp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kills() != 1 || inj.Counts()["crash"] != 1 {
		t.Fatalf("kills = %d, crashes = %d; the scenario needs exactly one of each", f.Kills(), inj.Counts()["crash"])
	}
	if got := reg.Counter("fleet_shard_recoveries_total").Value(); got != 1 {
		t.Errorf("shard recoveries = %d, want 1 (the refused requeue)", got)
	}
	// Task IDs are allocated 1..N by the first schedule and pinned
	// across the recovery: each must land, and no other may appear.
	seen := map[int]bool{}
	for _, r := range camp.Results {
		seen[r.TaskID] = true
	}
	n := plan.TasksPerME()
	for id := 1; id <= n; id++ {
		if !seen[id] {
			t.Errorf("task %d never landed", id)
		}
	}
	if len(seen) != n {
		t.Errorf("%d distinct task IDs landed, want %d", len(seen), n)
	}
	// After Ingest's (ME, task ID) dedup each task is in the dataset
	// exactly once: the ingested dataset equals a clean run's.
	ds, err := Ingest(w.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(ds)
	_, clean := newControlServer(t)
	cd := &Driver{BaseURL: clean.URL, Seed: testSeed, Workers: 1, LeaseBatch: 2,
		StreamLabel: "chaos-eq", Heartbeat: true}
	cleanCamp, err := cd.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	cleanDS, err := Ingest(w.Reg, cleanCamp)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(cleanDS)
	if !bytes.Equal(got, want) {
		t.Error("dataset after crash + shard replacement differs from the clean run")
	}
}
