GO ?= go

.PHONY: verify vet lint lint-json lint-allows lint-guard build test race bench bench-fleet bench-paper paper-race bench-json chaos-smoke metrics-smoke shard-smoke reshard-smoke vclock-smoke fuzz-short FORCE

## verify: the CI entry point — vet, the roamvet determinism/hygiene
## analyzers, build, race-enabled tests, a one-iteration fleet
## throughput smoke (the v3 lease/upload path), a short paper-pipeline
## benchmark run checked for byte-identical output, the paper pipeline's
## concurrency tests under the race detector, the chaos differential
## suite under the race detector, the observability endpoint smoke, the
## sharded control-plane / WAL durability smoke, the live-reshard +
## WAL-compaction smoke, and the virtual-time engine smoke.
verify: vet lint lint-guard build race bench-fleet bench-paper paper-race chaos-smoke metrics-smoke shard-smoke reshard-smoke vclock-smoke

vet:
	$(GO) vet ./...

## lint: run the nine roamvet analyzers (ROAM001-009) over the whole
## module; nonzero exit on any finding. The binary is rebuilt
## unconditionally — the Go build cache makes that cheap, and a
## prerequisite list built from $(wildcard) goes quietly stale when a
## source file is deleted (the list shrinks, the timestamp comparison
## passes, and an outdated roamvet green-lights the tree).
bin/roamvet: FORCE
	$(GO) build -o bin/roamvet ./cmd/roamvet

FORCE:

lint: bin/roamvet
	./bin/roamvet

## lint-json: findings plus the //lint:allow waiver inventory as JSON
## (for editor/CI integration).
lint-json: bin/roamvet
	./bin/roamvet -json

## lint-allows: the active //lint:allow directives — every place the
## tree opts out of a contract, and why.
lint-allows: bin/roamvet
	./bin/roamvet -allows

## lint-guard: assert a full-module roamvet run finishes inside its
## wall-clock budget (30s) — the flow-aware analyzers must stay cheap
## enough to run on every push.
lint-guard: bin/roamvet
	bash scripts/lint_guard.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: regenerate every table/figure benchmark (incl. the campaign
## serial-vs-parallel speedup headline).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

## bench-fleet: smoke-run the fleet control-plane throughput benchmark
## (one iteration, 10k-ME cases skipped via -short).
bench-fleet:
	$(GO) test -short -run=^$$ -bench=Fleet -benchtime=1x ./internal/fleet

## bench-paper: one short untraced run of the repository benchmark's
## paper workload (every artifact, checked byte-for-byte against a serial
## WriteAll); fails unless the result line reports "correct":true.
bench-paper:
	@last=$$(bash perfbench/run.sh --workload paper --seed 1 --seconds 3 --trace 0 | tail -n 1); \
	echo "$$last"; \
	case "$$last" in *'"correct":true'*) ;; *) echo "bench-paper: paper workload not correct" >&2; exit 1;; esac

## paper-race: the paper pipeline's concurrency tests, repeated under the
## race detector: WriteAll byte-identical across pool sizes, Confounders
## leaving the shared world unloaded, and the crawler's forced
## out-of-order pages, failure handling and connection reuse.
paper-race:
	$(GO) test -race -count=5 -run 'TestWriteAllDeterminism|TestConfoundersLeavesSharedWorldUnloaded' ./internal/experiments
	$(GO) test -race -count=5 -run 'TestCrawl|TestSnapshot' ./internal/esimdb

## bench-json: run the fleet throughput benchmark at 100/1000 MEs (one
## server and the 4-shard gateway) plus the realized 1000-ME campaign
## on the real and virtual clocks, and snapshot results/s and the
## ratios into BENCH_fleet.json (uploaded as a CI artifact so
## regressions are visible per-commit).
bench-json:
	bash scripts/bench_fleet.sh BENCH_fleet.json

## chaos-smoke: the fault-injection differential suite under the race
## detector — a chaos fleet run must ingest the byte-identical dataset a
## clean run does, and the fault schedule must replay from its seed.
chaos-smoke:
	$(GO) test -race -run 'TestFleetChaos|TestChaos' ./internal/fleet
	$(GO) test -race ./internal/chaos

## metrics-smoke: boot a real amigo-server, scrape /admin/metrics, and
## assert a non-empty, parseable Prometheus exposition that reflects
## live server state.
metrics-smoke:
	bash scripts/metrics_smoke.sh

## shard-smoke: the sharded control plane end to end — the differential
## and crash-recovery suites under the race detector, then the real
## binaries: roam-fleet killing a shard mid-campaign with -crosscheck,
## and a roam-gateway process killed and cold-restarted over its WALs.
shard-smoke:
	$(GO) test -race -run 'TestSharded|TestShardCrash|TestShardKill' ./internal/fleet
	$(GO) test -race ./internal/walsink ./internal/shard
	bash scripts/shard_smoke.sh

## reshard-smoke: WAL lifecycle end to end — compaction + torn-compaction
## recovery and the reshard differential suites under the race detector,
## then the real binaries: roam-fleet live-resharding 1→4 mid-campaign
## with compaction and -crosscheck, and roam-gateway cold-restarting
## over the resharded, partly compacted WAL set via the manifest.
reshard-smoke:
	$(GO) test -race -run 'TestReshard|TestCompaction|TestMovedMEs|TestRingBalance|TestGatewayPauseResume|TestMergedResults' ./internal/fleet ./internal/shard ./internal/walsink
	bash scripts/reshard_smoke.sh

## vclock-smoke: the virtual-time engine — the vclock unit suite under
## the race detector (scheduler, timers, contexts, deadlock/stall
## guards), then one fleet crosscheck: the clock differential test
## proving a virtual-time campaign ingests the byte-identical dataset a
## wall-clock run does, across scheduling, chaos, and realized pacing.
vclock-smoke:
	$(GO) test -race ./internal/vclock
	$(GO) test -race -run 'TestVirtualTimeEquivalence' ./internal/fleet

## fuzz-short: a 10s budget per native fuzz target, on top of the
## checked-in seed corpora (which always run as part of plain `go test`).
fuzz-short:
	$(GO) test -fuzz=FuzzDemarcate -fuzztime=10s -run=^$$ ./internal/core
	$(GO) test -fuzz=FuzzLeaseDecode -fuzztime=10s -run=^$$ ./internal/amigo
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=10s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=10s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s -run=^$$ ./internal/walsink
	$(GO) test -fuzz=FuzzCompactRecovery -fuzztime=10s -run=^$$ ./internal/walsink
