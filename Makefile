# Tier-1 verification plus the race check for the concurrent packages.
# `make check` is what CI (and pre-commit discipline) runs.

GO ?= go

.PHONY: check vet build test race monitor perfbench sweep-verify chaos shards fuzz bench bench-json bench-recovery bench-transport bench-store bench-sim bench-recorder scale-smoke sweep

check: vet build test race monitor perfbench sweep-verify chaos shards fuzz scale-smoke bench-transport bench-store bench-sim bench-recorder

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep engine runs simulations on real goroutines and the stable store
# claims concurrency safety (starhub drives it from multiple connections):
# both stay race-checked, plus a fast subset of the single-threaded core so
# accidental shared state in new instrumentation gets caught early.
race:
	$(GO) test -race ./internal/sweep ./internal/stablestore \
		./internal/metrics ./internal/trace ./internal/frame ./internal/simtime

# The online invariant monitor: its unit tests plus the cluster-level
# integration tests (duplicate flagged before quiescence, report determinism,
# monitor passivity), race-checked because the monitor hangs off the trace
# observer that every subsystem's hot path crosses. Also the typed-trace
# pins: zero allocations on the record path and on the monitor's per-event
# path (with the broken variant that proves the harness sees an
# allocation), and the golden exporter bytes.
monitor:
	$(GO) test -race ./internal/monitor
	$(GO) test -race -run 'Alloc|NoteText' -count=1 ./internal/trace
	$(GO) test -race -run 'TestMonitor|TestGolden' -count=1 .

# The benchmark is its own module on top of this one: vet and test it so an
# API change in trace or monitor that perfbench depends on fails here.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .

# The seeded fault-schedule sweep plus the invariant checker, race-checked:
# the harness runs baseline and faulted clusters on real goroutines via
# t.Parallel, so the sweep doubles as a race test of the whole stack.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 .

# The sharded replicated recorder path, race-checked: shard-map determinism
# and rebalance-minimality, follower promotion mid-replay, the sharded chaos
# baselines (replay-basis-union invariant, mid-handoff recorder crash), and
# the sharded monitor-passivity fingerprint. The recorders run on the
# single-threaded simulated clock, but the chaos harness drives baseline and
# faulted clusters on real goroutines, so -race has teeth here too.
shards:
	$(GO) test -race ./internal/recorder
	$(GO) test -race -run 'TestShardMap|TestFollowerPromotion|TestChaosSharded|TestMonitorPassivitySharded|TestMultiRec' -count=1 .

# Time-boxed native fuzzing of the three wire codecs (frame, replay batch,
# chaos schedule). Long exploratory runs are manual (`go test -fuzz X
# -fuzztime 10m ./internal/frame`); this keeps the corpora exercised and
# catches regressions the checked-in seeds reach quickly.
fuzz:
	$(GO) test ./internal/frame -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s
	$(GO) test ./internal/demos -run '^$$' -fuzz FuzzReplayBatchDecode -fuzztime 10s
	$(GO) test ./internal/chaos -run '^$$' -fuzz FuzzChaosSchedule -fuzztime 10s
	$(GO) test ./internal/stablestore -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 10s

# The parallel-vs-serial sweep determinism proof, without rewriting
# BENCH_sweep.json (use `make sweep` to refresh the trajectory file).
sweep-verify:
	$(GO) run ./cmd/experiments -verify

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Print the perf-trajectory snapshot for BENCH_baseline.json. benchjson's -o
# refuses to clobber an existing trajectory file, so regenerating the
# committed baseline is an explicit `make bench-json OUT=BENCH_baseline.json`
# after deleting it — or an -after update, never a silent overwrite.
bench-json:
ifdef OUT
	$(GO) test -bench 'BenchmarkFrameEncodeDecode|BenchmarkStableStoreAppend|BenchmarkRecorderPublish|BenchmarkClusterThroughput' -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -o $(OUT)
else
	$(GO) test -bench 'BenchmarkFrameEncodeDecode|BenchmarkStableStoreAppend|BenchmarkRecorderPublish|BenchmarkClusterThroughput' -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson
endif

# Refresh the "after" half of the recovery-path trajectory (BENCH_recovery.json
# keeps the pre-batching numbers as its "before") and print the deltas.
bench-recovery:
	$(GO) test -bench 'BenchmarkEndToEndRecovery|BenchmarkRecoveryReplay' -run '^$$' . \
		| $(GO) run ./cmd/benchjson -after BENCH_recovery.json batched, windowed replay pipeline

# The steady-state wire-efficiency trajectory: thesis per-message transport
# vs coalescing + delayed acks + adaptive RTO, as frames on the wire, ack
# frames per guaranteed message, and virtual completion time. The default
# (check-time) run re-measures and prints the snapshot without touching the
# committed BENCH_transport.json; regenerate it with
# `make bench-transport OUT=BENCH_transport.json` after deleting the old file.
bench-transport:
ifdef OUT
	$(GO) test -bench BenchmarkTransportWire -run '^$$' . | $(GO) run ./cmd/benchjson -o $(OUT) coalescing + delayed acks + adaptive RTO vs thesis per-message wire
else
	$(GO) test -bench BenchmarkTransportWire -run '^$$' . | $(GO) run ./cmd/benchjson
endif

# The storage-engine trajectory: paged vs log-structured segment store under
# the open-loop million-message workload (append throughput at a literal 10^6
# records via -benchtime 1000000x, checkpoint-truncation cost against segment
# count, recovery-rebuild time). The default (check-time) run measures a
# shorter stream and prints the snapshot without touching the committed
# BENCH_store.json; regenerate the trajectory with
# `make bench-store OUT=BENCH_store.json` after deleting the old file.
bench-store:
ifdef OUT
	{ $(GO) test -bench BenchmarkStoreMillionAppend -benchtime 1000000x -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkStoreTruncate|BenchmarkStoreReopen' -benchtime 20x -run '^$$' . ; } \
		| $(GO) run ./cmd/benchjson -o $(OUT) log-structured segment store with group commit vs paged engine
else
	{ $(GO) test -bench BenchmarkStoreMillionAppend -benchtime 100000x -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkStoreTruncate|BenchmarkStoreReopen' -benchtime 5x -run '^$$' . ; } \
		| $(GO) run ./cmd/benchjson
endif

# The recorder-availability trajectory: the 64-node crash->recovered cycle
# against the classic single recorder vs the sharded replicated trio —
# virtual recovery window plus the record count on the replay-serving
# recorder (the whole database vs the worker-shard leader's partition). The
# default (check-time) run re-measures and prints the snapshot without
# touching the committed BENCH_recorder.json; regenerate with
# `make bench-recorder OUT=BENCH_recorder.json` after deleting the old file.
bench-recorder:
ifdef OUT
	$(GO) test -bench 'BenchmarkRecoverySingleRecorder64|BenchmarkRecoveryShardUnion64' -benchtime 2x -run '^$$' . | $(GO) run ./cmd/benchjson -o $(OUT) recovery from the shard union vs the single-recorder funnel at 64 nodes
else
	$(GO) test -bench 'BenchmarkRecoverySingleRecorder64|BenchmarkRecoveryShardUnion64' -benchtime 2x -run '^$$' . | $(GO) run ./cmd/benchjson
endif

# The big-cluster simulator-throughput trajectory: events per wall second
# and virtual seconds per wall second on the workload-driven broadcast
# scenario at 8/64/256/1024 nodes, plus the monitored variant (see
# EXPERIMENTS.md). The default (check-time) run measures once
# per size and prints the snapshot without touching the committed
# BENCH_sim.json; refresh the trajectory's "after" half with
# `make bench-sim OUT=BENCH_sim.json` (the committed before half — the
# pre-overhaul hot loop — is preserved).
bench-sim:
ifdef OUT
	$(GO) test -bench BenchmarkSimThroughput -benchtime 2x -run '^$$' . 		| $(GO) run ./cmd/benchjson -after $(OUT) hot-loop overhaul; observer-ring batched monitoring
else
	$(GO) test -bench BenchmarkSimThroughput -run '^$$' . | $(GO) run ./cmd/benchjson
endif

# The 256-node scale smokes: same-seed double-run byte-identity of metrics
# and recorder databases, and the chaos-schedule sweep at cluster scale
# (including the 1024-node run). Both are testing.Short()-
# guarded so tier-1 `go test -short ./...` skips them; this target (wired
# into check) runs them in full.
scale-smoke:
	$(GO) test -run 'TestScaleDeterminism256|TestChaosSmoke256|TestChaosSmoke1024' -count=1 -v .

# Regenerate BENCH_sweep.json (parallel-vs-serial determinism proof).
sweep:
	$(GO) run ./cmd/experiments -sweep
