# Tier-1 verification plus the race check for the concurrent packages.
# `make check` is what CI (and pre-commit discipline) runs.

GO ?= go

.PHONY: check vet build test race monitor perfbench chaos shards fuzz bench bench-smoke scale-smoke

check: vet build test race monitor perfbench chaos shards fuzz scale-smoke bench-smoke

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
# accidental shared state in new instrumentation gets caught early. demos is
# here because its process switch is the one place the serial simulator
# crosses goroutine stacks (each process is an iter.Pull coroutine).
race:
	$(GO) test -race ./internal/sweep ./internal/stablestore \
		./internal/metrics ./internal/trace ./internal/frame ./internal/simtime \
		./internal/demos

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

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Every benchmark in the module, once, for its own correctness checks: the
# b.Fatalf calls on undelivered messages and incomplete workloads. The
# timings a single iteration prints mean nothing; speed is perfbench's job.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The 256-node scale smokes: same-seed double-run byte-identity of metrics
# and recorder databases, and the chaos-schedule sweep at cluster scale
# (including the 1024-node run). Both are testing.Short()-
# guarded so tier-1 `go test -short ./...` skips them; this target (wired
# into check) runs them in full.
scale-smoke:
	$(GO) test -run 'TestScaleDeterminism256|TestChaosSmoke256|TestChaosSmoke1024' -count=1 -v .
