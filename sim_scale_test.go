package publishing_test

// Scale-determinism coverage for the big-cluster simulator work: the
// optimizations in simtime (4-ary heap), lan (no-fault broadcast fast
// path), and transport (dense per-destination tables, ownership-transfer
// sends) are only admissible while same-seed runs stay byte-identical.
// These tests pin that property at 256 nodes — the scale the hot loop was
// tuned for — on both the fault-free workload scenario and the chaos
// harness's faulted paths. They are heavyweight, so `go test -short`
// (tier-1) skips them; `make check` runs them in full.

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"publishing"
	"publishing/internal/chaos"
	"publishing/internal/simtime"
)

// scaleNodes is the cluster size the determinism tests run at.
const scaleNodes = 256

// runScaleFingerprint runs the workload scenario once and reduces the
// cluster's externally observable end state to bytes: the full metrics
// snapshot (every counter the stack touched, in registration order) and
// the recorder's stable-store database record by record.
func runScaleFingerprint(t *testing.T) (metricsText, storeDump []byte) {
	return runSimFingerprint(t, scaleNodes, 0)
}

// runSimFingerprint is runScaleFingerprint at an arbitrary node count and
// worker count: workers > 1 runs the scenario on the conservative parallel
// engine, whose whole contract is that these bytes come out identical.
func runSimFingerprint(t *testing.T, nodes, workers int) (metricsText, storeDump []byte) {
	t.Helper()
	s := buildSimCluster(nodes, simClusterSeed, false, func(cfg *publishing.Config) {
		cfg.ParWorkers = workers
	})
	s.c.Run(s.horizon + 2*simtime.Second)
	if got, want := atomic.LoadInt64(s.delivered), int64(s.sent); got != want {
		t.Fatalf("delivered %d of %d messages", got, want)
	}
	if workers > 1 {
		st := s.c.Engine().Stats()
		if st.InlineWindows+st.ParWindows == 0 {
			t.Fatalf("parallel engine never opened a window (stats %+v); the gate or lookahead wiring is broken", st)
		}
	}

	var mbuf bytes.Buffer
	if err := s.c.Metrics().Snapshot().WriteText(&mbuf); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	recs, err := s.c.Store().ReadAll()
	if err != nil {
		t.Fatalf("recorder store: %v", err)
	}
	var dbuf bytes.Buffer
	for _, r := range recs {
		fmt.Fprintf(&dbuf, "%d %q %d %x\n", r.Kind, r.Key, r.Seq, r.Data)
	}
	return mbuf.Bytes(), dbuf.Bytes()
}

// TestScaleDeterminism256 runs the 256-node scenario twice with the same
// seed and requires byte-identical metrics snapshots and recorder
// databases. Any hidden nondeterminism the optimizations introduced — map
// iteration, heap-shape-dependent tie-breaks, allocation-order identity —
// would surface here before it could corrupt an experiment.
func TestScaleDeterminism256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node double run; skipped in -short (tier-1) mode")
	}
	m1, d1 := runScaleFingerprint(t)
	m2, d2 := runScaleFingerprint(t)
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshots differ between same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", m1, m2)
	}
	if !bytes.Equal(d1, d2) {
		t.Errorf("recorder databases differ between same-seed runs (%d vs %d bytes)", len(d1), len(d2))
	}
}

// TestChaosSmoke256 keeps the fault paths honest at scale: the no-fault
// fast paths (gated-station sets, clean fault draws, dense tables) must
// not have bent the faulted slow paths. It drives generated fault
// schedules through the canonical chaos scenario on a 256-node cluster —
// 253 bystander stations make the broadcast delivery and per-destination
// state as wide as the throughput benchmark's — and requires every
// invariant to hold.
func TestChaosSmoke256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node chaos runs; skipped in -short (tier-1) mode")
	}
	// Two seeds chosen to cover both media kinds and both store engines
	// via ChaosSeedVariant's rotation.
	for _, seed := range []uint64{8, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			opt := publishing.ChaosSeedVariant(seed)
			opt.Nodes = scaleNodes
			sched := chaos.Generate(seed, chaos.DefaultLimits())
			res := chaos.Run(sched, publishing.ChaosBuild(opt), chaos.DefaultOptions())
			if !res.Passed {
				t.Errorf("chaos run failed at %d nodes:\n%s", scaleNodes, res.Report)
				for _, v := range res.Violations {
					t.Logf("violation: %+v", v)
				}
			}
		})
	}
}

// TestChaosSmoke1024 pushes the chaos scenario to 1024 bystander stations —
// the width the queuing analysis in EXPERIMENTS.md sizes the parallel
// engine against — on both engines. The parallel leg runs with the gate
// held closed by design (faults armed, monitor tracing on), so what it
// proves is that ParWorkers is always safe to leave on: the serial
// fallback must preserve every invariant at full width.
func TestChaosSmoke1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node chaos runs; skipped in -short (tier-1) mode")
	}
	// Seed 6 keeps ChaosSeedVariant on a single recorder (the parallel
	// engine declines recorder trios), so both legs run the same scenario.
	const seed = 6
	for _, par := range []int{0, 4} {
		par := par
		name := "serial"
		if par > 1 {
			name = fmt.Sprintf("parallel%d", par)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opt := publishing.ChaosSeedVariant(seed)
			opt.Nodes = 1024
			opt.ParWorkers = par
			sched := chaos.Generate(seed, chaos.DefaultLimits())
			res := chaos.Run(sched, publishing.ChaosBuild(opt), chaos.DefaultOptions())
			if !res.Passed {
				t.Errorf("chaos run failed at 1024 nodes (%s):\n%s", name, res.Report)
				for _, v := range res.Violations {
					t.Logf("violation: %+v", v)
				}
			}
		})
	}
}

// TestCheckpointTickDeterminism runs a 16-node cluster under the
// storage-balance checkpoint policy twice with the same seed. Checkpoints
// fire on several nodes within one tick, and each sends a notice and
// charges CPU, so the order the tick visits nodes in is observable: the
// metrics snapshots and recorder databases must still come out
// byte-identical.
func TestCheckpointTickDeterminism(t *testing.T) {
	run := func() (metricsText, storeDump []byte, ckNodes int) {
		s := buildSimCluster(16, simClusterSeed, false, func(cfg *publishing.Config) {
			cfg.CheckpointPolicy = publishing.CheckpointStorage
			cfg.CheckpointTick = 100 * simtime.Millisecond
		})
		s.c.Run(s.horizon + 2*simtime.Second)
		if got, want := atomic.LoadInt64(s.delivered), int64(s.sent); got != want {
			t.Fatalf("delivered %d of %d messages", got, want)
		}
		for _, n := range s.c.Nodes() {
			if s.c.Kernel(n).Stats().Checkpoints > 0 {
				ckNodes++
			}
		}
		var mbuf bytes.Buffer
		if err := s.c.Metrics().Snapshot().WriteText(&mbuf); err != nil {
			t.Fatal(err)
		}
		recs, err := s.c.Store().ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		var dbuf bytes.Buffer
		for _, r := range recs {
			fmt.Fprintf(&dbuf, "%d %q %d %x\n", r.Kind, r.Key, r.Seq, r.Data)
		}
		return mbuf.Bytes(), dbuf.Bytes(), ckNodes
	}
	m1, d1, ck := run()
	if ck < 2 {
		t.Fatalf("checkpoints on %d nodes; the scenario must checkpoint on several", ck)
	}
	m2, d2, _ := run()
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshots differ between same-seed runs")
	}
	if !bytes.Equal(d1, d2) {
		t.Errorf("recorder databases differ between same-seed runs (%d vs %d bytes)", len(d1), len(d2))
	}
}
