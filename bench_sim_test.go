package publishing_test

// Big-cluster simulator throughput: the workload-driven broadcast scenario
// behind BENCH_sim.json. An internal/workload open-loop Poisson stream
// (hotspot-skewed publishers, fan-out subscriber draws) is re-expressed as
// cluster traffic — every arrival becomes a guaranteed fan-out publication
// through the full stack: kernel send, medium broadcast, recorder tap +
// publish, transport acks, §4.4.1 acceptance-order accounting. The headline
// metrics are simulator events per wall second and virtual seconds simulated
// per wall second, the quantities that decide whether hundred-node scenarios
// are runnable at all.
//
// The same scenario backs the scale-determinism tests (sim_scale_test.go):
// optimization work on the hot loop is only accepted while same-seed runs
// stay byte-identical.

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"publishing"
	"publishing/internal/simtime"
	"publishing/internal/workload"
)

// simClusterSeed is the fixed scenario seed shared by the benchmarks, the
// determinism tests, and the 256-node chaos smoke.
const simClusterSeed = 7

// simClusterScale derives the workload shape from the node count: ~8
// messages per node at ~10 messages/second/proc, fan-out 2, with a fifth of
// the traffic concentrated on a 1/16 hot set — the floodsub-style load the
// ROADMAP's big-cluster scenarios assume.
func simClusterScale(nodes int) workload.Config {
	hot := nodes / 16
	if hot < 1 {
		hot = 1
	}
	// The aggregate arrival rate tops out at the 256-node figure. The
	// modeled 100 Mb/s LAN serializes a data frame in ~60 µs, so 10·N
	// arrivals/s at fan-out 2 crosses channel saturation (utilization > 1)
	// between 256 and 1024 nodes — an open-loop overload whose queues grow
	// without bound and that no drain window clears. Holding the channel at
	// the 256-node operating point (~0.31 data-frame utilization) lets node
	// count stress the simulator rather than the modeled queue; the
	// utilization arithmetic is worked in EXPERIMENTS.md.
	rate := 10 * float64(nodes)
	if nodes > 256 {
		rate = 10 * 256
	}
	return workload.Config{
		Seed:     simClusterSeed,
		Procs:    nodes,
		Rate:     rate,
		Hotspot:  0.2,
		HotProcs: hot,
		MsgBytes: 96,
		FanOut:   2,
	}
}

// simCluster is a built-but-not-yet-run scenario: the determinism tests in
// sim_scale_test.go run it themselves so they can fingerprint the cluster's
// metrics and recorder database afterwards.
type simCluster struct {
	c         *publishing.Cluster
	horizon   simtime.Time
	sent      int
	delivered *int64
}

// buildSimCluster assembles the scenario without running it. Optional
// mutators adjust the config after the standard scenario knobs are set
// (e.g. the sharded-recorder passivity test turns on the recorder trio).
func buildSimCluster(nodes int, seed uint64, monitored bool, mutate ...func(*publishing.Config)) *simCluster {
	wcfg := simClusterScale(nodes)
	wcfg.Seed = seed
	events := workload.Msgs(wcfg, 8*nodes)
	scheds := make([][]workload.MsgEvent, nodes)
	horizon := simtime.Time(0)
	sent := 0
	for _, ev := range events {
		scheds[ev.Pub] = append(scheds[ev.Pub], ev)
		sent += len(ev.Subs)
		if ev.At > horizon {
			horizon = ev.At
		}
	}

	cfg := publishing.DefaultConfig(nodes)
	cfg.Seed = seed
	// A modern fast LAN: the Fig 5.2 10 Mb/s Ethernet saturates long before
	// 256 nodes' offered load; the simulator, not the modeled channel, is
	// what this scenario stresses.
	cfg.LAN.BitsPerSecond = 100_000_000
	cfg.LAN.InterframeGap = 50 * simtime.Microsecond
	if nodes > 256 {
		// Past 256 nodes even the fast LAN saturates — not on data frames
		// (the arrival rate is capped, see simClusterScale) but on per-node
		// background traffic: the 50 µs interframe gap bounds the channel at
		// ~16.6k frames/s, and 1024 nodes' watchdog pings plus delayed-ack
		// flushes alone approach that ceiling during the burst, which shows
		// up as a spurious-retransmit storm. Model a switched 1 Gb/s fabric
		// (5 µs gap, ~160k frames/s) so utilization drops back to ~0.1; the
		// arithmetic is worked in EXPERIMENTS.md.
		cfg.LAN.BitsPerSecond = 1_000_000_000
		cfg.LAN.InterframeGap = 5 * simtime.Microsecond
	}
	if monitored {
		cfg.Monitor = true
		cfg.FlightRecorder = 4096
	}
	for _, m := range mutate {
		m(&cfg)
	}
	c := publishing.New(cfg)
	if !monitored {
		c.Trace().Enable(false)
	}

	var delivered int64
	c.Registry().RegisterMachine("sink", func(args []byte) publishing.Machine {
		return &simSink{delivered: &delivered}
	})
	sinkNames := make([]string, nodes)
	for i := range sinkNames {
		sinkNames[i] = fmt.Sprintf("sink%d", i)
	}
	body := make([]byte, wcfg.MsgBytes)
	c.Registry().RegisterProgram("pub", func(args []byte) publishing.Program {
		sched := scheds[binary.BigEndian.Uint32(args)]
		return func(ctx *publishing.PCtx) {
			links := make([]publishing.LinkID, nodes)
			have := make([]bool, nodes)
			last := simtime.Time(0)
			for _, ev := range sched {
				if d := ev.At - last; d > 0 {
					ctx.Compute(d)
				}
				last = ev.At
				for _, sub := range ev.Subs {
					if !have[sub] {
						l, err := ctx.ServiceLink(sinkNames[sub])
						if err != nil {
							panic(err)
						}
						links[sub], have[sub] = l, true
					}
					_ = ctx.Send(links[sub], body, publishing.NoLink)
				}
			}
		}
	})

	for i := 0; i < nodes; i++ {
		pid, err := c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "sink", Recoverable: true})
		if err != nil {
			panic(err)
		}
		c.SetService(sinkNames[i], pid)
	}
	for i := 0; i < nodes; i++ {
		var args [4]byte
		binary.BigEndian.PutUint32(args[:], uint32(i))
		if _, err := c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "pub", Args: args[:], Recoverable: true}); err != nil {
			panic(err)
		}
	}

	return &simCluster{c: c, horizon: horizon, sent: sent, delivered: &delivered}
}

// simSink counts consumed messages; the count doubles as the benchmark's
// delivery check (no-fault scenario: every send must arrive exactly once).
type simSink struct {
	n         int64
	delivered *int64
}

func (s *simSink) Init(ctx *publishing.PCtx) {}
func (s *simSink) Handle(ctx *publishing.PCtx, m publishing.Msg) {
	s.n++
	*s.delivered++
}
func (s *simSink) Snapshot() ([]byte, error) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(s.n))
	return b[:], nil
}
func (s *simSink) Restore(b []byte) error {
	s.n = int64(binary.BigEndian.Uint64(b))
	return nil
}

// BenchmarkSimThroughput is the tentpole metric of the big-cluster work:
// simulator hot-loop throughput at 8, 64, 256, and 1024 nodes.
func BenchmarkSimThroughput(b *testing.B) {
	for _, nodes := range []int{8, 64, 256, 1024} {
		b.Run(fmt.Sprintf("%dnodes", nodes), func(b *testing.B) {
			benchSimCluster(b, nodes, false)
		})
	}
}

// BenchmarkSimThroughputMonitored is the 256-node scenario with the full
// online-observability stack attached — tracing on behind a flight-recorder
// ring, the invariant monitor subscribed to every event — pricing what
// always-on monitoring costs against the plain run above.
func BenchmarkSimThroughputMonitored(b *testing.B) {
	b.Run("256nodes", func(b *testing.B) {
		benchSimCluster(b, 256, true)
	})
}

// benchSimCluster builds an n-node cluster (plus recorder), drives the
// workload scenario through it, and runs to a quiescent horizon. The event
// trace is disabled, as any long scenario run would disable it — making
// trace attribution free when off is part of what the benchmark measures.
// With monitored set, the run instead carries the full online-observability
// stack: tracing on (bounded by a flight-recorder ring) with the invariant
// monitor subscribed — the overhead the monitored benchmark variant prices.
func benchSimCluster(b *testing.B, nodes int, monitored bool) {
	b.ReportAllocs()
	var fired uint64
	var wall time.Duration
	var virtual simtime.Time
	for i := 0; i < b.N; i++ {
		s := buildSimCluster(nodes, simClusterSeed, monitored)
		start := time.Now()
		// The horizon is the last arrival plus a drain window for
		// retransmits, delayed acks, and recorder publishing to quiesce.
		s.c.Run(s.horizon + 2*simtime.Second)
		wall += time.Since(start)
		if *s.delivered != int64(s.sent) {
			b.Fatalf("delivered %d of %d messages", *s.delivered, s.sent)
		}
		fired += s.c.Scheduler().Fired()
		virtual += s.c.Now()
	}
	sec := wall.Seconds()
	b.ReportMetric(float64(fired)/sec, "events/s")
	b.ReportMetric(virtual.Seconds()/sec, "vsec/s")
	b.ReportMetric(0, "ns/op") // wall time lives in the custom metrics
}
