package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"publishing"
	"publishing/internal/checkpoint"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
	"publishing/internal/workload"
)

// spec is one benchmark workload: a cluster shape, an open-loop message
// stream, and the crashes injected into it.
type spec struct {
	Name   string
	Nodes  int
	Medium publishing.MediumKind
	// Arrivals is the number of workload messages one iteration issues; each
	// fans out to two sinks, so an iteration makes 2·Arrivals guaranteed
	// sends.
	Arrivals int
	// LoadCrashes are publisher Program crashes injected while the stream
	// flows, staggered evenly over the middle 80% of the load; recovery
	// re-executes the Program with its already-sent output suppressed.
	LoadCrashes int
	// ProbeCrashes are sink Machine crashes injected after the stream has
	// drained: the quiet-cluster recovery probe (checkpoint restore, if any,
	// then replay of the published messages).
	ProbeCrashes int
	// Monitor attaches the online invariant monitor (tracing on, with a
	// retention filter that keeps only crash and recovery events).
	Monitor bool
	// Segmented selects the log-structured stable store instead of the
	// paged default.
	Segmented bool
	// Checkpoint turns on the storage-balance checkpoint policy.
	Checkpoint bool
	// Streams is how many independently seeded streams one run measures;
	// the virtual-time metrics pool them. Only the first stream is probed.
	Streams int
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []spec{
	{Name: "steady-256", Nodes: 256, Medium: publishing.MediumPerfect, Arrivals: 49152, ProbeCrashes: 128},
	{Name: "ether-64", Nodes: 64, Medium: publishing.MediumEther, Arrivals: 24576, ProbeCrashes: 128, Streams: 8},
	{Name: "recover-64", Nodes: 64, Medium: publishing.MediumPerfect, Arrivals: 24576, LoadCrashes: 128, ProbeCrashes: 128,
		Monitor: true, Segmented: true, Checkpoint: true},
}

func lookup(name string) (spec, bool) {
	for _, s := range workloads {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Message bodies: an 8-byte message id (publisher<<32 | per-publisher
// sequence), the 8-byte virtual time the message was due, then padding to
// the workload's 96-byte message size.
const (
	bodyBytes = 96
	// probeSpacing staggers the quiet-cluster probe crashes.
	probeSpacing = 20 * simtime.Millisecond
	// maxDrain bounds how long an iteration waits for the cluster to
	// quiesce after the last arrival (the longest recovery observed with a
	// restarted attempt took ~31 virtual seconds).
	maxDrain = 300 * simtime.Second
)

func msgID(pub, seq int) uint64 { return uint64(pub)<<32 | uint64(seq) }

// crash is one scheduled process crash.
type crash struct {
	At   simtime.Time
	Node int
	Pub  bool // the node's publisher Program; otherwise its sink Machine
}

// plan is everything an iteration needs, derived from (spec, seed) alone:
// the same seed gives the same plan.
type plan struct {
	spec    spec
	seed    uint64
	events  [][]workload.MsgEvent // per publisher
	bodies  [][][]byte            // per publisher, per send
	subs    [][]int               // per publisher, per send: destination sink
	sends   int
	horizon simtime.Time // last arrival
	crashes []crash      // under load, absolute times, publishers only
	probe   []crash      // after drain, offsets from the start of their round
}

// wcfg is the open-loop stream: the seeded Poisson arrival process with a
// 0.2 hotspot and fan-out 2, at 10 messages per node per virtual second.
//
// The hot set is a quarter of the nodes. With the 1/16 hot set of the
// 2-second BenchmarkSimThroughput scenario, a hot publisher's sends alone
// need ~1.24 CPU-seconds per second under the default cost table, so over a
// multi-second run its backlog (and every latency) grows without bound. A
// quarter keeps the busiest node's kernel near 0.8 busy.
func wcfg(s spec, seed uint64) workload.Config {
	hot := s.Nodes / 4
	if hot < 1 {
		hot = 1
	}
	return workload.Config{
		Seed:     seed,
		Procs:    s.Nodes,
		Rate:     10 * float64(s.Nodes),
		Hotspot:  0.2,
		HotProcs: hot,
		MsgBytes: bodyBytes,
		FanOut:   2,
	}
}

// makePlans derives a run's streams from its seed: stream 0 uses the seed
// itself, the others seeds drawn from it.
func makePlans(s spec, seed uint64) []*plan {
	rng := simtime.NewRand(seed)
	ps := []*plan{makePlan(s, seed)}
	for len(ps) < max(1, s.Streams) {
		p := makePlan(s, rng.Uint64())
		p.probe = nil
		ps = append(ps, p)
	}
	return ps
}

func makePlan(s spec, seed uint64) *plan {
	p := &plan{
		spec:   s,
		seed:   seed,
		events: make([][]workload.MsgEvent, s.Nodes),
		bodies: make([][][]byte, s.Nodes),
		subs:   make([][]int, s.Nodes),
	}
	for _, ev := range workload.Msgs(wcfg(s, seed), s.Arrivals) {
		p.events[ev.Pub] = append(p.events[ev.Pub], ev)
		for _, sub := range ev.Subs {
			b := make([]byte, bodyBytes)
			binary.BigEndian.PutUint64(b[0:], msgID(ev.Pub, len(p.bodies[ev.Pub])+1))
			binary.BigEndian.PutUint64(b[8:], uint64(ev.At))
			p.bodies[ev.Pub] = append(p.bodies[ev.Pub], b)
			p.subs[ev.Pub] = append(p.subs[ev.Pub], sub)
			p.sends++
		}
		if ev.At > p.horizon {
			p.horizon = ev.At
		}
	}

	// Crash targets are a seeded permutation of every process, so no process
	// is hit twice until all have been hit once.
	rng := simtime.NewRand(seed ^ 0x63726173686573)
	perm := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	if c := s.LoadCrashes; c > 0 {
		order := perm(s.Nodes)
		lo, span := p.horizon/10, p.horizon*8/10
		for i := 0; i < c; i++ {
			at := lo + span*simtime.Time(i)/simtime.Time(c)
			node := order[i%len(order)]
			// A publisher that has sent its last message has exited.
			if evs := p.events[node]; len(evs) > 0 && evs[len(evs)-1].At > at {
				p.crashes = append(p.crashes, crash{At: at, Node: node, Pub: true})
			}
		}
	}
	if c := s.ProbeCrashes; c > 0 {
		order := perm(s.Nodes)
		for i := 0; i < c; i++ {
			p.probe = append(p.probe, crash{At: probeSpacing * simtime.Time(i%s.Nodes), Node: order[i%len(order)]})
		}
	}
	return p
}

// config is the cluster configuration of a workload.
func (p *plan) config() publishing.Config {
	s := p.spec
	cfg := publishing.DefaultConfig(s.Nodes)
	cfg.Seed = p.seed
	cfg.Medium = s.Medium
	// A fast LAN: the paper's 10 Mb/s Ethernet saturates long before 64
	// nodes' offered load. At 256 nodes even 100 Mb/s with a 50 µs gap is
	// ~83% busy (data frames ~31%, plus standalone acks and watchdog
	// traffic), and over a long run some seeds tip into a retransmission
	// storm; there the LAN is a switched 1 Gb/s fabric with a 5 µs gap.
	cfg.LAN.BitsPerSecond = 100_000_000
	cfg.LAN.InterframeGap = 50 * simtime.Microsecond
	if s.Nodes > 64 {
		cfg.LAN.BitsPerSecond = 1_000_000_000
		cfg.LAN.InterframeGap = 5 * simtime.Microsecond
	}
	if s.Segmented {
		cfg.Store.Backend = stablestore.BackendSegment
	}
	cfg.Monitor = s.Monitor
	return cfg
}

// sinkState is a sink's process state: the ids it has consumed and how many
// arrived again after being consumed. It is what Snapshot saves and Restore
// reloads, so after a crash and replay the sink's own state, not a counter
// shared across incarnations, says what was delivered exactly once.
type sinkState struct {
	seen map[uint64]struct{}
	dups uint64
}

// sink consumes workload messages. obs, when set, is told the first time
// each message is handled; it is measurement plumbing outside the process
// state and never read back by the sink.
type sink struct {
	st  sinkState
	obs func(id uint64, due simtime.Time)
}

func (s *sink) Init(*publishing.PCtx) {}

func (s *sink) Handle(_ *publishing.PCtx, m publishing.Msg) {
	if len(m.Body) < 16 {
		return
	}
	id := binary.BigEndian.Uint64(m.Body)
	if _, ok := s.st.seen[id]; ok {
		s.st.dups++
		return
	}
	s.st.seen[id] = struct{}{}
	if s.obs != nil {
		s.obs(id, simtime.Time(binary.BigEndian.Uint64(m.Body[8:])))
	}
}

func (s *sink) Snapshot() ([]byte, error) {
	ids := make([]uint64, 0, len(s.st.seen))
	for id := range s.st.seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := binary.BigEndian.AppendUint64(nil, s.st.dups)
	for _, id := range ids {
		b = binary.BigEndian.AppendUint64(b, id)
	}
	return b, nil
}

func (s *sink) Restore(b []byte) error {
	if len(b) < 8 || len(b)%8 != 0 {
		return errors.New("sink: bad snapshot length")
	}
	s.st = sinkState{seen: make(map[uint64]struct{}, len(b)/8-1), dups: binary.BigEndian.Uint64(b)}
	for i := 8; i < len(b); i += 8 {
		s.st.seen[binary.BigEndian.Uint64(b[i:])] = struct{}{}
	}
	return nil
}

func newSink(obs func(uint64, simtime.Time)) *sink {
	return &sink{st: sinkState{seen: make(map[uint64]struct{})}, obs: obs}
}

func sinkName(node int) string { return fmt.Sprintf("sink%d", node) }

func nodeArg(node int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(node)) }

// publisher returns a node's publisher Program. It paces on absolute due
// times, so a publisher delayed by CPU contention catches up instead of
// drifting, and a re-executed publisher runs through its already-sent
// (suppressed) prefix without waiting again. Message contents depend only
// on the plan, so re-execution resends byte-identical messages.
func (p *plan) publisher(node int) publishing.Program {
	return func(ctx *publishing.PCtx) {
		links := make(map[int]publishing.LinkID)
		n := 0
		for _, ev := range p.events[node] {
			if now := ctx.RealTime(); ev.At > now {
				ctx.Compute(ev.At - now)
			}
			for range ev.Subs {
				sub := p.subs[node][n]
				l, ok := links[sub]
				if !ok {
					var err error
					if l, err = ctx.ServiceLink(sinkName(sub)); err != nil {
						panic(err)
					}
					links[sub] = l
				}
				_ = ctx.Send(l, p.bodies[node][n], publishing.NoLink)
				n++
			}
		}
	}
}

// instance is one built cluster running a plan.
type instance struct {
	p     *plan
	c     *publishing.Cluster
	sinks []*sink // live incarnation per node; recovery re-points it
	pids  []publishing.ProcID
	pubs  []publishing.ProcID
	// lat is the first-delivery latency of each message, indexed like
	// plan.bodies; zero means not delivered yet.
	lat [][]simtime.Time
	// traceEvents counts events the trace log recorded up to now.
	traceEvents uint64
	// retainAll keeps every trace event instead of only crashes and
	// recoveries.
	retainAll bool
	rec       recoveryLog
	// onDrained, when set, runs once the load has drained, before the
	// recovery probe.
	onDrained func()
}

// build assembles the cluster: publishing.New plus every Spawn. This is what
// setup_s times.
func build(p *plan) *instance {
	cfg := p.config()
	in := &instance{
		p:     p,
		c:     publishing.New(cfg),
		sinks: make([]*sink, p.spec.Nodes),
		pids:  make([]publishing.ProcID, p.spec.Nodes),
		pubs:  make([]publishing.ProcID, p.spec.Nodes),
		lat:   make([][]simtime.Time, p.spec.Nodes),
	}
	for i := range in.lat {
		in.lat[i] = make([]simtime.Time, len(p.bodies[i]))
	}
	c := in.c
	// Only crashes and recoveries are retained; the monitor's observer still
	// sees every event.
	c.Trace().SetFilter(func(e trace.Event) bool {
		in.traceEvents++
		return in.retainAll || e.Kind == trace.KindCrash || e.Kind == trace.KindRecoveryDone
	})
	if !p.spec.Monitor && len(p.crashes) == 0 {
		c.Trace().Enable(false)
	}
	now := c.Now
	obs := func(id uint64, due simtime.Time) {
		pub, seq := int(id>>32), int(uint32(id))
		if pub < len(in.lat) && seq >= 1 && seq <= len(in.lat[pub]) && in.lat[pub][seq-1] == 0 {
			in.lat[pub][seq-1] = now() - due + 1 // +1 keeps a zero-latency delivery distinct from "none"
		}
	}
	c.Registry().RegisterMachine("sink", func(args []byte) publishing.Machine {
		s := newSink(obs)
		in.sinks[binary.BigEndian.Uint32(args)] = s
		return s
	})
	c.Registry().RegisterProgram("pub", func(args []byte) publishing.Program {
		return p.publisher(int(binary.BigEndian.Uint32(args)))
	})
	for i := 0; i < p.spec.Nodes; i++ {
		pid, err := c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "sink", Args: nodeArg(i), Recoverable: true})
		if err != nil {
			panic(err)
		}
		in.pids[i] = pid
		c.SetService(sinkName(i), pid)
	}
	for i := 0; i < p.spec.Nodes; i++ {
		pid, err := c.Spawn(publishing.NodeID(i), publishing.ProcSpec{Name: "pub", Args: nodeArg(i), Recoverable: true})
		if err != nil {
			panic(err)
		}
		in.pubs[i] = pid
	}
	for _, cr := range p.crashes {
		cr := cr
		c.Scheduler().At(cr.At, func() { in.crash(cr) })
	}
	if p.spec.Checkpoint {
		in.armCheckpoints(cfg.CheckpointTick)
	}
	return in
}

// armCheckpoints runs the storage-balance checkpoint policy
// (Config.CheckpointPolicy = CheckpointStorage) from the benchmark, visiting
// nodes in id order. The cluster's own tick visits them in map order, which
// makes same-seed runs with checkpoints on several nodes diverge.
func (in *instance) armCheckpoints(every simtime.Time) {
	c := in.c
	pol, lp := checkpoint.StorageBalancePolicy{}, checkpoint.Fig31Params()
	nodes := c.Nodes()
	var tick func()
	tick = func() {
		for _, n := range nodes {
			k := c.Kernel(n)
			if k.Crashed() {
				continue
			}
			for _, load := range k.Loads() {
				if !load.Checkpointable {
					continue
				}
				pp := checkpoint.ProcParams{
					CheckpointPages: load.StateKB * 2, // 512-byte pages
					MsgsSince:       load.MsgsSinceCk,
					BytesSince:      load.BytesSinceCk,
					ExecSince:       load.CPUSinceCk,
				}
				if pol.ShouldCheckpoint(lp, pp, load.Bound) {
					_, _ = k.CheckpointNow(load.Proc)
				}
			}
		}
		c.Scheduler().After(every, tick)
	}
	c.Scheduler().After(every, tick)
}

func (in *instance) crash(cr crash) {
	if cr.Pub {
		in.c.CrashProcess(in.pubs[cr.Node])
	} else {
		in.c.CrashProcess(in.pids[cr.Node])
	}
}

// delivered counts messages the sinks' own state holds.
func (in *instance) delivered() int {
	n := 0
	for _, s := range in.sinks {
		n += len(s.st.seen)
	}
	return n
}

// drain runs the cluster until every send is in some sink's state and every
// planned crash has recovered, or maxDrain past the last arrival.
func (in *instance) drain() {
	c := in.c
	deadline := in.p.horizon + maxDrain
	c.Run(2 * simtime.Second)
	for c.Now() < deadline && (in.delivered() < in.p.sends || !in.recovered(len(in.p.crashes))) {
		c.Run(simtime.Second)
	}
}

// idle reports whether every kernel's input queues are empty: a recovered
// sink may still be working through its replayed messages.
func (in *instance) idle() bool {
	for _, n := range in.c.Nodes() {
		if in.c.Metrics().Gauge(int(n), "kernel", "queue_depth").Value() != 0 {
			return false
		}
	}
	return true
}

// recovered reports whether at least want crashes happened and every crash
// so far has recovered.
func (in *instance) recovered(want int) bool {
	r := in.recoveries()
	return r.crashes >= want && r.pending == 0
}

// probe crashes sinks on the drained cluster, with tracing on for crash
// and recovery events only. Crashes come in rounds of at most one per node,
// staggered by probeSpacing; each round waits until every recovery is done
// and every replayed message consumed, so no process is crashed again while
// it recovers.
func (in *instance) probe() {
	c := in.c
	if len(in.p.probe) == 0 {
		return
	}
	c.Trace().Enable(true)
	want := len(in.p.crashes)
	for rest := in.p.probe; len(rest) > 0; {
		round := rest[:min(len(rest), in.p.spec.Nodes)]
		rest = rest[len(round):]
		start := c.Now()
		for _, cr := range round {
			cr := cr
			c.Scheduler().At(start+cr.At, func() { in.crash(cr) })
		}
		want += len(round)
		c.Run(round[len(round)-1].At + simtime.Second)
		for deadline := c.Now() + maxDrain; c.Now() < deadline && !(in.recovered(want) && in.idle()); {
			c.Run(simtime.Second)
		}
	}
}

// close releases the cluster's process goroutines.
func (in *instance) close() {
	for _, n := range in.c.Nodes() {
		in.c.CrashNode(n)
	}
}

// recoveryLog pairs each process crash with the recorder's recovery-done
// event for that process. It consumes the trace incrementally.
type recoveryLog struct {
	scanned   int
	crashes   int
	pending   int
	durations []simtime.Time
	open      map[string][]simtime.Time
}

func (in *instance) recoveries() *recoveryLog {
	r := &in.rec
	if r.open == nil {
		r.open = make(map[string][]simtime.Time)
	}
	recNode := in.p.spec.Nodes
	evs := in.c.Trace().Events()
	for _, e := range evs[r.scanned:] {
		switch {
		case e.Kind == trace.KindCrash && e.Subject != "node":
			r.crashes++
			r.pending++
			r.open[e.Subject] = append(r.open[e.Subject], e.At)
		case e.Kind == trace.KindRecoveryDone && e.Node == recNode:
			q := r.open[e.Subject]
			if len(q) == 0 {
				continue
			}
			r.pending--
			r.durations = append(r.durations, e.At-q[0])
			r.open[e.Subject] = q[1:]
		}
	}
	r.scanned = len(evs)
	return r
}
