package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"publishing"
	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/lan"
	"publishing/internal/monitor"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
	"publishing/internal/transport"
)

// The traced run: untraced iterations give the end-to-end wall time per
// event and the deterministic counters; one traced iteration of the same
// seed captures the frame stream (a passive tap) and the trace events; then
// each capture is replayed alone into one layer's public entry point, timed
// from outside — the layer ladder. What the ladder does not cover is the
// residual.

// capFrame is one frame the tap heard, with the virtual time it heard it.
type capFrame struct {
	at simtime.Time
	f  *frame.Frame
}

// frameTap is a passive listener that stores a copy of every frame while on.
// It always reports the frame stored, so it never blocks delivery.
type frameTap struct {
	now    func() simtime.Time
	on     bool
	frames []capFrame
}

func (t *frameTap) Observe(f *frame.Frame) bool {
	if t.on {
		t.frames = append(t.frames, capFrame{t.now(), f.Clone()})
	}
	return true
}

// tapNode is the capture tap's station id, outside every cluster's range.
const tapNode = frame.NodeID(1 << 20)

// capture is what the traced iteration recorded up to the end of its drain.
type capture struct {
	frames  []capFrame
	events  []trace.Event
	records []stablestore.Record
}

// traced runs one iteration with tracing on (every event retained, detailed
// events included) and the frame tap attached.
func traced(p *plan) (outcome, *capture) {
	capt := &capture{}
	var tap *frameTap
	o := iterate(p, func(in *instance) {
		c := in.c
		in.retainAll = true
		c.Trace().Enable(true)
		c.Trace().SetDetailed(true)
		tap = &frameTap{now: c.Now, on: true}
		c.Medium().AttachTap(tapNode, tap)
		in.onDrained = func() {
			tap.on = false
			in.retainAll = false
			evs := c.Trace().Events()
			capt.events = evs[:len(evs):len(evs)]
			var err error
			if capt.records, err = c.Store().ReadAll(); err != nil {
				panic(fmt.Sprintf("perfbench: read stable store: %v", err))
			}
		}
	}, false)
	capt.frames = tap.frames
	return o, capt
}

// nullMedium is a medium that carries nothing: the ladder's layers send into
// it, and it records which station attached under which id.
type nullMedium struct {
	stations map[frame.NodeID]lan.Station
	faults   lan.FaultPlan
	stats    lan.Stats
}

func newNullMedium() *nullMedium {
	return &nullMedium{stations: make(map[frame.NodeID]lan.Station)}
}

func (m *nullMedium) Attach(id frame.NodeID, s lan.Station) { m.stations[id] = s }
func (m *nullMedium) AttachTap(frame.NodeID, lan.Tap)       {}
func (m *nullMedium) Send(frame.NodeID, *frame.Frame)       {}
func (m *nullMedium) Faults() *lan.FaultPlan                { return &m.faults }
func (m *nullMedium) Stats() *lan.Stats                     { return &m.stats }
func (m *nullMedium) Lookahead() simtime.Time               { return 0 }

type noopStation struct{}

func (noopStation) Receive(*frame.Frame) {}

// step is one rung of the ladder: the layer's wall time and allocations
// over the whole replayed stream, and how many operations that was.
type step struct {
	wall    time.Duration
	mallocs uint64
	ops     int
}

func (s step) nsPerOp() float64     { return float64(s.wall.Nanoseconds()) / float64(max(s.ops, 1)) }
func (s step) allocsPerOp() float64 { return float64(s.mallocs) / float64(max(s.ops, 1)) }

// timed runs f once with a clean heap and measures it.
func timed(f func() int) step {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return step{wall: wall, mallocs: m1.Mallocs - m0.Mallocs, ops: n}
}

// ladderEnv is what the rungs share: the cluster configuration as the
// cluster itself derives it.
type ladderEnv struct {
	cfg     publishing.Config
	nodes   int
	recNode frame.NodeID
	kernTr  transport.Config // processing nodes' endpoints
	recTr   transport.Config // the recorder's endpoint
}

func newLadderEnv(p *plan) ladderEnv {
	cfg := p.config()
	e := ladderEnv{cfg: cfg, nodes: p.spec.Nodes, recNode: frame.NodeID(p.spec.Nodes)}
	e.kernTr = cfg.Transport
	e.kernTr.Peers = p.spec.Nodes + 1
	e.kernTr.NeedRecorderAck = cfg.Medium == publishing.MediumEther
	e.recTr = cfg.Transport
	e.recTr.Peers = p.spec.Nodes + 1
	return e
}

// unicastCopies pre-clones the frames a receiver takes ownership of (a
// unicast frame is the receiver's private copy), outside the timed loop.
func unicastCopies(frames []capFrame) []*frame.Frame {
	out := make([]*frame.Frame, len(frames))
	for i, cf := range frames {
		if cf.f.Dst == frame.Broadcast {
			out[i] = cf.f
		} else {
			out[i] = cf.f.Clone()
		}
	}
	return out
}

// rungLAN replays every frame into Medium.Send of a fresh medium of the same
// kind whose stations do nothing. Ops are deliveries.
func rungLAN(e ladderEnv, frames []capFrame) step {
	sched := simtime.NewScheduler()
	var med lan.Medium
	if e.cfg.Medium == publishing.MediumEther {
		med = lan.NewEther(e.cfg.LAN, sched, simtime.NewRand(e.cfg.Seed), nil)
	} else {
		med = lan.NewPerfect(e.cfg.LAN, sched, simtime.NewRand(e.cfg.Seed), nil)
	}
	for id := frame.NodeID(0); id <= e.recNode; id++ {
		med.Attach(id, noopStation{})
	}
	return timed(func() int {
		for _, cf := range frames {
			sched.Run(cf.at)
			med.Send(cf.f.Src, cf.f)
		}
		sched.Run(simtime.Never - 1)
		return int(med.Stats().FramesDelivered)
	})
}

// rungTransport replays every frame a processing node received into
// Endpoint.Receive of fresh endpoints. Ops are received frames.
func rungTransport(e ladderEnv, frames []capFrame) step {
	sched := simtime.NewScheduler()
	med := newNullMedium()
	eps := make([]*transport.Endpoint, e.nodes)
	for i := range eps {
		eps[i] = transport.New(frame.NodeID(i), med, sched, nil, e.kernTr)
		eps[i].Deliver = func(*frame.Frame) bool { return true }
	}
	owned := unicastCopies(frames)
	return timed(func() int {
		n := 0
		for i, cf := range frames {
			sched.Run(cf.at)
			if dst := cf.f.Dst; dst == frame.Broadcast {
				for j, ep := range eps {
					if frame.NodeID(j) != cf.f.Src {
						ep.Receive(cf.f)
						n++
					}
				}
			} else if int(dst) < len(eps) {
				eps[dst].Receive(owned[i])
				n++
			}
		}
		sched.Run(frames[len(frames)-1].at + 10*simtime.Second)
		return n
	})
}

// rungDemos injects every distinct workload message the sinks received into
// Kernel.Inject of fresh kernels running only the sinks. Ops are injects.
func rungDemos(e ladderEnv, frames []capFrame) step {
	type inject struct {
		at  simtime.Time
		to  frame.ProcID
		msg demos.Msg
	}
	var msgs []inject
	seen := make(map[frame.MsgID]bool)
	var recs []frame.BundleRec
	add := func(at simtime.Time, f *frame.Frame) {
		if f.Type != frame.Guaranteed || f.DeliverToKernel || f.To.Local != 1 || int(f.To.Node) >= e.nodes || seen[f.ID] {
			return
		}
		seen[f.ID] = true
		msgs = append(msgs, inject{at, f.To, demos.Msg{ID: f.ID, From: f.From, Channel: f.Channel, Code: f.Code, Body: f.Body}})
	}
	for _, cf := range frames {
		if cf.f.Type == frame.Bundle {
			var err error
			if recs, err = frame.DecodeBundle(cf.f.Body, recs[:0]); err != nil {
				panic(fmt.Sprintf("perfbench: captured bundle: %v", err))
			}
			for i := range recs {
				add(cf.at, recs[i].Expand(cf.f))
			}
			continue
		}
		add(cf.at, cf.f)
	}

	sched := simtime.NewScheduler()
	reg := demos.NewRegistry()
	reg.RegisterMachine("sink", func([]byte) demos.Machine { return newSink(nil) })
	env := demos.Env{
		Sched:        sched,
		Rng:          simtime.NewRand(e.cfg.Seed),
		Registry:     reg,
		Costs:        e.cfg.Costs,
		Medium:       newNullMedium(),
		Transport:    e.kernTr,
		Publishing:   e.cfg.Publishing,
		RecorderProc: frame.ProcID{Node: e.recNode, Local: 1},
		Services:     map[string]frame.ProcID{},
	}
	kernels := make([]*demos.Kernel, e.nodes)
	for i := range kernels {
		kernels[i] = demos.NewKernel(frame.NodeID(i), env)
		if _, err := kernels[i].Spawn(demos.ProcSpec{Name: "sink", Args: nodeArg(i), Recoverable: true}, demos.SpawnOptions{}); err != nil {
			panic(err)
		}
	}
	defer func() {
		for _, k := range kernels {
			k.CrashNode()
		}
	}()
	return timed(func() int {
		for _, m := range msgs {
			sched.Run(m.at)
			if err := kernels[m.to.Node].Inject(m.to, m.msg, nil); err != nil {
				panic(err)
			}
		}
		sched.Run(msgs[len(msgs)-1].at + 60*simtime.Second)
		return len(msgs)
	})
}

// rungRecorder replays the recorder's whole input into a fresh recorder:
// every frame into Recorder.Observe (the tap) and the frames addressed to
// it into its endpoint, on a fresh store of the same engine. Ops are
// observed frames; the store's appends are reported so the stable-store
// rung's share can be taken out.
func rungRecorder(e ladderEnv, frames []capFrame) (step, uint64) {
	sched := simtime.NewScheduler()
	med := newNullMedium()
	watched := make([]frame.NodeID, e.nodes)
	for i := range watched {
		watched[i] = frame.NodeID(i)
	}
	rcfg := recorder.DefaultConfig(e.recNode, watched)
	rcfg.Mode = e.cfg.RecorderMode
	rcfg.EmitRecorderAcks = e.kernTr.NeedRecorderAck
	rcfg.NoticeProcs = []frame.ProcID{{Node: e.recNode, Local: 1}}
	// The watchdog ticks on a clock that never runs: the captured stream
	// carries no replies to this recorder's pings.
	rcfg.TickSched = simtime.NewScheduler()
	store, err := stablestore.NewStore(stablestore.Config{Backend: e.cfg.Store.Backend})
	if err != nil {
		panic(err)
	}
	rec := recorder.New(rcfg, sched, simtime.NewRand(e.cfg.Seed), nil, med, store, e.recTr)
	rec.Start()
	station := med.stations[e.recNode]
	owned := unicastCopies(frames)
	s := timed(func() int {
		for i, cf := range frames {
			sched.Run(cf.at)
			rec.Observe(cf.f)
			if dst := cf.f.Dst; dst == e.recNode || (dst == frame.Broadcast && cf.f.Src != e.recNode) {
				station.Receive(owned[i])
			}
		}
		sched.Run(frames[len(frames)-1].at + 2*simtime.Second)
		return len(frames)
	})
	return s, store.Stats().Appends
}

// rungStore appends the run's stored records to a fresh store of the same
// engine, group-committing once per virtual second of the run as the
// recorder's flush tick does, then reads every key back.
func rungStore(e ladderEnv, records []stablestore.Record, seconds int) (appends, reads step) {
	st, err := stablestore.NewStore(stablestore.Config{Backend: e.cfg.Store.Backend})
	if err != nil {
		panic(err)
	}
	every := max(1, len(records)/max(1, seconds))
	appends = timed(func() int {
		for i, r := range records {
			if _, err := st.Append(r); err != nil {
				panic(err)
			}
			if (i+1)%every == 0 {
				if err := st.Flush(); err != nil {
					panic(err)
				}
			}
		}
		if err := st.Flush(); err != nil {
			panic(err)
		}
		return len(records)
	})
	keys := make(map[string]bool)
	for _, r := range records {
		keys[r.Key] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	reads = timed(func() int {
		for _, k := range sorted {
			if _, err := st.ReadKey(k); err != nil {
				panic(err)
			}
		}
		return len(sorted)
	})
	return appends, reads
}

// rungMonitor feeds every trace event to a fresh Monitor.Observe.
func rungMonitor(events []trace.Event) step {
	var now simtime.Time
	m := monitor.New(monitor.Config{}, func() simtime.Time { return now })
	return timed(func() int {
		for i := range events {
			now = events[i].At
			m.Observe(events[i])
		}
		return len(events)
	})
}

// runTraced is --trace 1: the per-layer metrics.
func runTraced(s spec, seed uint64, budget time.Duration, out io.Writer) result {
	p := makePlans(s, seed)[0]
	start := time.Now()
	var runs []outcome
	for len(runs) < 3 || time.Since(start) < budget/3 {
		runs = append(runs, iterate(p, nil, false))
	}
	first := runs[0]
	res := result{Correct: true, Attempted: first.c.attempted(), Failed: first.c.failed(), Metrics: map[string]metric{}}
	for _, pr := range first.c.problems() {
		res.Correct = false
		fmt.Fprintf(out, "FAIL %s\n", pr)
	}

	tr, capt := traced(p)
	// The trace and the tap must not change the simulation: every counter
	// but the trace's own event count must match the untraced run.
	want, got := first.c, tr.c
	want.TraceEvents, got.TraceEvents = 0, 0
	if want != got {
		res.Correct = false
		fmt.Fprintf(out, "FAIL traced run diverged from untraced run:\n  %+v\n  %+v\n", got, want)
	}
	k := &first.c
	e := newLadderEnv(p)
	lanS := rungLAN(e, capt.frames)
	trS := rungTransport(e, capt.frames)
	demS := rungDemos(e, capt.frames)
	recS, recAppends := rungRecorder(e, capt.frames)
	appS, readS := rungStore(e, capt.records, int(k.Virtual/simtime.Second))
	monS := rungMonitor(capt.events)

	wall := func(st step) float64 { return float64(st.wall.Nanoseconds()) }
	var walls []float64
	for _, o := range runs {
		walls = append(walls, float64(o.wall.Nanoseconds()))
	}
	e2e := median(walls) / float64(k.Events)
	// Each rung's share of the run: the store's appends come out of the
	// recorder rung, which made them, and count once at the run's rate.
	recSelf := wall(recS) - appS.nsPerOp()*float64(recAppends)
	appTotal := appS.nsPerOp() * float64(k.Appends)
	monTotal := -1.0 // not part of the run
	layers := wall(lanS) + wall(trS) + wall(demS) + recSelf + appTotal
	if s.Monitor {
		monTotal = wall(monS)
		layers += monTotal
	}
	lanPred, kernPred, pubPred := predict(p)
	load := float64(k.LoadWindow)

	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("simtime.events_per_vsec", "ev/vs", float64(k.Events)/k.Virtual.Seconds())
	set("residual.ns_per_event", "ns", e2e-layers/float64(k.Events))
	set("trace.events_recorded", "count", float64(k.TraceEvents))
	set("trace.overhead_ratio", "ratio", float64(tr.wall.Nanoseconds())/median(walls))
	set("lan.ns_per_delivery", "ns", lanS.nsPerOp())
	set("lan.allocs_per_delivery", "allocs", lanS.allocsPerOp())
	set("lan.deliveries_per_frame", "ratio", ratio(k.FramesDelivered, k.FramesSent))
	set("lan.collisions_per_frame", "ratio", ratio(k.Collisions, k.FramesSent))
	set("lan.utilization", "ratio", float64(k.BusyLoad)/load)
	set("transport.ns_per_rx_frame", "ns", trS.nsPerOp())
	set("transport.allocs_per_rx_frame", "allocs", trS.allocsPerOp())
	set("transport.retransmits_per_msg", "ratio", ratio(k.Retransmits, k.GuaranteedSent))
	set("transport.coalesced_share", "ratio", ratio(k.Coalesced, k.GuaranteedSent))
	set("transport.piggybacked_share", "ratio", ratio(k.AcksPiggybacked, k.AcksSent))
	set("transport.gave_up", "count", float64(k.GaveUp))
	set("transport.recorder_held", "count", float64(k.RecorderHeld))
	set("demos.ns_per_inject", "ns", demS.nsPerOp())
	set("demos.kernel_cpu_util", "ratio", float64(k.KernelCPULoad)/(load*float64(s.Nodes)))
	set("recorder.ns_per_observe", "ns", recSelf/float64(max(recS.ops, 1)))
	set("recorder.allocs_per_observe", "allocs", recS.allocsPerOp())
	set("recorder.publish_cpu_util", "ratio", float64(k.PublishCPULoad)/load)
	set("recorder.replayed_per_recovery", "msgs", ratio(k.Replayed, k.RecCompleted))
	set("recorder.replay_batches_per_recovery", "batches", ratio(k.ReplayBatches, k.RecCompleted))
	set("recorder.restarted_recoveries", "count", float64(k.RecStarted-k.RecCompleted))
	set("stablestore.ns_per_append", "ns", appS.nsPerOp())
	set("stablestore.appends", "count", float64(k.Appends))
	set("stablestore.page_writes", "count", float64(k.PageWrites))
	set("stablestore.seg_flushes", "count", float64(k.SegFlushes))
	set("stablestore.ns_per_readkey", "ns", readS.nsPerOp())
	set("stablestore.compacted", "count", float64(k.Compacted))
	set("monitor.ns_per_event", "ns", monS.nsPerOp())
	set("monitor.allocs_per_event", "allocs", monS.allocsPerOp())
	set("queuing.lan_util_pred", "ratio", lanPred)
	set("queuing.kernel_cpu_util_pred", "ratio", kernPred)
	set("queuing.publish_cpu_util_pred", "ratio", pubPred)

	fmt.Fprintf(out, "untraced: %d iterations, %.1f ns/event end to end (median); traced run %.2fs\n",
		len(runs), e2e, tr.wall.Seconds())
	fmt.Fprintf(out, "captured %d frames, %d trace events, %d stored records\n",
		len(capt.frames), len(capt.events), len(capt.records))
	fmt.Fprintf(out, "layer ladder (each capture replayed alone into one layer):\n")
	// row prints one rung: its ns/op, and its part of the end-to-end ns per
	// event, or "-" for a rung outside the timed run (store reads happen
	// only in recovery; the monitor runs only on monitored workloads).
	row := func(layer, entry string, st step, nsPerOp, total float64) {
		share := "-"
		if total >= 0 {
			share = fmt.Sprintf("%.1f", total/float64(k.Events))
		}
		fmt.Fprintf(out, "  %-12s %-26s %9d ops %10.0f ns/op %7.2f allocs/op %7s ns/event\n",
			layer, entry, st.ops, nsPerOp, st.allocsPerOp(), share)
	}
	row("lan", "Medium.Send", lanS, lanS.nsPerOp(), wall(lanS))
	row("transport", "Endpoint.Receive", trS, trS.nsPerOp(), wall(trS))
	row("demos", "Kernel.Inject", demS, demS.nsPerOp(), wall(demS))
	row("recorder", "Recorder.Observe (self)", recS, recSelf/float64(max(recS.ops, 1)), recSelf)
	row("stablestore", "Store.Append+Flush", appS, appS.nsPerOp(), appTotal)
	row("stablestore", "Store.ReadKey", readS, readS.nsPerOp(), -1)
	row("monitor", "Monitor.Observe", monS, monS.nsPerOp(), monTotal)
	fmt.Fprintf(out, "  %-12s %-26s %9s     %10s       %7s           %7.1f ns/event\n", "residual", "end to end - rungs", "", "", "", e2e-layers/float64(k.Events))
	fmt.Fprintf(out, "utilization over the load window, measured vs internal/queuing:\n")
	fmt.Fprintf(out, "  lan %.3f vs %.3f; demos kernel CPU %.3f vs %.3f; recorder publish CPU %.3f vs %.3f\n",
		res.Metrics["lan.utilization"].Value, lanPred, res.Metrics["demos.kernel_cpu_util"].Value, kernPred,
		res.Metrics["recorder.publish_cpu_util"].Value, pubPred)
	printMetrics(out, res.Metrics)
	return res
}
