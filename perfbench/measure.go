package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"publishing/internal/metrics"
	"publishing/internal/simtime"
)

// counters are the deterministic readings of one iteration: the same seed
// gives the same values, so they double as a determinism check between
// iterations and between the untraced and traced runs.
type counters struct {
	Events     uint64
	Virtual    simtime.Time
	LoadWindow simtime.Time // 0 .. last arrival: the window utilizations cover

	Sends, Delivered, Dups, Missing, Stray int
	Crashes, Recovered, UnexpectedCrashes  int
	Violations                             int
	LatencySum                             simtime.Time

	// Layer counters, summed over nodes, at the end of the drain (the
	// recovery counters after the probe).
	FramesSent, FramesDelivered, Collisions, Backoffs     int64
	BusyLoad                                              int64
	GuaranteedSent, Retransmits, AcksSent, AcksStandalone int64
	AcksPiggybacked, Coalesced, GaveUp, RecorderHeld      int64
	KernelCPULoad, MsgsDelivered                          int64
	PublishCPULoad                                        int64
	Replayed, ReplayBatches, RecStarted, RecCompleted     int64
	Appends, PageWrites, SegFlushes, Compacted            int64
	TraceEvents                                           uint64
}

// outcome is one iteration's measurements.
type outcome struct {
	wall    time.Duration // Run of load + drain
	mallocs uint64
	bytes   uint64
	c       counters
	lat     []simtime.Time // first-delivery latencies, sorted
	// rec are the crash→recovered durations, sorted: of the crashes
	// injected under load, or of the quiet-cluster probe when the workload
	// injects none under load.
	rec []simtime.Time
	in  *instance // kept only when the caller asks for it
}

// sum adds one metric over every node of a snapshot.
func sum(s metrics.Snapshot, subsystem, name string) int64 {
	var v int64
	for _, x := range s.Samples {
		if x.Subsystem == subsystem && x.Name == name {
			v += x.Value
		}
	}
	return v
}

// iterate builds the plan's cluster, runs it to quiescence, probes
// recovery, and checks the outputs. prepare, when set, runs after the build
// and before the timed run (the traced run attaches its captures there).
// keep leaves the cluster open for the caller.
func iterate(p *plan, prepare func(*instance), keep bool) outcome {
	runtime.GC()
	in := build(p)
	var o outcome
	if prepare != nil {
		prepare(in)
	}
	c := in.c
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	c.Run(p.horizon)
	loadWindow := c.Now()
	o.wall = time.Since(t1)
	loadSnap := c.Metrics().Snapshot()
	t2 := time.Now()
	in.drain()
	o.wall += time.Since(t2)
	runtime.ReadMemStats(&m1)
	o.mallocs = m1.Mallocs - m0.Mallocs
	o.bytes = m1.TotalAlloc - m0.TotalAlloc

	k := &o.c
	k.Events = c.Scheduler().Fired()
	k.Virtual = c.Now()
	k.LoadWindow = loadWindow
	k.TraceEvents = in.traceEvents
	snap := c.Metrics().Snapshot()
	k.FramesSent = int64(c.Medium().Stats().FramesSent)
	k.FramesDelivered = int64(c.Medium().Stats().FramesDelivered)
	k.Collisions = int64(c.Medium().Stats().Collisions)
	k.Backoffs = int64(c.Medium().Stats().Backoffs)
	k.BusyLoad = sum(loadSnap, "lan", "busy_time_ns")
	k.GuaranteedSent = sum(snap, "transport", "guaranteed_sent")
	k.Retransmits = sum(snap, "transport", "retransmits")
	k.AcksSent = sum(snap, "transport", "acks_sent")
	k.AcksStandalone = sum(snap, "transport", "acks_delayed_flush")
	if p.config().Transport.AckDelay <= 0 {
		k.AcksStandalone = k.AcksSent
	}
	k.AcksPiggybacked = sum(snap, "transport", "acks_piggybacked")
	k.Coalesced = sum(snap, "transport", "frames_coalesced")
	k.GaveUp = sum(snap, "transport", "gave_up")
	k.RecorderHeld = sum(snap, "transport", "recorder_held")
	k.KernelCPULoad = sum(loadSnap, "kernel", "kernel_cpu_ns")
	k.MsgsDelivered = sum(snap, "kernel", "msgs_delivered")
	k.PublishCPULoad = sum(loadSnap, "recorder", "publish_cpu_ns")
	k.Appends = sum(snap, "store", "appends")
	k.PageWrites = sum(snap, "store", "page_writes")
	k.SegFlushes = sum(snap, "store", "seg_flushes")
	k.Compacted = sum(snap, "store", "compacted")

	if in.onDrained != nil {
		in.onDrained()
	}
	underLoad := len(in.recoveries().durations)
	in.probe()
	snap = c.Metrics().Snapshot()
	k.Replayed = sum(snap, "recorder", "messages_replayed")
	k.ReplayBatches = sum(snap, "recorder", "replay_batches")
	k.RecStarted = sum(snap, "recorder", "recoveries_started")
	k.RecCompleted = sum(snap, "recorder", "recoveries_completed")
	in.check(&o)
	if underLoad > 0 {
		o.rec = append([]simtime.Time(nil), in.rec.durations[:underLoad]...)
	} else {
		o.rec = append([]simtime.Time(nil), in.rec.durations...)
	}
	sort.Slice(o.rec, func(i, j int) bool { return o.rec[i] < o.rec[j] })
	if keep {
		o.in = in
	} else {
		in.close()
	}
	return o
}

// check reads the outputs: every send must be in exactly one sink's state,
// once; every crash must have recovered; the monitor must have flagged
// nothing.
func (in *instance) check(o *outcome) {
	p, k := in.p, &o.c
	k.Sends = p.sends
	expect := make([]map[uint64]bool, p.spec.Nodes)
	for i := range expect {
		expect[i] = make(map[uint64]bool)
	}
	for pub := range p.subs {
		for n, sub := range p.subs[pub] {
			expect[sub][msgID(pub, n+1)] = true
		}
	}
	for node, s := range in.sinks {
		k.Dups += int(s.st.dups)
		for id := range s.st.seen {
			if expect[node][id] {
				k.Delivered++
			} else {
				k.Stray++
			}
		}
	}
	k.Missing = k.Sends - k.Delivered
	for pub := range in.lat {
		for _, l := range in.lat[pub] {
			if l > 0 {
				o.lat = append(o.lat, l-1)
				k.LatencySum += l - 1
			}
		}
	}
	sort.Slice(o.lat, func(i, j int) bool { return o.lat[i] < o.lat[j] })
	r := in.recoveries()
	k.Crashes = r.crashes
	k.Recovered = len(r.durations)
	k.UnexpectedCrashes = r.crashes - len(p.crashes) - len(p.probe)
	if m := in.c.Monitor(); m != nil {
		k.Violations = len(m.Violations())
	}
}

// setupTimes builds the plan's cluster n times, timing each build from a
// collected heap, and closes it again.
func setupTimes(p *plan, n int) []float64 {
	var xs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		in := build(p)
		xs = append(xs, time.Since(t0).Seconds())
		in.close()
	}
	return xs
}

// pooled sums the output counters of one run's streams and merges their
// latencies and recoveries.
func pooled(outs []outcome) (k counters, lat, rec []simtime.Time) {
	for _, o := range outs {
		c := &o.c
		k.Sends += c.Sends
		k.Delivered += c.Delivered
		k.Dups += c.Dups
		k.Missing += c.Missing
		k.Stray += c.Stray
		k.Crashes += c.Crashes
		k.Recovered += c.Recovered
		k.UnexpectedCrashes += c.UnexpectedCrashes
		k.Violations += c.Violations
		k.FramesSent += c.FramesSent
		k.AcksStandalone += c.AcksStandalone
		lat = append(lat, o.lat...)
		rec = append(rec, o.rec...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sort.Slice(rec, func(i, j int) bool { return rec[i] < rec[j] })
	return k, lat, rec
}

// attempted and failed follow failed_share: guaranteed sends not delivered
// exactly once plus crashes never recovered, over sends plus crashes.
func (k *counters) attempted() int { return k.Sends + k.Crashes }

func (k *counters) failed() int {
	return k.Missing + k.Dups + (k.Crashes - k.Recovered)
}

// problems lists what makes an iteration's output wrong.
func (k *counters) problems() []string {
	var out []string
	if k.Dups > 0 {
		out = append(out, fmt.Sprintf("%d duplicate deliveries", k.Dups))
	}
	if k.Stray > 0 {
		out = append(out, fmt.Sprintf("%d messages in the wrong sink", k.Stray))
	}
	if k.Violations > 0 {
		out = append(out, fmt.Sprintf("%d monitor violations", k.Violations))
	}
	if k.UnexpectedCrashes != 0 {
		out = append(out, fmt.Sprintf("%d crashes beyond the plan", k.UnexpectedCrashes))
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []simtime.Time, q float64) simtime.Time {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
