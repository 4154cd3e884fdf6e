package chaos

import (
	"fmt"
	"sort"
	"strings"

	"publishing/internal/frame"
	"publishing/internal/monitor"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// RunOutcome is what one run of the scenario's workload produced.
type RunOutcome struct {
	// Done reports whether the workload completed before its deadline.
	Done bool
	// Output is the ordered application-level output stream (the witness's
	// transcript).
	Output []string
	// State is the canonical final-state snapshot of the recoverable
	// process (the worker's encoded machine state).
	State []byte
}

// CheckConfig tunes the invariant checker.
type CheckConfig struct {
	// RecoveryBound, when > 0, is the scenario's configured recovery-time
	// bound; completed recoveries that no other fault disturbed must finish
	// within 2*bound + 1s (the same slack margin the checkpoint-policy
	// tests allow, doubled for fault-window scheduling noise).
	RecoveryBound simtime.Time
}

// Violation is one failed invariant.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Outcome of Check: the violations plus a deterministic text report. Two
// runs of the same schedule produce byte-identical reports — that property
// is itself asserted by the root chaos tests.
type CheckResult struct {
	Violations []Violation
	Report     string
}

// Passed reports whether every invariant held.
func (r CheckResult) Passed() bool { return len(r.Violations) == 0 }

// capList joins up to max items for a report line.
func capList(items []string, max int) string {
	if len(items) <= max {
		return strings.Join(items, ", ")
	}
	return strings.Join(items[:max], ", ") + fmt.Sprintf(", … (%d total)", len(items))
}

// Check asserts the system-wide invariants after quiescence. faulted is the
// outcome of the run the schedule was applied to (on sys); baseline is the
// outcome of a fault-free run of the same seed.
//
// Invariants (the paper's §5 claims, made executable):
//
//	I1 exactly-once — no message was queued to a process more often than
//	   once plus its recovery replays (trace KindDeliver vs KindReplay).
//	I2 output-equivalence — the application output stream is byte-identical
//	   to the fault-free run's ("the computation completes exactly as if
//	   the crash had not occurred").
//	I3 state-equivalence — the recoverable process's final state snapshot
//	   is byte-identical to the fault-free run's.
//	I4 no-orphans — after quiescence no endpoint still holds unacknowledged
//	   guaranteed messages (ack received or retransmission exhausted).
//	I5 recovery-completion — every recovery that started also completed.
//	I6 quiescent-queues — every kernel queue-depth gauge reads zero.
//	I7 bounded-recovery — undisturbed recoveries respect the checkpoint
//	   policy's time bound (only checked when the scenario sets one).
func Check(sys System, s Schedule, faulted, baseline RunOutcome, cfg CheckConfig) CheckResult {
	var res CheckResult
	var b strings.Builder
	violate := func(invariant, format string, args ...any) {
		v := Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
		res.Violations = append(res.Violations, v)
		fmt.Fprintf(&b, "%-18s VIOLATION %s\n", invariant, v.Detail)
	}
	ok := func(invariant, format string, args ...any) {
		fmt.Fprintf(&b, "%-18s ok %s\n", invariant, fmt.Sprintf(format, args...))
	}

	fmt.Fprintf(&b, "chaos seed=%d faults=%d schedule=%s\n", s.Seed, len(s.Faults), s.Hex())
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "  %s\n", f)
	}

	// I0: both runs must have finished the workload at all; every later
	// invariant assumes quiescence.
	switch {
	case !baseline.Done:
		violate("completion", "fault-free baseline did not complete (scenario bug)")
	case !faulted.Done:
		violate("completion", "workload did not complete under faults by the deadline")
	default:
		ok("completion", "t=%v", sys.Now())
	}

	// I1 exactly-once: deliveries per message id across all nodes must not
	// exceed one original plus one per replayed copy. Replay re-queues a
	// message with its original id, so each detailed KindReplay event
	// licenses exactly one extra KindDeliver.
	deliver := map[frame.MsgID]int{}
	replays := map[frame.MsgID]int{}
	for _, e := range sys.Trace().OfKind(trace.KindDeliver) {
		if e.HasMsg {
			deliver[e.Msg]++
		}
	}
	for _, e := range sys.Trace().OfKind(trace.KindReplay) {
		if e.HasMsg {
			replays[e.Msg]++
		}
	}
	var dups []string
	totalReplays := 0
	for id, n := range deliver {
		if n > 1+replays[id] {
			dups = append(dups, fmt.Sprintf("%s delivered %d with %d replays", id, n, replays[id]))
		}
	}
	for _, n := range replays {
		totalReplays += n
	}
	sort.Strings(dups)
	if len(dups) > 0 {
		violate("exactly-once", "%s", capList(dups, 5))
	} else {
		ok("exactly-once", "msgs=%d replayed=%d", len(deliver), totalReplays)
	}

	// I2 output-equivalence.
	if len(faulted.Output) != len(baseline.Output) {
		violate("output-match", "faulted run produced %d outputs, baseline %d", len(faulted.Output), len(baseline.Output))
	} else {
		diff := -1
		for i := range faulted.Output {
			if faulted.Output[i] != baseline.Output[i] {
				diff = i
				break
			}
		}
		if diff >= 0 {
			violate("output-match", "output[%d] = %q, baseline %q", diff, faulted.Output[diff], baseline.Output[diff])
		} else {
			ok("output-match", "%d outputs identical", len(faulted.Output))
		}
	}

	// I3 state-equivalence.
	if string(faulted.State) != string(baseline.State) {
		violate("state-match", "final state (%dB) differs from baseline (%dB)", len(faulted.State), len(baseline.State))
	} else {
		ok("state-match", "%dB identical", len(faulted.State))
	}

	// I4 no-orphans: every processing node's endpoint drained — each
	// guaranteed message was acknowledged or its retransmission budget
	// exhausted (which removes it from flight and is reported).
	inflight := 0
	var gaveUp uint64
	var orphans []string
	for _, n := range sys.Nodes() {
		k := sys.Kernel(n)
		if k == nil || k.Endpoint() == nil {
			continue
		}
		gaveUp += k.Endpoint().Stats().GaveUp
		if inf := k.Endpoint().InFlight(); inf > 0 {
			inflight += inf
			orphans = append(orphans, fmt.Sprintf("node %d holds %d", n, inf))
		}
	}
	if inflight > 0 {
		violate("no-orphans", "%s", capList(orphans, 5))
	} else {
		ok("no-orphans", "inflight=0 gaveup=%d", gaveUp)
	}

	// I5 recovery-completion: per process, the last recovery start must be
	// followed by a recovery done.
	type recWindow struct {
		lastStart simtime.Time
		lastDone  simtime.Time
		starts    int
		dones     int
	}
	recs := map[string]*recWindow{}
	for _, e := range sys.Trace().OfKind(trace.KindRecoveryStart) {
		w := recs[e.Subject]
		if w == nil {
			w = &recWindow{}
			recs[e.Subject] = w
		}
		w.starts++
		w.lastStart = e.At
	}
	for _, e := range sys.Trace().OfKind(trace.KindRecoveryDone) {
		w := recs[e.Subject]
		if w == nil {
			w = &recWindow{}
			recs[e.Subject] = w
		}
		w.dones++
		w.lastDone = e.At
	}
	subjects := make([]string, 0, len(recs))
	for subj := range recs {
		subjects = append(subjects, subj)
	}
	sort.Strings(subjects)
	recoveries := 0
	var unfinished []string
	for _, subj := range subjects {
		w := recs[subj]
		recoveries += w.starts
		if w.dones == 0 || w.lastDone < w.lastStart {
			unfinished = append(unfinished, fmt.Sprintf("%s (starts=%d dones=%d)", subj, w.starts, w.dones))
		}
	}
	if len(unfinished) > 0 {
		violate("recovery-complete", "%s", capList(unfinished, 5))
	} else {
		ok("recovery-complete", "starts=%d", recoveries)
	}

	// I7 bounded-recovery: a recovery no other fault disturbed must finish
	// within the checkpoint policy's promised window. A fault disturbs the
	// recovery [rs, rd] if its active interval intersects the open window —
	// the triggering crash (at or before rs) does not.
	if cfg.RecoveryBound > 0 {
		limit := 2*cfg.RecoveryBound + simtime.Second
		checked, skipped := 0, 0
		var slow []string
		for _, subj := range subjects {
			w := recs[subj]
			if w.dones == 0 || w.lastDone < w.lastStart {
				continue
			}
			disturbed := false
			for _, f := range s.Faults {
				if f.At() < w.lastDone && f.At()+f.Dur() > w.lastStart {
					disturbed = true
					break
				}
			}
			if disturbed {
				skipped++
				continue
			}
			checked++
			if d := w.lastDone - w.lastStart; d > limit {
				slow = append(slow, fmt.Sprintf("%s took %v (limit %v)", subj, d, limit))
			}
		}
		if len(slow) > 0 {
			violate("bounded-recovery", "%s", capList(slow, 5))
		} else {
			ok("bounded-recovery", "checked=%d skipped=%d limit=%v", checked, skipped, 2*cfg.RecoveryBound+simtime.Second)
		}
	}

	// I6 quiescent-queues: the kernel queue-depth gauges must all be zero
	// once the system drained.
	var depths []string
	for _, sample := range sys.Metrics().Snapshot().Samples {
		if sample.Name == "queue_depth" && sample.Value != 0 {
			depths = append(depths, fmt.Sprintf("node %d depth=%d", sample.Node, sample.Value))
		}
	}
	if len(depths) > 0 {
		violate("quiescent-queues", "%s", capList(depths, 5))
	} else {
		ok("quiescent-queues", "all zero")
	}

	// I8 replay-basis-union (sharded recorder clusters only): after
	// quiescence, every live stream's shard must have a live replica, a live
	// replica on recovery duty, and every replica on duty must hold the best
	// basis any live replica has — coverage here is the checkpointed-read
	// count plus recorded arrivals, the same total order the handoff protocol
	// ships by. Together these say the union of the shards is a complete
	// replay basis: no recorder crash (mid-handoff included) left a slot
	// whose only competent copy is dead or whose acting copy is stale.
	sharded := false
	if ssys, isSh := sys.(interface{ ShardMap() *recorder.ShardMap }); isSh && ssys.ShardMap() != nil {
		sharded = true
		sm := ssys.ShardMap()
		var recList []*recorder.Recorder
		for i := 0; sys.RecorderAt(i) != nil; i++ {
			recList = append(recList, sys.RecorderAt(i))
		}
		procSet := map[frame.ProcID]bool{}
		for _, r := range recList {
			if !r.Crashed() {
				for _, p := range r.KnownProcs() {
					procSet[p] = true
				}
			}
		}
		procs := make([]frame.ProcID, 0, len(procSet))
		for p := range procSet {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool {
			if procs[i].Node != procs[j].Node {
				return procs[i].Node < procs[j].Node
			}
			return procs[i].Local < procs[j].Local
		})
		var holes []string
		checked := 0
		for _, p := range procs {
			slot := sm.ShardOf(p)
			type rep struct {
				rank   int
				acting bool
				sum    recorder.BasisSummary
			}
			var reps []rep
			var maxCov uint64
			dead := false
			for _, rank := range []int{sm.Leader(slot), sm.Follower(slot)} {
				if rank < 0 || rank >= len(recList) || recList[rank].Crashed() {
					continue
				}
				sum := recList[rank].Basis(p)
				if sum.Dead {
					dead = true
				}
				if sum.Cov() > maxCov {
					maxCov = sum.Cov()
				}
				reps = append(reps, rep{rank: rank, acting: recList[rank].ActsFor(slot), sum: sum})
			}
			if dead {
				continue // dead streams are not recovered, so not part of the basis
			}
			checked++
			acting := 0
			for _, r := range reps {
				if !r.acting {
					continue
				}
				acting++
				if r.sum.Cov() < maxCov {
					holes = append(holes, fmt.Sprintf("%v slot %d: acting rec%d coverage %d behind best %d",
						p, slot, r.rank, r.sum.Cov(), maxCov))
				}
			}
			switch {
			case len(reps) == 0:
				holes = append(holes, fmt.Sprintf("%v slot %d: no live replica", p, slot))
			case acting == 0:
				holes = append(holes, fmt.Sprintf("%v slot %d: no live replica on recovery duty", p, slot))
			}
		}
		if len(holes) > 0 {
			violate("replay-basis-union", "%s", capList(holes, 5))
		} else {
			ok("replay-basis-union", "streams=%d slots=%d recorders=%d", checked, sm.Slots(), len(recList))
		}
	}

	// M online-monitor cross-check: when the system runs the online invariant
	// monitor (internal/monitor), its streaming duplicate-delivery verdict
	// must agree with I1's post-quiescence count — flagged online at the
	// violating delivery's virtual timestamp, confirmed here after the run —
	// and its online-only invariants (acceptance order, replay basis,
	// re-executed output, give-up inference) are surfaced as violations in
	// their own right.
	hasMon := false
	if msys, isMon := sys.(interface{ Monitor() *monitor.Monitor }); isMon {
		if mon := msys.Monitor(); mon != nil {
			hasMon = true
			monDups := mon.DupViolations()
			switch {
			case monDups > 0 && len(dups) == 0:
				violate("monitor-agree", "online monitor flagged %d duplicate deliveries this checker did not", monDups)
			case monDups == 0 && len(dups) > 0:
				violate("monitor-agree", "post-quiescence duplicates were never flagged online")
			default:
				ok("monitor-agree", "dup verdicts agree (online=%d post-quiescence=%d)", monDups, len(dups))
			}
			for _, v := range mon.Violations() {
				if v.Invariant == monitor.InvExactlyOnce || v.Invariant == monitor.InvReexecOutput {
					continue // the dup family is covered by exactly-once + the agreement line
				}
				violate("online-"+v.Invariant, "%s", v)
			}
		}
	}

	if len(res.Violations) == 0 {
		fmt.Fprintf(&b, "PASS %d invariants\n", 6+boolToInt(cfg.RecoveryBound > 0)+boolToInt(hasMon)+boolToInt(sharded))
	} else {
		fmt.Fprintf(&b, "FAIL %d violation(s)\n", len(res.Violations))
	}
	res.Report = b.String()
	return res
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
