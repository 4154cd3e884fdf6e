package publishing

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"publishing/internal/chaos"
)

// chaosSweepSeeds is how many distinct generated schedules the sweep runs.
// Each seed is an independent scenario (its own cluster pair, workload, and
// fault schedule), so the sweep is the closest thing this repo has to a
// continuous simulation-testing fleet — just compressed into one `go test`.
const chaosSweepSeeds = 50

// TestChaosScheduleSweep generates one fault schedule per seed and requires
// every system-wide invariant to hold. On failure it dumps post-mortem
// artifacts (trace tail, online monitor report, metrics snapshot) and prints
// the checker report, the artifact path, and a minimized reproducer token.
func TestChaosScheduleSweep(t *testing.T) {
	lim := chaos.DefaultLimits()
	opt := chaos.DefaultOptions()
	opt.ArtifactDir = filepath.Join(os.TempDir(), "publishing-chaos")
	for seed := uint64(1); seed <= chaosSweepSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			s := chaos.Generate(seed, lim)
			build := ChaosBuild(ChaosSeedVariant(seed))
			res := chaos.Run(s, build, opt)
			if !res.Passed {
				t.Errorf("invariants violated:\n%s", res.Report)
				if res.Artifacts != "" {
					t.Errorf("post-mortem artifacts for schedule %s:\n%s", s.Hex(), res.Artifacts)
				}
				t.Fatal(chaos.Reproducer(s, build, opt))
			}
		})
	}
}

// TestChaosDeterministicReports runs the same schedule twice and demands
// byte-identical invariant-checker reports — the property every "reproduce
// with this seed" workflow stands on.
func TestChaosDeterministicReports(t *testing.T) {
	for _, seed := range []uint64{2, 13, 31} {
		s := chaos.Generate(seed, chaos.DefaultLimits())
		build := ChaosBuild(ChaosSeedVariant(seed))
		a := chaos.Run(s, build, chaos.DefaultOptions())
		b := chaos.Run(s, build, chaos.DefaultOptions())
		if a.Report != b.Report {
			t.Fatalf("seed %d: reports differ across identical runs:\n--- first\n%s\n--- second\n%s",
				seed, a.Report, b.Report)
		}
		if !a.Passed {
			t.Fatalf("seed %d: schedule failed (sweep should have caught this):\n%s", seed, a.Report)
		}
	}
}

// TestChaosBrokenDupSuppressionCaught is the checker's own regression test:
// deliberately disable the transport's duplicate detection, inject a heavy
// duplication burst, and require the exactly-once invariant to catch the
// resulting application-level duplicates. The same schedule against an
// intact transport must pass — the violation is the broken guard's fault,
// not the schedule's.
func TestChaosBrokenDupSuppressionCaught(t *testing.T) {
	s := chaos.Schedule{Seed: 424242, Faults: []chaos.Fault{
		{Kind: chaos.KindDupBurst, AtMs: 300, DurMs: 3000, Prob: 255},
	}}
	opt := chaos.DefaultOptions()

	broken := chaos.Run(s, ChaosBuild(ChaosOptions{BreakDupSuppression: true}), opt)
	if broken.Passed {
		t.Fatalf("checker passed with duplicate suppression disabled under a dup burst:\n%s", broken.Report)
	}
	caught := false
	for _, v := range broken.Violations {
		if v.Invariant == "exactly-once" {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("exactly-once invariant missed the duplicates; violations:\n%s", broken.Report)
	}

	intact := chaos.Run(s, ChaosBuild(ChaosOptions{}), opt)
	if !intact.Passed {
		t.Fatalf("intact transport failed the same schedule:\n%s", intact.Report)
	}
}

// TestChaosQuarantinedDurableDupHole pins the ROADMAP's open exactly-once
// question at a non-canonical cluster size (4 nodes). The pinned
// schedule's chaos trace.log shows:
//
//   - at 1761.760 ms, p0.1#9 is queued to the first incarnation of p1.1;
//   - its end-to-end ack is lost twice, so p0.1 keeps retransmitting;
//   - at 1776.260 ms, p1.1, having consumed #9, sends p1.1#9;
//   - at 2053 ms, node 1 crashes;
//   - recovery replays only p0.1#1–#8, because the recorder never heard an
//     ack that ordered #9;
//   - at 15243.259 ms, the 38th attempt to send #9 is delivered to the new
//     incarnation, and the exactly-once check counts two deliveries.
//
// No duplicate filter should refuse that delivery. A per-stream acceptance
// floor taken from the recorder's replay basis would be 8 here and would
// still accept #9, and it must: output-match and state-match pass only
// because the new incarnation consumes #9. The open question is which side
// is wrong. Either the exactly-once invariant should allow re-delivery, to
// a new incarnation, of a message the recorder never ordered; or a process
// consuming a message the recorder has not ordered is itself the gap, since
// with two senders the recovered order could differ from the original. The
// online monitor flags the second delivery the moment it lands, and monitor
// and checker verdicts agree.
//
// Quarantined until that question is settled: the test only runs with
// CHAOS_RUN_QUARANTINED=1. If the schedule ever passes, this test fails
// loudly and the ROADMAP item needs revisiting.
func TestChaosQuarantinedDurableDupHole(t *testing.T) {
	if os.Getenv("CHAOS_RUN_QUARANTINED") == "" {
		t.Skip("known exactly-once hole, quarantined until the durable dup-suppression fix lands " +
			"(ROADMAP: \"Durable duplicate suppression across recovery\"); set CHAOS_RUN_QUARANTINED=1 to run")
	}
	// chaos.Generate(8, chaos.DefaultLimits()).Hex() — pinned so the repro
	// survives any future change to the schedule generator.
	const token = "0000000000000008020000080500000000124f940c000009ea00000b1e87a5450a000005" +
		"79000006aacf975f0b000004db000004c4a56daf08000013d0000005b0ea89ee060000031a0000" +
		"0934a65b630500000343000006410aa8e0"
	s, err := chaos.DecodeHex(token)
	if err != nil {
		t.Fatalf("bad pinned token: %v", err)
	}
	res := chaos.Run(s, ChaosBuild(ChaosOptions{Nodes: 4}), chaos.DefaultOptions())
	if res.Passed {
		t.Fatalf("the durable-dup-suppression hole no longer reproduces — close the ROADMAP item, "+
			"widen the sweep to rotate cluster sizes, and delete this quarantine:\n%s", res.Report)
	}
	dup, agree := false, false
	for _, v := range res.Violations {
		if v.Invariant == "exactly-once" {
			dup = true
		}
	}
	agree = strings.Contains(res.Report, "monitor-agree      ok")
	if !dup || !agree {
		t.Fatalf("hole reproduced with an unexpected signature (want exactly-once violation with "+
			"online/post-quiescence agreement):\n%s", res.Report)
	}
}

// TestChaosRepro replays a schedule hex token from the CHAOS_SCHEDULE
// environment variable — the reproducer a failing sweep prints. Skipped
// when the variable is unset.
func TestChaosRepro(t *testing.T) {
	tok := os.Getenv("CHAOS_SCHEDULE")
	if tok == "" {
		t.Skip("set CHAOS_SCHEDULE=<hex token> to replay a failing schedule")
	}
	s, err := chaos.DecodeHex(tok)
	if err != nil {
		t.Fatalf("bad CHAOS_SCHEDULE token: %v", err)
	}
	res := chaos.Run(s, ChaosBuild(ChaosSeedVariant(s.Seed)), chaos.DefaultOptions())
	t.Logf("\n%s", res.Report)
	if !res.Passed {
		t.Fatalf("schedule %s violates %d invariant(s)", s.Hex(), len(res.Violations))
	}
}
