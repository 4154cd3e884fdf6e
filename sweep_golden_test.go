package publishing

import (
	"bytes"
	"fmt"
	"testing"

	"publishing/internal/simtime"
	"publishing/internal/sweep"
)

// sweepRun executes one (medium, seed) cluster simulation and serializes
// its full event trace plus end-of-run counters: any nondeterminism or
// behaviour change anywhere in the stack shows up as a byte difference.
func sweepRun(t sweep.Task) ([]byte, error) {
	var trace bytes.Buffer
	cfg := DefaultConfig(3)
	cfg.Seed = t.Seed
	cfg.Medium = MediumKind(t.Config)
	cfg.TraceWriter = &trace
	c := New(cfg)
	c.Registry().RegisterMachine("sink", func(args []byte) Machine {
		return &testMachine{handle: func(*PCtx, Msg) {}}
	})
	c.Registry().RegisterProgram("gen", func(args []byte) Program {
		return func(ctx *PCtx) {
			l, _ := ctx.ServiceLink("sink")
			for j := 0; j < 100; j++ {
				_ = ctx.Send(l, []byte{byte(j)}, NoLink)
				ctx.Compute(5 * simtime.Millisecond)
			}
		}
	})
	sink, err := c.Spawn(1, ProcSpec{Name: "sink", Recoverable: true})
	if err != nil {
		return nil, err
	}
	c.SetService("sink", sink)
	if _, err := c.Spawn(0, ProcSpec{Name: "gen", Recoverable: true}); err != nil {
		return nil, err
	}
	c.Run(2 * simtime.Minute)
	fmt.Fprintf(&trace, "fired=%d now=%v\n", c.Scheduler().Fired(), c.Now())
	fmt.Fprintf(&trace, "recorder=%+v\n", *c.Recorder().Stats())
	fmt.Fprintf(&trace, "medium=%+v\n", *c.Medium().Stats())
	fmt.Fprintf(&trace, "store=%+v\n", c.Store().Stats())
	return trace.Bytes(), nil
}

// TestSweepDigests runs the seed sweep, 4 media × 4 seeds, serially and on
// a worker pool. The two runs must be byte-identical, and their digests
// must match testdata/golden/sweep.digests: if the digests are unchanged,
// the behaviour is unchanged. Rewrite the file (only for an intended
// behaviour change) with
//
//	go test -run TestSweepDigests -update-golden .
func TestSweepDigests(t *testing.T) {
	var tasks []sweep.Task
	for _, medium := range []MediumKind{MediumPerfect, MediumEther, MediumRing, MediumStar} {
		for seed := uint64(1); seed <= 4; seed++ {
			tasks = append(tasks, sweep.Task{Config: string(medium), Seed: seed})
		}
	}
	serial := sweep.RunSerial(tasks, sweepRun)
	parallel := sweep.Run(tasks, 4, sweepRun)
	if err := sweep.Verify(serial, parallel); err != nil {
		t.Fatal(err)
	}
	out := []byte("# medium seed sha256(output) output_len\n")
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("task %+v: %v", r.Task, r.Err)
		}
		out = fmt.Appendf(out, "%s %d %s %d\n", r.Task.Config, r.Task.Seed, r.Digest, len(r.Output))
	}
	checkGolden(t, "sweep.digests", out)
}
