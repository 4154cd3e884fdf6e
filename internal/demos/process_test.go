package demos

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// processGoroutines counts the goroutines running a process body: a
// parked or running process coroutine. runtime.NumGoroutine alone would
// also count unrelated goroutines of earlier tests that are still winding
// down, and one of those exiting can hide a leak.
func processGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("demos.(*process).run("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineLeak reports an error if more process goroutines run than
// baseline. A coroutine that ends takes its goroutine with it at once.
func goroutineLeak(baseline int) error {
	if n := processGoroutines(); n > baseline {
		return fmt.Errorf("%d process goroutines, want %d: a process coroutine was left parked", n, baseline)
	}
	return nil
}

// Every way a process ends — exit, fault, kill while parked, kill before it
// ever ran, node crash, a program that swallows the kill — must unwind its
// coroutine (no goroutine left behind) and run its deferred functions
// exactly once if it ever started.
func TestProcessLifecycle(t *testing.T) {
	cases := []struct {
		name string
		// body runs inside the program after its deferred counter is set.
		body func(ctx *PCtx)
		// procs is how many processes to spawn (default 1).
		procs int
		// end ends the processes after they have run to a parking point;
		// nil lets them finish on their own.
		end          func(k *Kernel, ids []frame.ProcID)
		endFirst     bool // end before the first dispatch
		wantDeferred int
		wantState    ProcState
	}{
		{
			name:         "exit",
			body:         func(ctx *PCtx) { ctx.Compute(simtime.Millisecond) },
			wantDeferred: 1,
			wantState:    StateUnknown,
		},
		{
			name:         "explicit-exit",
			body:         func(ctx *PCtx) { ctx.Exit() },
			wantDeferred: 1,
			wantState:    StateUnknown,
		},
		{
			name: "fault",
			body: func(ctx *PCtx) {
				ctx.Compute(simtime.Millisecond)
				panic("boom")
			},
			wantDeferred: 1,
			wantState:    StateCrashed,
		},
		{
			name:         "kill-blocked-in-receive",
			body:         func(ctx *PCtx) { ctx.Receive() },
			end:          func(k *Kernel, ids []frame.ProcID) { k.CrashProcess(ids[0], "test") },
			wantDeferred: 1,
			wantState:    StateCrashed,
		},
		{
			name:         "destroy-blocked-in-receive",
			body:         func(ctx *PCtx) { ctx.Receive() },
			end:          func(k *Kernel, ids []frame.ProcID) { k.Destroy(ids[0]) },
			wantDeferred: 1,
			wantState:    StateUnknown,
		},
		{
			name:         "kill-before-first-dispatch",
			body:         func(ctx *PCtx) { ctx.Receive() },
			end:          func(k *Kernel, ids []frame.ProcID) { k.Destroy(ids[0]) },
			endFirst:     true,
			wantDeferred: 0,
			wantState:    StateUnknown,
		},
		{
			name:         "crash-node-with-parked-processes",
			body:         func(ctx *PCtx) { ctx.Receive() },
			procs:        4,
			end:          func(k *Kernel, _ []frame.ProcID) { k.CrashNode() },
			wantDeferred: 4,
			wantState:    StateUnknown,
		},
		{
			name: "program-swallows-kill-then-calls-kernel",
			body: func(ctx *PCtx) {
				func() {
					defer func() { _ = recover() }()
					ctx.Receive()
				}()
				// The kill was swallowed; the next kernel call must unwind
				// the process again rather than run.
				ctx.Compute(simtime.Millisecond)
				panic("ran past a kill")
			},
			end:          func(k *Kernel, ids []frame.ProcID) { k.Destroy(ids[0]) },
			wantDeferred: 1,
			wantState:    StateUnknown,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := processGoroutines()
			e := newTenv(t, 1, false, frame.NilProc)
			k := e.kernels[0]
			deferred := 0
			e.reg.RegisterProgram("p", func([]byte) Program {
				return func(ctx *PCtx) {
					defer func() { deferred++ }()
					tc.body(ctx)
				}
			})
			n := max(tc.procs, 1)
			var ids []frame.ProcID
			for i := 0; i < n; i++ {
				id, err := k.Spawn(ProcSpec{Name: "p"}, SpawnOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if tc.end != nil && tc.endFirst {
				tc.end(k, ids)
			}
			e.run(simtime.Second)
			if tc.end != nil && !tc.endFirst {
				tc.end(k, ids)
				e.run(simtime.Second)
			}
			if deferred != tc.wantDeferred {
				t.Errorf("deferred functions ran %d times, want %d", deferred, tc.wantDeferred)
			}
			for _, id := range ids {
				if got := k.ProcState(id); got != tc.wantState {
					t.Errorf("%s state = %v, want %v", id, got, tc.wantState)
				}
			}
			if err := goroutineLeak(baseline); err != nil {
				t.Error(err)
			}
		})
	}
}

// The broken variant: a process left parked in Receive holds a goroutine,
// and the leak check must see it — otherwise the lifecycle test above
// proves nothing.
func TestProcessLifecycleLeakCheckSeesParkedProcess(t *testing.T) {
	baseline := processGoroutines()
	e := newTenv(t, 1, false, frame.NilProc)
	k := e.kernels[0]
	e.reg.RegisterProgram("p", func([]byte) Program {
		return func(ctx *PCtx) { ctx.Receive() }
	})
	id, err := k.Spawn(ProcSpec{Name: "p"}, SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.run(simtime.Second)
	if err := goroutineLeak(baseline); err == nil {
		t.Fatal("leak check passed with a process parked in Receive")
	}
	k.Destroy(id)
	if err := goroutineLeak(baseline); err != nil {
		t.Fatal(err)
	}
}

// kernelCallLoop spawns a process that calls Compute forever and steps the
// scheduler until it is parked in its steady state. Each further
// Scheduler.Step is then one dispatch: resume the process, take its next
// kernel call, charge it, and schedule the next dispatch.
func kernelCallLoop(tb testing.TB) (*simtime.Scheduler, func()) {
	tb.Helper()
	e := newTenv(tb, 1, false, frame.NilProc)
	k := e.kernels[0]
	e.reg.RegisterProgram("loop", func([]byte) Program {
		return func(ctx *PCtx) {
			for {
				ctx.Compute(simtime.Microsecond)
			}
		}
	})
	id, err := k.Spawn(ProcSpec{Name: "loop"}, SpawnOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		e.sched.Step()
	}
	return e.sched, func() { k.Destroy(id) }
}

// A steady-state kernel call allocates nothing: the switch into and out of
// the process coroutine, the request and the reply all live in place.
func TestKernelCallAllocs(t *testing.T) {
	sched, stop := kernelCallLoop(t)
	defer stop()
	if n := testing.AllocsPerRun(1000, func() { sched.Step() }); n != 0 {
		t.Fatalf("%v allocations per kernel call, want 0", n)
	}
}

// BenchmarkKernelCall times one kernel call: one Scheduler.Step that
// switches into the process, takes its Compute call and switches back.
func BenchmarkKernelCall(b *testing.B) {
	sched, stop := kernelCallLoop(b)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Step()
	}
}
