// Package sweep fans independent deterministic simulations out across a
// worker pool. Each (config, seed) run owns a private Scheduler, Rand, and
// cluster, so runs share no mutable state and the fan-out changes nothing
// about any individual execution: a task's output is bit-identical whether
// it runs serially or on N goroutines. Verify checks exactly that, turning
// the substrate's determinism claim (see internal/simtime) into an asserted
// property rather than an assumption.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
)

// Task names one independent simulation: a configuration label and the seed
// that drives every random stream in it.
type Task struct {
	Config string
	Seed   uint64
}

// RunFunc executes one task from scratch and serializes its outcome. It
// must be pure with respect to the task: build a fresh simulation from
// (Config, Seed), run it, and return only data derived from the simulation
// (no wall-clock times, no shared counters). Purity is what makes parallel
// execution indistinguishable from serial.
type RunFunc func(t Task) ([]byte, error)

// Result is one task's outcome.
type Result struct {
	Task   Task
	Output []byte
	// Digest is the hex SHA-256 of Output — the per-seed fingerprint that
	// golden files record.
	Digest string
	Err    error
}

// Run executes every task on a pool of workers goroutines (GOMAXPROCS when
// workers <= 0), returning results in task order.
func Run(tasks []Task, workers int, fn RunFunc) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]Result, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(tasks[i], fn)
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// RunSerial executes every task in order on the calling goroutine — the
// reference execution Verify compares a parallel run against.
func RunSerial(tasks []Task, fn RunFunc) []Result {
	results := make([]Result, len(tasks))
	for i := range tasks {
		results[i] = runOne(tasks[i], fn)
	}
	return results
}

func runOne(t Task, fn RunFunc) Result {
	out, err := fn(t)
	sum := sha256.Sum256(out)
	return Result{
		Task:   t,
		Output: out,
		Digest: hex.EncodeToString(sum[:]),
		Err:    err,
	}
}

// Verify checks that two executions of the same task list produced
// bit-identical per-task outputs, reporting the first divergence.
func Verify(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("sweep: result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Task != b[i].Task {
			return fmt.Errorf("sweep: task %d differs: %+v vs %+v", i, a[i].Task, b[i].Task)
		}
		ae, be := a[i].Err, b[i].Err
		if (ae == nil) != (be == nil) {
			return fmt.Errorf("sweep: task %+v errors diverge: %v vs %v", a[i].Task, ae, be)
		}
		if !bytes.Equal(a[i].Output, b[i].Output) {
			return fmt.Errorf("sweep: task %+v outputs diverge: %s vs %s (lengths %d vs %d)",
				a[i].Task, a[i].Digest, b[i].Digest, len(a[i].Output), len(b[i].Output))
		}
	}
	return nil
}
