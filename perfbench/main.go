// Command perfbench is the repository's benchmark: it drives
// publishing.Cluster through three workloads and prints end-to-end metrics
// (--trace 0) or the per-layer ladder (--trace 1).
//
//	bash perfbench/run.sh --workload steady-256 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report and a host block. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: steady-256, ether-64 or recover-64")
	seed := fs.Uint64("seed", 1, "seed of the message stream and the crash schedule")
	secs := fs.Int("seconds", 10, "wall seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ladder")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := lookup(*name)
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (steady-256, ether-64, recover-64), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	budget := time.Duration(*secs) * time.Second

	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %d\n", s.Name, *seed, *secs, *traced)
	host, _ := json.Marshal(hostInfo())
	fmt.Fprintf(out, "host %s\n", host)

	var res result
	if *traced == 1 {
		res = runTraced(s, *seed, budget, out)
	} else {
		res = runTimed(s, *seed, budget, out)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// runTimed times setupBuilds builds of the cluster, then repeats the
// workload's iterations, cycling through its streams, until the budget is
// spent (at least three iterations and one per stream). It reports the
// end-to-end metrics: wall-clock ones as medians over iterations,
// virtual-time ones from the first iteration of each stream, which every
// later iteration of that stream must reproduce exactly.
func runTimed(s spec, seed uint64, budget time.Duration, out io.Writer) result {
	plans := makePlans(s, seed)
	start := time.Now()
	setup := setupTimes(plans[0], setupBuilds)
	var runs []outcome
	for i := 0; i < max(3, len(plans)) || time.Since(start) < budget; i++ {
		runs = append(runs, iterate(plans[i%len(plans)], nil, false))
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for i, o := range runs {
		if first := runs[i%len(plans)]; o.c != first.c {
			res.Correct = false
			fmt.Fprintf(out, "FAIL iteration %d diverged from iteration %d:\n  %+v\n  %+v\n", i, i%len(plans), o.c, first.c)
		}
	}
	k, lat, rec := pooled(runs[:len(plans)])
	res.Attempted, res.Failed = k.attempted(), k.failed()
	for _, pr := range k.problems() {
		res.Correct = false
		fmt.Fprintf(out, "FAIL %s\n", pr)
	}

	var vps, eps, ape, bpe []float64
	for _, o := range runs {
		vps = append(vps, o.c.Virtual.Seconds()/o.wall.Seconds())
		eps = append(eps, float64(o.c.Events)/o.wall.Seconds())
		ape = append(ape, float64(o.mallocs)/float64(o.c.Events))
		bpe = append(bpe, float64(o.bytes)/float64(o.c.Events))
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(setup))
	set("virtual_s_per_s", "vs/s", median(vps))
	set("events_per_s", "ev/s", median(eps))
	set("allocs_per_event", "allocs", median(ape))
	set("bytes_per_event", "B", median(bpe))
	set("deliver_p50_ms", "ms", quantile(lat, 0.50).Milliseconds())
	set("deliver_p99_ms", "ms", quantile(lat, 0.99).Milliseconds())
	set("frames_per_msg", "frames", ratio(k.FramesSent, int64(k.Delivered)))
	set("acks_per_msg", "frames", ratio(k.AcksStandalone, int64(k.Delivered)))
	set("recovery_p50_ms", "ms", quantile(rec, 0.50).Milliseconds())
	set("recovery_p90_ms", "ms", quantile(rec, 0.90).Milliseconds())

	fmt.Fprintf(out, "%d streams, %d iterations, %.2fs of Run each (median)\n", len(plans), len(runs), median(durations(runs)))
	fmt.Fprintf(out, "sends %d delivered %d missing %d dups %d; crashes %d recovered %d; monitor violations %d\n",
		k.Sends, k.Delivered, k.Missing, k.Dups, k.Crashes, k.Recovered, k.Violations)
	fmt.Fprintf(out, "failed_share %.6f (%d of %d)\n", ratio(int64(res.Failed), int64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Fprintf(out, "samples: %d deliveries, %d recoveries\n", len(lat), len(rec))
	printMetrics(out, res.Metrics)
	return res
}

// setupBuilds is how many times a run builds its cluster for setup_s: a
// build takes milliseconds, so one per iteration leaves the median at the
// mercy of a few GC cycles.
const setupBuilds = 21

func durations(runs []outcome) []float64 {
	var xs []float64
	for _, o := range runs {
		xs = append(xs, o.wall.Seconds())
	}
	return xs
}
