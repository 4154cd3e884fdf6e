// Experiments regenerates the measurement half of the paper's evaluation —
// the numbers that came from the DEMOS/MP implementation itself (§5.2) —
// plus the §3.2.3 recovery-time worked example, printing paper-vs-measured
// for each. The measured values come from running the actual simulated
// system, not from tables.
//
// Usage:
//
//	go run ./cmd/experiments            # everything
//	go run ./cmd/experiments -fig57     # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"publishing/internal/checkpoint"
	"publishing/internal/measure"
	"publishing/internal/simtime"
)

func main() {
	var (
		fig31    = flag.Bool("fig31", false, "the §3.2.3 recovery-time bound example")
		fig57    = flag.Bool("fig57", false, "Fig 5.7 per-message overheads")
		fig58    = flag.Bool("fig58", false, "Fig 5.8 per-process overheads")
		publish  = flag.Bool("publishtime", false, "§5.2.2 publishing time per message")
		nodeopt  = flag.Bool("nodeopt", false, "§6.6.2 node-level recovery trade-off")
		storeEng = flag.String("store", "paged", "observe: stable-store backend (paged|segment)")
		doChaos  = flag.Bool("chaos", false, "seeded fault-schedule sweep through the chaos harness")
		chaosN   = flag.Int("chaosn", 10, "chaos: number of consecutive seeds to sweep")
		chaosDir = flag.String("chaosdir", "", "chaos: dump failing-schedule artifacts under this directory (default: system temp)")
		observe  = flag.Bool("observe", false, "crash-and-recover run that exports metrics + timeline")
		explain  = flag.String("explain", "", "causal post-mortem for one message id on the observe run (implies -observe)")
		metOut   = flag.String("metrics", "", "observe: write the metrics snapshot here (\"-\" = stdout)")
		traceOut = flag.String("trace-out", "", "observe: write a Chrome trace-event JSON timeline here")
		flight   = flag.Int("flight", 0, "observe: keep only the most recent N trace events")
		seed     = flag.Uint64("seed", 1, "observe: determinism seed")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run here")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit here")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle so the profile shows live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	if *doChaos {
		// A tool run, not one of the paper's experiments; -seed picks the
		// first schedule.
		dir := *chaosDir
		if dir == "" {
			dir = filepath.Join(os.TempDir(), "publishing-chaos")
		}
		runChaos(*seed, *chaosN, dir)
		return
	}
	if *observe || *explain != "" {
		// Like -chaos, a tool run outside the default paper set.
		runObserve(observeOpts{metricsOut: *metOut, traceOut: *traceOut, flight: *flight, seed: *seed, store: *storeEng, explain: *explain})
		return
	}
	all := !(*fig31 || *fig57 || *fig58 || *publish || *nodeopt)

	if all || *fig31 {
		runFig31()
	}
	if all || *fig57 {
		runFig57()
	}
	if all || *fig58 {
		runFig58()
	}
	if all || *publish {
		runPublishTime()
	}
	if all || *nodeopt {
		runNodeOpt()
	}
}

func section(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func runFig31() {
	section("Fig 3.1 / §3.2.3 — the recovery-time bound, worked example")
	lp := checkpoint.Fig31Params()
	fmt.Printf("  parameters: t_cfix=%v t_page=%v/page t_mfix=%v t_byte=%v/B f_cpu=%.1f\n",
		lp.CFix, lp.PerPage, lp.MFix, lp.PerByte, lp.CPUShare)

	pp := checkpoint.ProcParams{CheckpointPages: 4}
	fmt.Printf("  right after a 4-page checkpoint:      t_max = %-9v (paper: 140ms)\n", checkpoint.Bound(lp, pp))
	pp.ExecSince = 100 * simtime.Millisecond
	fmt.Printf("  at +200ms (100ms of execution):       t_max = %-9v (paper: 340ms)\n", checkpoint.Bound(lp, pp))
	pp.MsgsSince, pp.BytesSince = 1, 1024
	fmt.Printf("  right after a 1024-byte message:      t_max = %-9v (paper's figure lost; +t_mfix+l*t_byte = +12.24ms)\n",
		checkpoint.Bound(lp, pp))
	fmt.Printf("  Young's interval for Ts=10s, Tf=2min: T_c  = %v\n",
		checkpoint.YoungInterval(10*simtime.Second, 2*simtime.Minute))
}

func runFig57() {
	section("Fig 5.7 — per-message overheads (512 intranode self-sends, quiescent system)")
	rows := measure.Fig57Table()
	fmt.Printf("  %-9s %12s %12s\n", "", "realTime", "cpuTime")
	for _, r := range rows {
		tag := "without"
		if r.Publishing {
			tag = "with"
		}
		fmt.Printf("  %-9s %10.1fms %10.1fms\n", tag, r.RealMS, r.CPUMS)
	}
	fmt.Println("  paper's surviving anchors: real-cpu = 1ms without publishing, ~3ms with")
	fmt.Printf("  (measured: %.1fms and %.1fms); publishing adds ~26ms CPU per message\n",
		rows[0].RealMS-rows[0].CPUMS, rows[1].RealMS-rows[1].CPUMS)
	fmt.Printf("  (measured: %.1fms)\n", rows[1].CPUMS-rows[0].CPUMS)
}

func runFig58() {
	section("Fig 5.8 — per-process overheads (create+destroy a null process x25)")
	rows := measure.Fig58Table()
	fmt.Printf("  %-9s %12s %12s\n", "", "measured", "paper")
	fmt.Printf("  %-9s %10.0fms %10s\n", "without", rows[0].TotalCPUMS, "608ms")
	fmt.Printf("  %-9s %10.0fms %10s\n", "with", rows[1].TotalCPUMS, "5135ms")
	fmt.Printf("  blow-up ratio: %.1fx (paper: 8.4x) — \"directly attributable to the\n",
		rows[1].TotalCPUMS/rows[0].TotalCPUMS)
	fmt.Println("  servicing of network protocols\"")
}

func runPublishTime() {
	section("§5.2.2 — publishing time per message at the recorder")
	fmt.Printf("  %-14s %10s %10s\n", "implementation", "measured", "paper")
	paper := []string{"57ms", "12ms", "0.8ms"}
	for i, l := range measure.PublishTimeLevels() {
		fmt.Printf("  %-14s %8.2fms %10s\n", l.Mode, l.PerMS, paper[i])
	}
	fmt.Println("  \"by intercepting and publishing the messages directly at the media")
	fmt.Println("  layer ... the per message cost can be reduced to the desired 0.8ms\"")
}

func runNodeOpt() {
	section("§6.6.2 — recovering nodes rather than processes")
	rows := measure.Fig57Table()
	withPub, withoutPub := rows[1].CPUMS, rows[0].CPUMS
	fmt.Printf("  per-process publishing: every intranode message costs %.1fms CPU\n", withPub)
	fmt.Printf("  node-level recovery:    intranode messages stay local (%.1fms) but every\n", withoutPub)
	fmt.Printf("  extranode message needs a sync companion (x2 extranode traffic)\n\n")
	fmt.Printf("  %-28s %22s %22s\n", "intranode share of traffic", "per-proc CPU/msg", "node-level CPU/msg")
	for _, frac := range []float64{0.2, 0.5, 0.8, 0.9} {
		perProc := frac*withPub + (1-frac)*withPub
		nodeLevel := frac*withoutPub + (1-frac)*2*withPub
		fmt.Printf("  %26.0f%% %20.1fms %20.1fms\n", frac*100, perProc, nodeLevel)
	}
	fmt.Println("\n  \"not all sites may wish to recover single processes ... we can greatly")
	fmt.Println("  reduce the number of messages that the recorder needs to publish\"")
}
