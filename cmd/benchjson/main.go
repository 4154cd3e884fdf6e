// Benchjson converts `go test -bench` output on stdin into a JSON snapshot,
// the format of the repo's committed perf-trajectory files (BENCH_*.json).
//
// Usage:
//
//	go test -bench=. -benchmem -run=^$ . | go run ./cmd/benchjson -o BENCH_baseline.json
//	go test -bench=. -run=^$ . | go run ./cmd/benchjson -after BENCH_recovery.json
//	go run ./cmd/benchjson -diff old.json new.json
//	go run ./cmd/benchjson -diff BENCH_recovery.json
//
// Only benchmark result lines are parsed; everything else (ok lines, logs)
// is ignored, so piping a whole test run through is fine.
//
// -o writes the snapshot to a file instead of stdout, but refuses to
// clobber an existing trajectory file: updating one in place is what
// -after is for (-force overrides). -after updates the "after" half of a
// before/after pair file in place, preserving its "before" half (a plain
// snapshot file is adopted as the before). -metrics FILE embeds a metrics
// snapshot (the WriteJSON export of a run's registry) into the output, so
// a trajectory records what the counters looked like alongside the
// timings. -diff prints per-benchmark deltas between two snapshots, or
// between the halves of a single pair file.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark result.
type Bench struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any custom b.ReportMetric units (e.g. "msgs/wallsec").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the whole file.
type Snapshot struct {
	Note       string  `json:"note,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
	// Metrics is an optional embedded metrics-registry export (-metrics),
	// recorded alongside the timings but never diffed.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// Pair is a before/after trajectory file (BENCH_recovery.json).
type Pair struct {
	Note   string   `json:"note,omitempty"`
	Before Snapshot `json:"before"`
	After  Snapshot `json:"after"`
}

func main() {
	args := os.Args[1:]
	var (
		outPath string
		metPath string
		force   bool
	)
loop:
	for len(args) > 0 {
		switch args[0] {
		case "-diff":
			runDiff(args[1:])
			return
		case "-after":
			if len(args) < 2 {
				fmt.Fprintln(os.Stderr, "benchjson: -after needs a pair-file path")
				os.Exit(1)
			}
			runAfter(args[1], metPath, strings.Join(args[2:], " "))
			return
		case "-o":
			if len(args) < 2 {
				fmt.Fprintln(os.Stderr, "benchjson: -o needs a path")
				os.Exit(1)
			}
			outPath = args[1]
			args = args[2:]
		case "-metrics":
			if len(args) < 2 {
				fmt.Fprintln(os.Stderr, "benchjson: -metrics needs a file path")
				os.Exit(1)
			}
			metPath = args[1]
			args = args[2:]
		case "-force":
			force = true
			args = args[1:]
		default:
			break loop
		}
	}
	snap := readBench(strings.Join(args, " "))
	snap.Metrics = loadMetrics(metPath)
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if outPath == "" {
		os.Stdout.Write(data)
		return
	}
	if _, err := os.Stat(outPath); err == nil && !force {
		fmt.Fprintf(os.Stderr, "benchjson: %s already exists; use -after to update a trajectory in place, or -force to overwrite\n", outPath)
		os.Exit(1)
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// loadMetrics reads an embedded-metrics file ("" = none), requiring JSON —
// the WriteJSON export of a registry, not the Prometheus text form.
func loadMetrics(path string) json.RawMessage {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if !json.Valid(data) {
		fmt.Fprintf(os.Stderr, "benchjson: %s is not JSON (use the metrics JSON export, not the text form)\n", path)
		os.Exit(1)
	}
	return json.RawMessage(data)
}

// readBench parses `go test -bench` output on stdin into a snapshot.
func readBench(note string) Snapshot {
	snap := Snapshot{Note: note}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	return snap
}

// loadFile reads a trajectory file as (pair, isPair) or a plain snapshot.
func loadFile(path string) (Pair, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var p Pair
	if err := json.Unmarshal(data, &p); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		os.Exit(1)
	}
	if len(p.Before.Benchmarks) > 0 || len(p.After.Benchmarks) > 0 {
		return p, true
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil || len(s.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %s: neither a snapshot nor a before/after pair\n", path)
		os.Exit(1)
	}
	return Pair{Note: s.Note, Before: s}, false
}

// runAfter refreshes the "after" half of a pair file from stdin, keeping the
// existing "before" (or adopting a plain snapshot file as the before). A
// missing file starts a fresh trajectory: the measurement becomes both
// halves until a later change moves the after.
func runAfter(path, metPath, note string) {
	snap := readBench(note)
	snap.Metrics = loadMetrics(metPath)
	pair := Pair{Before: snap}
	if _, err := os.Stat(path); err == nil {
		pair, _ = loadFile(path)
	}
	pair.After = snap
	if note != "" {
		pair.After.Note = note
	}
	data, err := json.MarshalIndent(&pair, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	diffSnapshots(os.Stdout, pair.Before, pair.After)
}

// runDiff prints per-benchmark deltas: two snapshot files, or the before
// and after halves of one pair file.
func runDiff(paths []string) {
	var old, cur Snapshot
	switch len(paths) {
	case 1:
		p, isPair := loadFile(paths[0])
		if !isPair {
			fmt.Fprintf(os.Stderr, "benchjson: %s is not a before/after pair; -diff needs two plain snapshots\n", paths[0])
			os.Exit(1)
		}
		old, cur = p.Before, p.After
	case 2:
		// A pair file stands for its most recent measurement (the after).
		snapOf := func(p Pair, isPair bool) Snapshot {
			if isPair {
				return p.After
			}
			return p.Before
		}
		po, oPair := loadFile(paths[0])
		pn, nPair := loadFile(paths[1])
		old, cur = snapOf(po, oPair), snapOf(pn, nPair)
	default:
		fmt.Fprintln(os.Stderr, "usage: benchjson -diff old.json [new.json]")
		os.Exit(1)
	}
	missing, extra := nameSetDiff(old, cur)
	if len(missing) > 0 {
		// A benchmark that vanished means the snapshots measure different
		// things; a per-row delta over the intersection would read as a
		// perf change when it is really a harness change.
		fmt.Fprintf(os.Stderr, "benchjson: only in old snapshot: %s\n", strings.Join(missing, ", "))
		fmt.Fprintln(os.Stderr, "benchjson: benchmarks removed; re-run both sides with the same -bench selection")
		os.Exit(1)
	}
	if len(extra) > 0 {
		// New benchmarks (and likewise new per-bench ReportMetric units) are
		// additive: the shared rows still diff meaningfully, so growing a
		// trajectory must not be a breaking change. The new rows print with
		// an old value of "-".
		fmt.Fprintf(os.Stderr, "benchjson: new in this snapshot (no old value): %s\n", strings.Join(extra, ", "))
	}
	diffSnapshots(os.Stdout, old, cur)
}

// nameSetDiff reports benchmark names present in only one snapshot.
func nameSetDiff(old, cur Snapshot) (missing, extra []string) {
	o := make(map[string]bool, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		o[b.Name] = true
	}
	n := make(map[string]bool, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		n[b.Name] = true
		if !o[b.Name] {
			extra = append(extra, b.Name)
		}
	}
	for _, b := range old.Benchmarks {
		if !n[b.Name] {
			missing = append(missing, b.Name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return missing, extra
}

// diffSnapshots writes one row per (benchmark, metric) with the relative
// change, matching benchmarks by name.
func diffSnapshots(w *os.File, old, cur Snapshot) {
	byName := make(map[string]*Bench, len(old.Benchmarks))
	for i := range old.Benchmarks {
		byName[old.Benchmarks[i].Name] = &old.Benchmarks[i]
	}
	fmt.Fprintf(w, "%-34s %-28s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	seen := make(map[string]bool, len(cur.Benchmarks))
	for i := range cur.Benchmarks {
		nb := &cur.Benchmarks[i]
		seen[nb.Name] = true
		ob := byName[nb.Name]
		if ob == nil {
			fmt.Fprintf(w, "%-34s %-28s %14s %14s %9s\n", nb.Name, "ns/op", "-", fmtNum(nb.NsPerOp), "new")
			continue
		}
		name := nb.Name
		for _, m := range metricRows(ob, nb) {
			fmt.Fprintf(w, "%-34s %-28s %14s %14s %9s\n", name, m.unit, fmtNum(m.old), fmtNum(m.cur), delta(m.old, m.cur))
			name = "" // print the benchmark name once
		}
	}
	for _, ob := range old.Benchmarks {
		if !seen[ob.Name] {
			fmt.Fprintf(w, "%-34s %-28s %14s %14s %9s\n", ob.Name, "ns/op", fmtNum(ob.NsPerOp), "-", "removed")
		}
	}
}

type metricRow struct {
	unit     string
	old, cur float64
}

// metricRows pairs up every metric the two results share (ns/op, -benchmem
// columns, and custom b.ReportMetric units), in a stable order.
func metricRows(ob, nb *Bench) []metricRow {
	rows := []metricRow{{"ns/op", ob.NsPerOp, nb.NsPerOp}}
	if ob.BytesPerOp != 0 || nb.BytesPerOp != 0 {
		rows = append(rows, metricRow{"B/op", ob.BytesPerOp, nb.BytesPerOp})
	}
	if ob.AllocsPerOp != 0 || nb.AllocsPerOp != 0 {
		rows = append(rows, metricRow{"allocs/op", ob.AllocsPerOp, nb.AllocsPerOp})
	}
	units := make([]string, 0, len(nb.Extra))
	for u := range nb.Extra {
		units = append(units, u)
	}
	for u := range ob.Extra {
		if _, ok := nb.Extra[u]; !ok {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	for _, u := range units {
		rows = append(rows, metricRow{u, ob.Extra[u], nb.Extra[u]})
	}
	return rows
}

func fmtNum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 5, 64)
}

// delta formats the relative change, signed; shrinking is improvement for
// every metric this repo tracks.
func delta(old, cur float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (cur-old)/old*100)
}

// parseLine parses one `BenchmarkName-P  N  v unit  v unit ...` line.
func parseLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Bench{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iters: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	return b, true
}
