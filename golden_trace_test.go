package publishing

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"publishing/internal/chaos"
	"publishing/internal/monitor"
	"publishing/internal/simtime"
)

// Golden exporter bytes. Trace events carry typed ids and notes, and all of
// their text is produced by the exporters; these files pin that text. They
// were captured from the string-formatting trace path, so a byte-identical
// run proves moving the formatting out of the record path changed no
// output. Regenerate (only for an intended format change) with
//
//	go test -run TestGoldenExporters -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this run")

// goldenExplainMsgs are two messages of the golden run: one retransmitted
// while its destination's node was down, one replayed by its recovery.
var goldenExplainMsgs = []string{"p0.1#7", "p0.1#6"}

// goldenRun is a small seeded monitored cluster: 3 nodes on the Ether, the
// worker's node crashes mid-stream (retransmissions, watchdog detection,
// replay), detailed tracing on.
func goldenRun(t *testing.T) *Cluster {
	t.Helper()
	cfg := DefaultConfig(3)
	cfg.Medium = MediumEther
	cfg.Seed = 7
	cfg.Monitor = true
	c, sink, _ := buildScenario(t, cfg, 10)
	c.Trace().SetDetailed(true)
	c.Scheduler().At(1200*simtime.Millisecond, func() { c.CrashNode(1) })
	c.Run(60 * simtime.Second)
	expectSteps(t, sink, 10)
	return c
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s differs from the golden file at line %d:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs from the golden file: %d lines, want %d", name, len(gl), len(wl))
	}
}

func TestGoldenExporters(t *testing.T) {
	c := goldenRun(t)
	var dump, chrome, report, explain bytes.Buffer
	c.Trace().Dump(&dump)
	if err := c.Trace().WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := c.Monitor().WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.dump", dump.Bytes())
	checkGolden(t, "trace.chrome.json", chrome.Bytes())
	checkGolden(t, "monitor.report", report.Bytes())
	for _, id := range goldenExplainMsgs {
		if monitor.Explain(&explain, c.Trace().Events(), id) == nil {
			t.Fatalf("golden run has no events for %s", id)
		}
	}
	checkGolden(t, "explain.txt", explain.Bytes())
}

// TestGoldenChaosArtifacts pins a failing chaos run's post-mortem bundle:
// the checker report, the trace tail and the monitor report.
func TestGoldenChaosArtifacts(t *testing.T) {
	s := chaos.Schedule{Seed: 424242, Faults: []chaos.Fault{
		{Kind: chaos.KindDupBurst, AtMs: 300, DurMs: 3000, Prob: 255},
	}}
	opt := chaos.DefaultOptions()
	opt.ArtifactDir = t.TempDir()
	res := chaos.Run(s, ChaosBuild(ChaosOptions{BreakDupSuppression: true}), opt)
	if res.Passed || res.Artifacts == "" {
		t.Fatalf("broken dup suppression passed or dumped no artifacts:\n%s", res.Report)
	}
	for _, name := range []string{"report.txt", "trace.log", "monitor.txt"} {
		b, err := os.ReadFile(filepath.Join(res.Artifacts, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "chaos."+name, b)
	}
}
