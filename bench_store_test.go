package publishing_test

// The storage-engine benchmark suite tabled in EXPERIMENTS.md: the open-loop
// workload generator (internal/workload) drives both stable-store engines
// file-backed, measuring append throughput at million-record scale, group
// commit, checkpoint-truncation cost against segment count, and the
// recovery-rebuild (reopen) path. The tabled append numbers ran at
// -benchtime 1000000x, so "at 10^6 records" is literal.

import (
	"path/filepath"
	"testing"

	"publishing/internal/simtime"
	"publishing/internal/stablestore"
	"publishing/internal/workload"
)

// millionWorkload is the shared shape of the append suite: a 16-process
// cluster, 80% of traffic from 2 hot publishers, fan-out 2, the recorder's
// 1-second group-commit window, and a rotating checkpoint every 500 ms so
// truncation pressure is part of the steady state.
func millionWorkload(seed uint64) *workload.Gen {
	return workload.New(workload.Config{
		Seed: seed, Procs: 16, Rate: 4000, Hotspot: 0.8, HotProcs: 2,
		MsgBytes: 128, FanOut: 2,
		FlushWindow:     simtime.Second,
		CheckpointEvery: 500 * simtime.Millisecond,
		CompactEvery:    16, // reclaim once per checkpoint rotation
	})
}

// genOps pregenerates the op stream holding n appends, so benchmark loops
// time the store alone, not the generator's arithmetic.
func genOps(g *workload.Gen, n int) []workload.Op {
	ops := make([]workload.Op, 0, n+n/256)
	appends := 0
	for appends < n {
		op := g.Next()
		if op.Kind == workload.OpAppend {
			appends++
		}
		ops = append(ops, op)
	}
	return ops
}

// replayOps feeds a pregenerated stream into a store.
func replayOps(b *testing.B, st stablestore.Store, ops []workload.Op) {
	b.Helper()
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case workload.OpAppend:
			if _, err := st.Append(op.Rec); err != nil {
				b.Fatal(err)
			}
		case workload.OpFlush:
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
		case workload.OpInvalidate:
			st.Invalidate(op.Key, op.Through)
		case workload.OpCompact:
			if _, err := st.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
}

// benchAppend is the appended-records/sec half of the acceptance claim:
// same offered load (pregenerated, so the generator is off the clock),
// file-backed, per appended record, with checkpoint truncation and
// at-quiescence reclamation in the steady state.
func benchAppend(b *testing.B, cfg stablestore.Config) {
	st, err := stablestore.NewStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := millionWorkload(1)
	ops := genOps(g, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	replayOps(b, st, ops)
	b.StopTimer()
	ss := st.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	if fl := g.Stats().Flushes; fl > 0 {
		b.ReportMetric(float64(b.N)/float64(fl), "recs/flush")
	}
	b.ReportMetric(float64(ss.PageWrites), "page-writes")
	b.ReportMetric(float64(ss.SegFlushes), "seg-flushes")
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkStoreMillionAppend(b *testing.B) {
	b.Run("paged", func(b *testing.B) {
		benchAppend(b, stablestore.Config{Path: filepath.Join(b.TempDir(), "db")})
	})
	b.Run("segment", func(b *testing.B) {
		benchAppend(b, stablestore.Config{
			Backend: stablestore.BackendSegment, Path: b.TempDir(),
		})
	})
}

// benchTruncate measures the checkpoint-truncation cycle: each iteration
// appends the same fixed batch (untimed), then — timed — invalidates every
// key's prefix and compacts. Record count per cycle is identical across
// sub-benchmarks; only the segment size (and so the segment count) varies,
// which is what separates O(segments) truncation from the paged engine's
// per-record page rewrites.
func benchTruncate(b *testing.B, mk func() stablestore.Store) {
	const procs, batch = 8, 4000
	st := mk()
	keys := make([]string, procs)
	for p := range keys {
		keys[p] = "msg:" + string(rune('a'+p))
	}
	body := make([]byte, 120)
	seq := uint64(0)
	var segsSeen uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < batch; j++ {
			seq++
			if _, err := st.Append(stablestore.Record{
				Kind: stablestore.KindMessage, Key: keys[j%procs], Seq: seq, Data: body,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
		segsSeen += st.Stats().Segments
		b.StartTimer()
		for _, k := range keys {
			st.Invalidate(k, seq)
		}
		if _, err := st.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(segsSeen)/float64(b.N), "segments")
	b.ReportMetric(float64(st.Stats().Compacted)/float64(b.N), "recs-dropped")
}

func BenchmarkStoreTruncate(b *testing.B) {
	b.Run("paged", func(b *testing.B) {
		benchTruncate(b, func() stablestore.Store { return stablestore.New() })
	})
	// No hyphens in the sub-bench names: a trailing -N reads as the
	// -GOMAXPROCS suffix, which Go omits on a single-CPU box.
	b.Run("segment16k", func(b *testing.B) {
		benchTruncate(b, func() stablestore.Store {
			return stablestore.NewSegmented(16 * 1024)
		})
	})
	b.Run("segment256k", func(b *testing.B) {
		benchTruncate(b, func() stablestore.Store {
			return stablestore.NewSegmented(256 * 1024)
		})
	})
}

// benchReopen is the §4.5 recovery path: open the file backing written by
// a 200k-record workload run and decode it back into a live store — the
// cost a recorder pays to rebuild its database after a crash.
func benchReopen(b *testing.B, cfg stablestore.Config) {
	st, err := stablestore.NewStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	replayOps(b, st, genOps(millionWorkload(2), 200_000))
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := stablestore.NewStore(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if re.Stats().Appends == 0 && re.Pages() == 0 {
			b.Fatal("reopen found an empty store")
		}
		b.StopTimer()
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkStoreReopen(b *testing.B) {
	b.Run("paged", func(b *testing.B) {
		benchReopen(b, stablestore.Config{Path: filepath.Join(b.TempDir(), "db")})
	})
	b.Run("segment", func(b *testing.B) {
		benchReopen(b, stablestore.Config{
			Backend: stablestore.BackendSegment, Path: b.TempDir(),
		})
	})
}
