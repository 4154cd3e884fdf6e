// Package workload generates open-loop stable-store workloads: a seeded
// Poisson arrival stream (the open-queuing-model discipline of §5.1 — the
// same arrival process internal/queuing feeds its RESQ2-style networks)
// shaped by hotspot key skew, fan-out advisory traffic, and periodic
// per-process checkpoints. The generator emits a flat op stream (append /
// group-commit flush / prefix invalidation) against the stablestore record
// vocabulary, so the same workload drives either storage engine for
// benchmarking and for the cross-backend correctness oracle.
//
// The stream is open-loop: arrival times come from the seeded exponential
// clock alone, never from the store's completion times, so a slow backend
// faces the same offered load as a fast one — the property that makes
// throughput numbers comparable across engines.
package workload

import (
	"fmt"

	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// Config shapes the generated stream.
type Config struct {
	// Seed drives the arrival clock and all skew choices; same seed,
	// same op stream.
	Seed uint64
	// Procs is the cluster size: the number of publishing processes.
	Procs int
	// Rate is the aggregate message arrival rate in messages per
	// (virtual) second — the Poisson intensity.
	Rate float64
	// Hotspot is the fraction of arrivals whose publisher is drawn from
	// the hot set (0 = uniform over all procs).
	Hotspot float64
	// HotProcs is the hot-set size (default 1).
	HotProcs int
	// MsgBytes is the message body size.
	MsgBytes int
	// FanOut is how many subscriber advisories each message fans out to
	// (0 = none). Subscribers are drawn uniformly from the other procs,
	// so hotspot publishers also concentrate advisory fan-in.
	FanOut int
	// FlushWindow is the group-commit cadence (default 1 virtual second
	// — the recorder's flush tick).
	FlushWindow simtime.Time
	// CheckpointEvery, when > 0, checkpoints one process in rotation at
	// this interval: a checkpoint record is appended and the process's
	// message and advisory prefixes are invalidated — the §3.3 discipline
	// that makes truncation possible.
	CheckpointEvery simtime.Time
	// CompactEvery, when > 0, emits an OpCompact after every Nth
	// checkpoint's invalidations — the background-at-quiescence
	// reclamation that keeps a long run's storage bounded.
	CompactEvery int
}

// OpKind distinguishes stream operations.
type OpKind uint8

const (
	// OpAppend appends Rec to the store.
	OpAppend OpKind = iota
	// OpFlush is a group-commit boundary: call Flush.
	OpFlush
	// OpInvalidate invalidates Key through seq Through.
	OpInvalidate
	// OpCompact reclaims invalidated records: call Compact.
	OpCompact
)

// Op is one stream operation, stamped with its virtual arrival time.
type Op struct {
	At      simtime.Time
	Kind    OpKind
	Rec     stablestore.Record // OpAppend
	Key     string             // OpInvalidate
	Through uint64             // OpInvalidate
}

// Stats counts what the generator has emitted.
type Stats struct {
	Arrivals    uint64 // messages (excluding advisories and checkpoints)
	HotArrivals uint64 // messages published by a hot-set proc
	Advisories  uint64
	Flushes     uint64
	Checkpoints uint64
	Compactions uint64
}

// Gen is the open-loop generator. Next returns ops in nondecreasing
// virtual-time order, forever.
type Gen struct {
	cfg Config
	rng *simtime.Rand

	now     simtime.Time
	nextArr simtime.Time
	nextFl  simtime.Time
	nextCk  simtime.Time
	ckProc  int // rotation cursor
	seq     []uint64
	advSeq  []uint64
	ckRev   []uint64
	body    []byte
	pending []Op
	stats   Stats
	msgKeys []string
	advKeys []string
	ckKeys  []string
}

// New builds a generator; Config zero values get the documented defaults.
func New(cfg Config) *Gen {
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1000
	}
	if cfg.HotProcs <= 0 {
		cfg.HotProcs = 1
	}
	if cfg.HotProcs > cfg.Procs {
		cfg.HotProcs = cfg.Procs
	}
	if cfg.MsgBytes <= 0 {
		cfg.MsgBytes = 128
	}
	if cfg.FlushWindow <= 0 {
		cfg.FlushWindow = simtime.Second
	}
	g := &Gen{
		cfg:    cfg,
		rng:    simtime.NewRand(cfg.Seed),
		seq:    make([]uint64, cfg.Procs),
		advSeq: make([]uint64, cfg.Procs),
		ckRev:  make([]uint64, cfg.Procs),
		body:   make([]byte, cfg.MsgBytes),
	}
	for i := range g.body {
		g.body[i] = byte(i)
	}
	// Pre-render the key strings: the generator's own allocation noise
	// must not leak into append-path benchmarks.
	for p := 0; p < cfg.Procs; p++ {
		g.msgKeys = append(g.msgKeys, fmt.Sprintf("msg:%d", p))
		g.advKeys = append(g.advKeys, fmt.Sprintf("adv:%d", p))
		g.ckKeys = append(g.ckKeys, fmt.Sprintf("ck:%d", p))
	}
	g.nextArr = g.interarrival()
	g.nextFl = cfg.FlushWindow
	if cfg.CheckpointEvery > 0 {
		g.nextCk = cfg.CheckpointEvery
	}
	return g
}

// Stats returns emission counters.
func (g *Gen) Stats() Stats { return g.stats }

// Now returns the generator's virtual clock.
func (g *Gen) Now() simtime.Time { return g.now }

func (g *Gen) interarrival() simtime.Time {
	mean := simtime.Time(float64(simtime.Second) / g.cfg.Rate)
	d := g.rng.Exp(mean)
	if d <= 0 {
		d = 1
	}
	return g.now + d
}

// publisher picks the arrival's publishing proc: hot set with probability
// Hotspot, uniform otherwise (so a uniform pick can land on the hot set
// too — the observed hot share is Hotspot + (1-Hotspot)*HotProcs/Procs).
func (g *Gen) publisher() int {
	if g.cfg.Hotspot > 0 && g.rng.Float64() < g.cfg.Hotspot {
		return g.rng.Intn(g.cfg.HotProcs)
	}
	return g.rng.Intn(g.cfg.Procs)
}

// Next returns the next op of the infinite stream.
func (g *Gen) Next() Op {
	if len(g.pending) > 0 {
		op := g.pending[0]
		g.pending = g.pending[1:]
		return op
	}
	// Earliest of arrival, flush boundary, checkpoint tick.
	switch {
	case (g.nextCk > 0 && g.nextCk <= g.nextArr) && g.nextCk <= g.nextFl:
		return g.checkpoint()
	case g.nextFl <= g.nextArr:
		g.now = g.nextFl
		g.nextFl += g.cfg.FlushWindow
		g.stats.Flushes++
		return Op{At: g.now, Kind: OpFlush}
	default:
		return g.arrival()
	}
}

// arrival emits the publisher's message record and queues its fan-out
// advisories at the same instant.
func (g *Gen) arrival() Op {
	g.now = g.nextArr
	g.nextArr = g.interarrival()
	p := g.publisher()
	g.seq[p]++
	g.stats.Arrivals++
	if p < g.cfg.HotProcs {
		g.stats.HotArrivals++
	}
	for i := 0; i < g.cfg.FanOut; i++ {
		sub := g.rng.Intn(g.cfg.Procs)
		g.advSeq[sub]++
		g.stats.Advisories++
		g.pending = append(g.pending, Op{At: g.now, Kind: OpAppend, Rec: stablestore.Record{
			Kind: stablestore.KindMessage, Key: g.advKeys[sub], Seq: g.advSeq[sub],
		}})
	}
	return Op{At: g.now, Kind: OpAppend, Rec: stablestore.Record{
		Kind: stablestore.KindMessage, Key: g.msgKeys[p], Seq: g.seq[p], Data: g.body,
	}}
}

// checkpoint checkpoints the rotation's next proc: append the checkpoint
// record, then invalidate the proc's message and advisory prefixes.
func (g *Gen) checkpoint() Op {
	g.now = g.nextCk
	g.nextCk += g.cfg.CheckpointEvery
	p := g.ckProc
	g.ckProc = (g.ckProc + 1) % g.cfg.Procs
	g.ckRev[p]++
	g.stats.Checkpoints++
	if g.seq[p] > 0 {
		g.pending = append(g.pending, Op{At: g.now, Kind: OpInvalidate, Key: g.msgKeys[p], Through: g.seq[p]})
	}
	if g.advSeq[p] > 0 {
		g.pending = append(g.pending, Op{At: g.now, Kind: OpInvalidate, Key: g.advKeys[p], Through: g.advSeq[p]})
	}
	if g.cfg.CompactEvery > 0 && g.stats.Checkpoints%uint64(g.cfg.CompactEvery) == 0 {
		g.stats.Compactions++
		g.pending = append(g.pending, Op{At: g.now, Kind: OpCompact})
	}
	return Op{At: g.now, Kind: OpAppend, Rec: stablestore.Record{
		Kind: stablestore.KindCheckpoint, Key: g.ckKeys[p], Seq: g.ckRev[p], Data: g.body[:min(32, len(g.body))],
	}}
}

// Drive feeds ops into a store until n message arrivals have been
// appended (advisories and checkpoints ride along, and the final
// arrival's queued fan-out drains too), ending with a flush. It returns
// the total number of records appended.
func Drive(g *Gen, st stablestore.Store, n int) (int, error) {
	appended := 0
	apply := func(op Op) error {
		switch op.Kind {
		case OpAppend:
			if _, err := st.Append(op.Rec); err != nil {
				return err
			}
			appended++
		case OpFlush:
			if err := st.Flush(); err != nil {
				return err
			}
		case OpInvalidate:
			st.Invalidate(op.Key, op.Through)
		case OpCompact:
			if _, err := st.Compact(); err != nil {
				return err
			}
		}
		return nil
	}
	for g.stats.Arrivals < uint64(n) || len(g.pending) > 0 {
		if err := apply(g.Next()); err != nil {
			return appended, err
		}
	}
	return appended, st.Flush()
}
