package recorder

import (
	"sort"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/trace"
)

// This file is the sharded-recorder half of the multiple-recorder design:
// instead of §6.3's "all recorders record all messages", each process stream
// hashes into a shard slot owned by a leader recorder and mirrored by one
// follower (see ShardMap). A recorder stores, gates (votes on), and recovers
// only the streams whose slots it replicates. The replay basis for the whole
// system is then the union of the shards — the chaos checker's I8 invariant —
// and any single recorder crash leaves every slot with a live replica.
//
// Three mechanisms keep the union complete across recorder failures:
//
//  1. Voting taps: gating media need a positive verdict only from the
//     recorders that own a frame's streams; non-owners abstain rather than
//     veto, so one recorder's outage suspends only its shards' traffic.
//  2. Peer watchdogs + follower promotion: recorders ping each other on the
//     same watchdog schedule they use for processing nodes; a silent leader's
//     followers promote themselves on its slots and sweep for recoveries the
//     dead leader left orphaned.
//  3. Shard handoff (multirec.go): a restarted recorder pulls the stream
//     suffixes it missed from the surviving replica of each shared slot
//     before reclaiming its slots, so leadership moves back only once its
//     basis is whole.

// ownsProc reports whether this recorder replicates the process's shard. In
// classic (unsharded) mode every recorder owns everything.
func (r *Recorder) ownsProc(p frame.ProcID) bool {
	m := r.cfg.Shards
	return m == nil || m.Replicates(r.cfg.Rank, m.ShardOf(p))
}

// ShardMap exposes the cluster's shard table (nil in classic mode).
func (r *Recorder) ShardMap() *ShardMap { return r.cfg.Shards }

// Rank returns this recorder's rank in the cluster's recorder order.
func (r *Recorder) Rank() int { return r.cfg.Rank }

// ActsFor reports whether this recorder currently performs recovery duty for
// a shard slot. The leader acts unless it is mid-handoff with the slot's
// follower (the follower keeps acting until the handoff Commit); a follower
// acts only after promoting itself on the leader's silence. Classic mode
// always acts.
func (r *Recorder) ActsFor(slot int) bool {
	m := r.cfg.Shards
	if m == nil {
		return true
	}
	switch r.cfg.Rank {
	case m.Leader(slot):
		f := m.Follower(slot)
		return f < 0 || !r.handoffPending[f]
	case m.Follower(slot):
		return r.actingSlots[slot]
	default:
		return false
	}
}

// ObserveVote implements lan.VotingTap: Observe's stored verdict plus an
// ownership vote. Abstaining recorders still observe the frame — piggybacked
// acknowledgement records for streams they DO own ride on frames they don't.
func (r *Recorder) ObserveVote(f *frame.Frame) (stored, voting bool) {
	if r.cfg.Shards == nil {
		return r.Observe(f), true
	}
	voting = r.votesOn(f)
	return r.Observe(f), voting
}

// votesOn decides whether this recorder's store verdict gates the frame.
func (r *Recorder) votesOn(f *frame.Frame) bool {
	// An owner of any acknowledged stream must gate the carrier frame:
	// delivered acknowledgements are never resent, so an abstaining owner
	// would silently lose the arrival from its shard's replay basis.
	for i := range f.AckRecs {
		if r.ownsProc(f.AckRecs[i].Rcv) {
			return true
		}
	}
	switch f.Type {
	case frame.Guaranteed:
		return r.votesOnMsg(f.From, f.To)
	case frame.Bundle:
		recs, err := frame.DecodeBundle(f.Body, r.voteScratch)
		r.voteScratch = recs[:0]
		if err != nil {
			return true // undecodable: gate conservatively
		}
		for i := range recs {
			if recs[i].Type == frame.Guaranteed && r.votesOnMsg(recs[i].From, recs[i].To) {
				return true
			}
		}
		return false
	case frame.Ack:
		if len(f.AckRecs) == 0 {
			return r.ownsProc(f.From) // legacy single-message ack
		}
		return false // carried records checked above; none were ours
	default:
		return true
	}
}

// votesOnMsg is the per-message ownership test: the destination's owner
// records the arrival, and the sender's owner tracks LastSent — the §4.5
// suppression threshold — so both gate. Recorder-bound traffic (notices,
// control replies) is gated by everyone: every recorder consumes notices.
func (r *Recorder) votesOnMsg(from, to frame.ProcID) bool {
	if to == r.cfg.Proc || r.isNoticeProc(to) || r.ownsProc(to) {
		return true
	}
	return from.Local != 0 && r.ownsProc(from)
}

// BasisSummary is one recorder's view of a stream's replay basis — the
// chaos checker compares these across a shard's replicas (I8).
type BasisSummary struct {
	Known      bool
	Dead       bool
	Recovering bool
	BaseReads  uint64
	Msgs       int
	LastSent   uint64
}

// Cov is the basis's totally-ordered coverage proxy: reads folded into the
// checkpoint plus recorded arrivals behind it.
func (b BasisSummary) Cov() uint64 { return b.BaseReads + uint64(b.Msgs) }

// Basis returns this recorder's basis summary for a stream.
func (r *Recorder) Basis(p frame.ProcID) BasisSummary {
	e := r.db[p]
	if e == nil {
		return BasisSummary{}
	}
	return BasisSummary{
		Known:      true,
		Dead:       e.Dead,
		Recovering: e.Recovering,
		BaseReads:  e.BaseReads,
		Msgs:       len(e.Arrivals),
		LastSent:   e.LastSent,
	}
}

// KnownProcs lists every stream in this recorder's database, sorted.
func (r *Recorder) KnownProcs() []frame.ProcID { return r.sortedProcs() }

// sortedProcs returns the database's keys in canonical order — every
// iteration that emits wire traffic or trace events must use it, never raw
// map order.
func (r *Recorder) sortedProcs() []frame.ProcID {
	out := make([]frame.ProcID, 0, len(r.db))
	for p := range r.db {
		out = append(out, p)
	}
	frame.SortProcIDs(out)
	return out
}

// initPeerWatch creates a watchdog per peer recorder rank (sharded mode).
func (r *Recorder) initPeerWatch() {
	if r.cfg.Shards == nil {
		return
	}
	for rank := 0; rank < r.cfg.Shards.Recorders(); rank++ {
		if rank == r.cfg.Rank {
			continue
		}
		if _, ok := r.peerWatch[rank]; ok {
			continue
		}
		if p, ok := r.cfg.peerByRank(rank); ok {
			r.peerWatch[rank] = &watchState{node: p.Node}
		}
	}
}

// tickPeerWatch runs the peer-recorder watchdogs on the same cadence as the
// node watchdogs: evaluate last interval's pongs, then ping. Ranks ascend so
// the pings serialize deterministically onto the medium.
func (r *Recorder) tickPeerWatch() {
	if r.cfg.Shards == nil {
		return
	}
	ranks := make([]int, 0, len(r.peerWatch))
	for rank := range r.peerWatch {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		w := r.peerWatch[rank]
		if w.gotPong {
			w.misses = 0
			if w.down {
				// A restarted peer reclaims its slots through the handoff
				// Commit, not the mere reappearance of pongs.
				w.down = false
				r.log.Add(trace.KindDetect, int(r.cfg.Node), "recorder", "peer recorder rec%d answers again", rank)
			}
		} else {
			w.misses++
			if w.misses >= r.cfg.MissThreshold && !w.down {
				w.down = true
				r.onPeerDown(rank)
			}
		}
		w.gotPong = false
		peer, ok := r.cfg.peerByRank(rank)
		if !ok {
			continue
		}
		r.ep.SendUnguaranteed(&frame.Frame{
			Dst:  w.node,
			From: r.cfg.Proc,
			To:   peer,
			Body: demos.PingBody,
		})
	}
}

// onPeerDown is follower promotion: a silent leader's followers take over
// its slots and sweep for recoveries it left orphaned. If the dead peer was
// the source of an in-progress handoff, the requester abandons the transfer
// and resumes duty with whatever basis it has locally.
func (r *Recorder) onPeerDown(rank int) {
	m := r.cfg.Shards
	promoted := 0
	for s := 0; s < m.Slots(); s++ {
		if m.Leader(s) == rank && m.Follower(s) == r.cfg.Rank && !r.actingSlots[s] {
			r.actingSlots[s] = true
			promoted++
		}
	}
	resumed := false
	if r.handoffPending[rank] {
		delete(r.handoffPending, rank)
		if ses := r.handoffs[rank]; ses != nil {
			delete(r.handoffRx, ses.code)
			delete(r.handoffs, rank)
		}
		resumed = true
		r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder",
			"handoff source rec%d lost mid-transfer; resuming with local basis", rank)
	}
	if promoted > 0 {
		r.stats.FollowerPromotions++
		r.log.Add(trace.KindDetect, int(r.cfg.Node), "recorder",
			"peer recorder rec%d silent; promoted to leader on %d shard slots", rank, promoted)
	}
	if promoted > 0 || resumed {
		r.sweepDuties()
	}
}

// sweepDuties re-runs the §3.3.4 state query against every node so newly
// assumed shard duty (promotion, handoff completion) picks up crashed or
// half-recovered processes another recorder left behind. startRecovery's
// ActsFor guard filters the responses to this recorder's slots.
func (r *Recorder) sweepDuties() {
	for _, n := range r.cfg.Nodes {
		r.sendCtl(n, frame.ProcID{Node: n, Local: 0}, false,
			&demos.CtlMsg{Op: demos.OpQueryProcs, RestartNumber: r.restartNumber},
			chanQueryResp, func(f *frame.Frame) { r.handleQueryResponse(f) })
	}
}

// ArmHandoffCrash is the chaos hook for the mid-handoff fault: the recorder
// crashes itself after serving n more transfer chunks. One-shot; disarmed by
// the crash. Never fires in classic mode (nothing serves chunks).
func (r *Recorder) ArmHandoffCrash(n int) {
	if n < 1 {
		n = 1
	}
	r.handoffCrashAfter = n
}

// scheduleSelfCrash crashes the recorder after the current event completes —
// crashing inline would reset the transport endpoint out from under the
// delivery path that called us.
func (r *Recorder) scheduleSelfCrash() {
	epoch := r.epoch
	r.sched.After(0, func() {
		if r.epoch != epoch || r.crashed {
			return
		}
		r.Crash()
	})
}
