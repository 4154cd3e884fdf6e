package recorder

import (
	"fmt"
	"sort"
	"strings"

	"publishing/internal/demos"
	"publishing/internal/frame"
	"publishing/internal/gobx"
	"publishing/internal/stablestore"
	"publishing/internal/trace"
)

// Persisted record codecs. Every record kind the recorder writes per
// message (stored messages, advisories, last-sent watermarks) goes through
// a gobx codec: byte-identical to the one-shot gob encoding the database
// format has always used, but without paying type-descriptor transmission
// and engine compilation per record. Codecs are package-level (and
// internally locked) so parallel sweep clusters share the warmed state.
var (
	msgCodec  gobx.Codec[storedMsg]
	advCodec  gobx.Codec[advisory]
	lastCodec gobx.Codec[uint64]
	procCodec gobx.Codec[procMeta]
	ckCodec   gobx.Codec[ckMeta]
)

// encWith encodes v into the recorder's reused scratch via codec c. Same
// contract as gobEnc: the slice is valid until the next persist call.
func encWith[T any](r *Recorder, c *gobx.Codec[T], v *T) []byte {
	b, err := c.Encode(r.encScratch[:0], v)
	if err != nil {
		panic(fmt.Sprintf("recorder: gob: %v", err))
	}
	r.encScratch = b
	return b
}

// Stable-storage key namespaces. Every piece of recorder state needed to
// survive a recorder crash lands under one of these, so the database can be
// rebuilt purely from the store (§4.5: "If the recorder crashes, it is
// possible to rebuild the data base from the disk").
func msgKey(p frame.ProcID) string  { return "msg:" + p.String() }
func advKey(p frame.ProcID) string  { return "adv:" + p.String() }
func ckKey(p frame.ProcID) string   { return "ck:" + p.String() }
func procKey(p frame.ProcID) string { return "proc:" + p.String() }
func lastKey(p frame.ProcID) string { return "last:" + p.String() }
func deadKey(p frame.ProcID) string { return "dead:" + p.String() }

// newProcEntry returns an empty database record for p, with the strings
// every publish needs formatted up front.
func newProcEntry(p frame.ProcID, node frame.NodeID) *procEntry {
	return &procEntry{
		Proc: p, Node: node, have: make(map[frame.MsgID]bool),
		name: p.String(), msgKey: msgKey(p), lastKey: lastKey(p),
	}
}

const restartKey = "restart"

// procMeta is the persisted registration record.
type procMeta struct {
	Proc frame.ProcID
	Spec demos.ProcSpec
	Node frame.NodeID
}

// ckMeta is the persisted checkpoint record.
type ckMeta struct {
	Blob      []byte
	SendSeq   uint64
	ReadCount uint64
	StateKB   int
	BaseReads uint64
	// DroppedArr are the arrival seqs invalidated by this checkpoint;
	// AdvTrim invalidates advisories with seq < AdvTrim.
	DroppedArr []uint64
	AdvTrim    uint64
	// RetainedOrder lists the retained arrival seqs in replay (queue)
	// order, which can differ from arrival order after a recovery.
	RetainedOrder []uint64
}

func (r *Recorder) append(rec stablestore.Record) {
	if _, err := r.store.Append(rec); err != nil {
		// Stable storage failing is beyond the paper's fault model (TMR,
		// battery backup, §3.3.4); surface loudly.
		panic(fmt.Sprintf("recorder: stable store append: %v", err))
	}
}

func (r *Recorder) persistMessage(e *procEntry, sm *storedMsg) {
	r.append(stablestore.Record{Kind: stablestore.KindMessage, Key: e.msgKey, Seq: sm.ArrSeq, Data: encWith(r, &msgCodec, sm)})
}

func (r *Recorder) persistAdvisory(e *procEntry, adv *advisory) {
	r.append(stablestore.Record{Kind: stablestore.KindMessage, Key: advKey(e.Proc), Seq: adv.AdvSeq, Data: encWith(r, &advCodec, adv)})
}

func (r *Recorder) persistProcMeta(e *procEntry) {
	e.Rev++
	r.append(stablestore.Record{Kind: stablestore.KindMeta, Key: procKey(e.Proc), Seq: e.Rev,
		Data: encWith(r, &procCodec, &procMeta{Proc: e.Proc, Spec: e.Spec, Node: e.Node})})
}

func (r *Recorder) persistLastSent(e *procEntry) {
	e.Rev++
	r.append(stablestore.Record{Kind: stablestore.KindMeta, Key: e.lastKey, Seq: e.Rev, Data: encWith(r, &lastCodec, &e.LastSent)})
}

func (r *Recorder) persistDead(e *procEntry) {
	e.Rev++
	r.append(stablestore.Record{Kind: stablestore.KindMeta, Key: deadKey(e.Proc), Seq: e.Rev})
}

func (r *Recorder) persistCheckpoint(e *procEntry, trimmed []storedMsg) {
	dropped := make([]uint64, len(trimmed))
	for i, sm := range trimmed {
		dropped[i] = sm.ArrSeq
	}
	retained := make([]uint64, len(e.Arrivals))
	for i, sm := range e.Arrivals {
		retained[i] = sm.ArrSeq
	}
	e.Rev++
	r.append(stablestore.Record{Kind: stablestore.KindCheckpoint, Key: ckKey(e.Proc), Seq: e.Rev,
		Data: encWith(r, &ckCodec, &ckMeta{
			Blob:          e.Checkpoint,
			SendSeq:       e.CkSendSeq,
			ReadCount:     e.CkReadCount,
			StateKB:       e.CkStateKB,
			BaseReads:     e.BaseReads,
			DroppedArr:    dropped,
			AdvTrim:       e.AdvSeqNext,
			RetainedOrder: retained,
		})})
	r.store.InvalidateSeqs(e.msgKey, dropped)
	if e.AdvSeqNext > 0 {
		r.store.Invalidate(advKey(e.Proc), e.AdvSeqNext-1)
	}
}

func (r *Recorder) loadRestartNumber() {
	recs, err := r.store.ReadKey(restartKey)
	if err != nil || len(recs) == 0 {
		return
	}
	r.restartNumber = recs[len(recs)-1].Seq
}

func (r *Recorder) persistRestartNumber() {
	r.append(stablestore.Record{Kind: stablestore.KindMeta, Key: restartKey, Seq: r.restartNumber})
}

// rebuild reconstructs the in-memory database from stable storage after a
// recorder crash (§3.3.4 step one: "it first reads the checkpoint and
// message information on its stable storage to determine which processes
// should exist").
func (r *Recorder) rebuild() error {
	recs, err := r.store.ReadAll()
	if err != nil {
		return fmt.Errorf("recorder: rebuild: %w", err)
	}
	r.db = make(map[frame.ProcID]*procEntry)
	r.pending = make(map[frame.MsgID]*storedMsg)
	r.preArrivals = make(map[frame.ProcID][]storedMsg)
	r.preLastSent = make(map[frame.ProcID]uint64)

	entry := func(p frame.ProcID) *procEntry {
		e := r.db[p]
		if e == nil {
			e = newProcEntry(p, p.Node)
			r.db[p] = e
		}
		return e
	}

	type perProc struct {
		msgs     []storedMsg
		advs     []advisory
		lastRev  map[string]uint64
		ck       *ckMeta
		ckRev    uint64
		deadRev  uint64
		metaRev  uint64
		lastSent uint64
		lastSRev uint64
	}
	acc := make(map[frame.ProcID]*perProc)
	get := func(p frame.ProcID) *perProc {
		a := acc[p]
		if a == nil {
			a = &perProc{}
			acc[p] = a
		}
		return a
	}

	for _, rec := range recs {
		ns, pidStr, ok := splitKey(rec.Key)
		if !ok {
			continue
		}
		pid, ok := parseProcID(pidStr)
		if !ok {
			continue
		}
		a := get(pid)
		switch ns {
		case "msg":
			var sm storedMsg
			if gobIntoR(rec.Data, &sm) == nil {
				a.msgs = append(a.msgs, sm)
			}
		case "adv":
			var adv advisory
			if gobIntoR(rec.Data, &adv) == nil {
				a.advs = append(a.advs, adv)
			}
		case "ck":
			if rec.Seq >= a.ckRev {
				var cm ckMeta
				if gobIntoR(rec.Data, &cm) == nil {
					a.ck = &cm
					a.ckRev = rec.Seq
				}
			}
		case "proc":
			if rec.Seq >= a.metaRev {
				var pm procMeta
				if gobIntoR(rec.Data, &pm) == nil {
					e := entry(pid)
					e.Spec = pm.Spec
					e.Node = pm.Node
					a.metaRev = rec.Seq
					e.Rev = maxU64(e.Rev, rec.Seq)
				}
			}
		case "last":
			if rec.Seq >= a.lastSRev {
				var ls uint64
				if gobIntoR(rec.Data, &ls) == nil {
					a.lastSent = ls
					a.lastSRev = rec.Seq
				}
			}
		case "dead":
			a.deadRev = maxU64(a.deadRev, rec.Seq)
		}
	}

	for pid, a := range acc {
		e := r.db[pid]
		if e == nil {
			// Messages without a registration record: the process is not
			// recoverable from here (no spec); skip.
			continue
		}
		e.LastSent = a.lastSent
		e.Rev = maxU64(e.Rev, maxU64(a.lastSRev, maxU64(a.ckRev, a.deadRev)))
		if a.deadRev > 0 && a.deadRev >= a.metaRev {
			e.Dead = true
			continue
		}
		dropped := make(map[uint64]bool)
		advTrim := uint64(0)
		if a.ck != nil {
			e.Checkpoint = a.ck.Blob
			e.CkSendSeq = a.ck.SendSeq
			e.CkReadCount = a.ck.ReadCount
			e.CkStateKB = a.ck.StateKB
			e.BaseReads = a.ck.BaseReads
			for _, q := range a.ck.DroppedArr {
				dropped[q] = true
			}
			advTrim = a.ck.AdvTrim
			// Earlier checkpoints' drops matter too: everything any
			// checkpoint dropped stays dropped. Conservatively, also drop
			// arrival seqs below the smallest retained one implied by
			// earlier trims — covered because every checkpoint records its
			// own DroppedArr and we replay only the latest; earlier drops
			// are re-applied by reading all checkpoint records:
		}
		// Apply drops from every checkpoint revision (not just the latest).
		for _, rec := range recs {
			if rec.Key == ckKey(pid) {
				var cm ckMeta
				if gobIntoR(rec.Data, &cm) == nil {
					for _, q := range cm.DroppedArr {
						dropped[q] = true
					}
					if cm.AdvTrim > advTrim {
						advTrim = cm.AdvTrim
					}
				}
			}
		}
		sort.Slice(a.msgs, func(i, j int) bool { return a.msgs[i].ArrSeq < a.msgs[j].ArrSeq })
		// The latest checkpoint fixes the replay order of its retained
		// messages (queue order at checkpoint, which may differ from
		// arrival order after a recovery); later arrivals follow by seq.
		rank := make(map[uint64]int)
		if a.ck != nil {
			for i, q := range a.ck.RetainedOrder {
				rank[q] = i
			}
		}
		var pre, post []storedMsg
		for _, sm := range a.msgs {
			if dropped[sm.ArrSeq] {
				continue
			}
			sm := sm
			if _, ok := rank[sm.ArrSeq]; ok {
				pre = append(pre, sm)
			} else {
				post = append(post, sm)
			}
			e.have[sm.ID] = true
			if sm.ArrSeq >= e.ArrSeqNext {
				e.ArrSeqNext = sm.ArrSeq + 1
			}
		}
		sort.SliceStable(pre, func(i, j int) bool { return rank[pre[i].ArrSeq] < rank[pre[j].ArrSeq] })
		e.Arrivals = append(pre, post...)
		sort.Slice(a.advs, func(i, j int) bool { return a.advs[i].AdvSeq < a.advs[j].AdvSeq })
		for _, adv := range a.advs {
			if adv.AdvSeq < advTrim {
				continue
			}
			e.Advisories = append(e.Advisories, adv)
			if adv.AdvSeq >= e.AdvSeqNext {
				e.AdvSeqNext = adv.AdvSeq + 1
			}
		}
		if advTrim > e.AdvSeqNext {
			e.AdvSeqNext = advTrim
		}
		e.LastCkAt = r.sched.Now()
	}
	r.log.Add(trace.KindRecorder, int(r.cfg.Node), "recorder", "rebuilt database: %d processes", len(r.db))
	return nil
}

func splitKey(k string) (ns, pid string, ok bool) {
	i := strings.IndexByte(k, ':')
	if i < 0 {
		return "", "", false
	}
	return k[:i], k[i+1:], true
}

// parseProcID parses the "p<node>.<local>" form produced by ProcID.String.
func parseProcID(s string) (frame.ProcID, bool) {
	if len(s) < 4 || s[0] != 'p' {
		return frame.NilProc, false
	}
	var node int32
	var local uint32
	if _, err := fmt.Sscanf(s, "p%d.%d", &node, &local); err != nil {
		return frame.NilProc, false
	}
	return frame.ProcID{Node: frame.NodeID(node), Local: local}, true
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
