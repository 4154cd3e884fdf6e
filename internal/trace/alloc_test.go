package trace

import (
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// recordAllocs reports the allocations per call of record on an enabled,
// detailed log configured the way a monitored cluster runs it: a batching
// observer ring and a bounded flight recorder, so steady-state retention
// reuses its slots.
func recordAllocs(record func(l *Log)) float64 {
	l := New(func() simtime.Time { return simtime.Millisecond })
	l.SetDetailed(true)
	seen := 0
	l.SetObserver(func(e Event) { seen += e.Node })
	l.SetObserverRing(16)
	l.SetFlightRecorder(64)
	return testing.AllocsPerRun(200, func() { record(l) })
}

var (
	allocSender = frame.ProcID{Node: 3, Local: 1}
	allocDest   = frame.ProcID{Node: 7, Local: 2}
	allocMsg    = frame.MsgID{Sender: allocSender, Seq: 41}
)

// recordHotKinds records one event of every kind the hot paths emit, the
// way they emit it: typed ids, a Note and integer arguments, and a subject
// string the caller already holds.
func recordHotKinds(l *Log) {
	const name = "p7.2"
	m := allocMsg
	l.Record(Event{Kind: KindSend, Node: 3, Msg: m, HasMsg: true, Proc: allocDest, Note: NoteFrame, A: 0, B: 64})
	l.Record(Event{Kind: KindSend, Node: 3, Msg: m, HasMsg: true, Note: NoteRetransmit, A: 2})
	l.Record(Event{Kind: KindDeliver, Node: 7, Subject: name, Msg: m, HasMsg: true, Proc: allocDest, Note: NoteQueued})
	l.Record(Event{Kind: KindPublish, Node: 9, Subject: name, Msg: m, HasMsg: true, Proc: allocDest, Seq: 5, Note: NotePublished})
	l.Record(Event{Kind: KindPublish, Node: 9, Subject: name, Msg: m, HasMsg: true, Proc: allocDest, Seq: 6, Note: NoteInferred})
	l.Record(Event{Kind: KindAck, Node: 3, Msg: m, HasMsg: true, Note: NoteAcked, A: 1})
	l.Record(Event{Kind: KindGiveUp, Node: 3, Msg: m, HasMsg: true, Note: NoteGaveUp, A: 600})
	l.Record(Event{Kind: KindReplay, Node: 7, Subject: name, Msg: m, HasMsg: true, Proc: allocDest, Note: NoteReplayedFrom, A: 1})
	l.Record(Event{Kind: KindReplay, Node: 7, Subject: name, Proc: allocDest, Note: NoteReplayedBatch, A: 1, B: 8})
	l.Record(Event{Kind: KindSuppress, Node: 7, Subject: name, Proc: allocDest, Note: NoteSuppressed, A: 3, B: 6})
}

// TestTypedRecordDoesNotAllocate pins the typed record path at zero
// allocations: no formatting, no boxing, no string building.
func TestTypedRecordDoesNotAllocate(t *testing.T) {
	if a := recordAllocs(recordHotKinds); a != 0 {
		t.Fatalf("recording the hot kinds allocated %.0f times per round, want 0", a)
	}
}

// TestRecordAllocHarnessCatchesFormatting is the broken variant: the same
// harness recording a Detail built from fmt arguments must see the
// allocation, or the zero above proves nothing.
func TestRecordAllocHarnessCatchesFormatting(t *testing.T) {
	attempts := 2
	a := recordAllocs(func(l *Log) {
		l.AddMsg(KindSend, 3, allocMsg, "", "retransmit #%d of %s", attempts, allocMsg)
	})
	if a == 0 {
		t.Fatal("a formatted Detail recorded without allocating: the harness cannot catch formatting")
	}
}

// TestNoteText pins each Note's text to the string its recording site
// formatted before events were typed.
func TestNoteText(t *testing.T) {
	m := allocMsg
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Msg: m, Proc: allocDest, Note: NoteFrame, A: 3, B: 64}, "guaranteed p3.1#41 p3.1->p7.2 ch=3 len=64"},
		{Event{Note: NoteRetransmit, A: 2}, "retransmit #2"},
		{Event{Note: NoteGaveUp, A: 600}, "gave up after 600 attempts"},
		{Event{Note: NoteAcked, A: 1}, "end-to-end ack after 1 attempt(s)"},
		{Event{Note: NoteQueued, A: 4}, "queued ch=4"},
		{Event{Note: NoteReplayedFrom, A: 9}, "replayed from batch #9"},
		{Event{Note: NoteReplayedBatch, A: 9, B: 12}, "replayed batch #9 (12 messages)"},
		{Event{Note: NotePublished, Seq: 5}, "published (#5 in stream)"},
		{Event{Note: NoteInferred, Seq: 6}, "published (#6 in stream, inferred from later ack)"},
		{Event{Note: NoteSuppressed, A: 3, B: 6}, "suppressed resend #3 (<= 6)"},
		{Event{Detail: "free text"}, "free text"},
	}
	for _, c := range cases {
		if got := c.e.DetailText(); got != c.want {
			t.Errorf("note %d: %q, want %q", c.e.Note, got, c.want)
		}
	}
	e := Event{Msg: m, HasMsg: true}
	if got := e.SubjectText(); got != "p3.1#41" {
		t.Errorf("empty subject of a message event = %q, want the message id", got)
	}
	e.Subject = "p7.2"
	if got := e.SubjectText(); got != "p7.2" {
		t.Errorf("SubjectText = %q, want the given subject", got)
	}
}
