package trace

import (
	"bytes"
	"strings"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(KindSend, 1, "x", "anything %d", 42)
	l.AddMsg(KindSend, 1, frame.MsgID{}, "x", "anything")
	l.Record(Event{Kind: KindSend, Note: NoteRetransmit, A: 1})
	l.Enable(true)
	l.SetSink(&bytes.Buffer{})
	l.SetFilter(func(Event) bool { return true })
	l.SetDetailed(true)
	l.SetFlightRecorder(4)
	l.Reset()
	l.Dump(&bytes.Buffer{})
	if err := l.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	if l.Events() != nil || l.OfKind(KindSend) != nil || l.Count(KindSend) != 0 {
		t.Fatal("nil log leaked data")
	}
	if l.CountSubject(KindSend, "x") != 0 || l.Contains(KindSend, "y") {
		t.Fatal("nil log counted")
	}
	if l.Detailed() || l.Dropped() != 0 {
		t.Fatal("nil log has state")
	}
}

func TestRecordAndQuery(t *testing.T) {
	now := simtime.Time(0)
	l := New(func() simtime.Time { return now })
	l.Add(KindSend, 0, "p0.1", "first")
	now = 5 * simtime.Millisecond
	l.Add(KindCrash, 1, "p1.2", "boom %d", 7)
	l.Add(KindSend, 0, "p0.1", "second")

	if len(l.Events()) != 3 {
		t.Fatalf("events = %d", len(l.Events()))
	}
	if l.Count(KindSend) != 2 || l.Count(KindCrash) != 1 || l.Count(KindDetect) != 0 {
		t.Fatal("counts wrong")
	}
	if l.CountSubject(KindSend, "p0.1") != 2 || l.CountSubject(KindSend, "zzz") != 0 {
		t.Fatal("subject counts wrong")
	}
	if !l.Contains(KindCrash, "boom 7") || l.Contains(KindCrash, "nope") {
		t.Fatal("Contains wrong")
	}
	if l.Events()[1].At != 5*simtime.Millisecond {
		t.Fatal("timestamp not taken from clock")
	}
}

func TestEnableDisable(t *testing.T) {
	l := New(nil)
	l.Enable(false)
	l.Add(KindSend, 0, "s", "hidden")
	if len(l.Events()) != 0 {
		t.Fatal("disabled log recorded")
	}
	l.Enable(true)
	l.Add(KindSend, 0, "s", "visible")
	if len(l.Events()) != 1 {
		t.Fatal("enabled log did not record")
	}
}

func TestFilterAndSink(t *testing.T) {
	var buf bytes.Buffer
	l := New(nil)
	l.SetSink(&buf)
	l.SetFilter(func(e Event) bool { return e.Kind == KindCrash })
	l.Add(KindSend, 0, "s", "dropped")
	l.Add(KindCrash, 2, "p2.1", "kept")
	if len(l.Events()) != 1 {
		t.Fatalf("filter kept %d events", len(l.Events()))
	}
	out := buf.String()
	if !strings.Contains(out, "kept") || strings.Contains(out, "dropped") {
		t.Fatalf("sink output: %q", out)
	}
}

func TestResetAndDump(t *testing.T) {
	l := New(nil)
	l.Add(KindReplay, 3, "p3.1", "one")
	l.Add(KindReplay, 3, "p3.1", "two")
	var buf bytes.Buffer
	l.Dump(&buf)
	if strings.Count(buf.String(), "\n") != 2 {
		t.Fatalf("dump: %q", buf.String())
	}
	l.Reset()
	if len(l.Events()) != 0 {
		t.Fatal("reset did not clear")
	}
}

// panicStringer proves formatting never happened: Sprintf on it panics.
type panicStringer struct{}

func (panicStringer) String() string { panic("formatted a filtered event") }

func TestFilterRunsBeforeFormatting(t *testing.T) {
	l := New(nil)
	sawDetail := "unset"
	l.SetFilter(func(e Event) bool {
		sawDetail = e.Detail
		return false
	})
	l.Add(KindSend, 0, "s", "costly %v", panicStringer{})
	if sawDetail != "" {
		t.Fatalf("filter saw Detail %q, want empty (pre-format)", sawDetail)
	}
	if len(l.Events()) != 0 {
		t.Fatal("rejected event recorded")
	}
}

func TestFilterSeesMsgAndSinkGetsFiltered(t *testing.T) {
	var buf bytes.Buffer
	l := New(nil)
	l.SetSink(&buf)
	keep := frame.MsgID{Sender: frame.ProcID{Node: 2, Local: 1}, Seq: 9}
	l.SetFilter(func(e Event) bool { return e.Msg == keep })
	l.AddMsg(KindSend, 0, frame.MsgID{Sender: keep.Sender, Seq: 8}, "s", "a")
	l.AddMsg(KindSend, 0, keep, "s", "b")
	if got := l.Count(KindSend); got != 1 {
		t.Fatalf("recorded %d, want 1", got)
	}
	if out := buf.String(); !strings.Contains(out, "p2.1#9") || strings.Contains(out, "p2.1#8") {
		t.Fatalf("sink saw filtered event: %q", out)
	}
}

func TestCountDoesNotAllocate(t *testing.T) {
	l := New(nil)
	for i := 0; i < 100; i++ {
		l.Add(KindSend, 0, "s", "x")
		l.Add(KindCrash, 0, "s", "x")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if l.Count(KindSend) != 100 || l.CountSubject(KindCrash, "s") != 100 {
			t.Fatal("wrong counts")
		}
	})
	if allocs != 0 {
		t.Fatalf("Count allocated %.0f times per run", allocs)
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	now := simtime.Time(0)
	l := New(func() simtime.Time { return now })
	l.SetFlightRecorder(3)
	for i := 1; i <= 7; i++ {
		now = simtime.Time(i)
		l.Add(KindSend, 0, "s", "ev")
	}
	ev := l.Events()
	if len(ev) != 3 {
		t.Fatalf("kept %d events, want 3", len(ev))
	}
	for i, want := range []simtime.Time{5, 6, 7} {
		if ev[i].At != want {
			t.Fatalf("event %d at %v, want %v (order broken)", i, ev[i].At, want)
		}
	}
	if l.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", l.Dropped())
	}
	if l.Count(KindSend) != 3 {
		t.Fatal("Count ignores the ring bound")
	}
	// Shrinking keeps the newest events; unbounding keeps order.
	l.SetFlightRecorder(2)
	if ev := l.Events(); len(ev) != 2 || ev[1].At != 7 {
		t.Fatalf("shrink kept %v", ev)
	}
	l.SetFlightRecorder(0)
	now = 8
	l.Add(KindSend, 0, "s", "ev")
	if ev := l.Events(); len(ev) != 3 || ev[0].At != 6 || ev[2].At != 8 {
		t.Fatalf("unbound kept %v", ev)
	}
	// Reset keeps the bound itself.
	l.SetFlightRecorder(2)
	l.Reset()
	if l.Dropped() != 0 {
		t.Fatal("Reset kept dropped count")
	}
	for i := 0; i < 5; i++ {
		l.Add(KindSend, 0, "s", "ev")
	}
	if len(l.Events()) != 2 {
		t.Fatal("bound lost across Reset")
	}
}

func TestAddMsgThreadsCausalKey(t *testing.T) {
	l := New(nil)
	p01 := frame.ProcID{Node: 0, Local: 1}
	l.AddMsg(KindPublish, 1, frame.MsgID{Sender: p01, Seq: 7}, "p0.1", "published")
	e := l.Events()[0]
	if !e.HasMsg || e.Msg != (frame.MsgID{Sender: p01, Seq: 7}) {
		t.Fatalf("Msg = %v", e.Msg)
	}
	if s := e.String(); !strings.Contains(s, "msg=p0.1#7") {
		t.Fatalf("Event.String lost the id: %q", s)
	}
	// When the subject IS the id, the suffix would be noise — whether the
	// subject was given as text or left for the exporter to format.
	l.AddMsg(KindSend, 1, frame.MsgID{Sender: p01, Seq: 8}, "p0.1#8", "sent")
	l.AddMsg(KindSend, 1, frame.MsgID{Sender: p01, Seq: 9}, "", "sent")
	for _, e := range l.Events()[1:] {
		if s := e.String(); strings.Contains(s, "msg=") || !strings.Contains(s, "p0.1#") {
			t.Fatalf("redundant or missing msg: %q", s)
		}
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindSend: "send", KindDeliver: "deliver", KindAck: "ack",
		KindPublish: "publish", KindCheckpoint: "checkpoint", KindCrash: "crash",
		KindDetect: "detect", KindRecoveryStart: "recovery-start",
		KindReplay: "replay", KindRecoveryDone: "recovery-done",
		KindDrop: "drop", KindSuppress: "suppress", KindCollision: "collision",
		KindSchedule: "schedule", KindControl: "control", KindRecorder: "recorder",
		KindGiveUp: "give-up", KindOther: "other",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
	e := Event{Kind: KindSend, Node: 2, Subject: "p2.9", Detail: "hello"}
	if s := e.String(); !strings.Contains(s, "send") || !strings.Contains(s, "p2.9") {
		t.Errorf("Event.String = %q", s)
	}
}

// TestObserverRingBatching covers the batched observer path: events buffer
// up to the ring size, arrive in record order at every flush point (ring
// full, explicit flush, Enable(false), observer swap), and nil-log /
// no-observer cases stay safe.
func TestObserverRingBatching(t *testing.T) {
	var nilLog *Log
	nilLog.SetObserverRing(8) // must not panic
	nilLog.FlushObservers()

	l := New(func() simtime.Time { return 0 })
	var got []string
	l.SetObserver(func(e Event) { got = append(got, e.Subject) })
	l.SetObserverRing(3)

	l.Add(KindSend, 0, "a", "x")
	l.Add(KindSend, 0, "b", "x")
	if len(got) != 0 {
		t.Fatalf("observer ran before the ring filled: %v", got)
	}
	l.Add(KindSend, 0, "c", "x") // fills the ring
	if want := []string{"a", "b", "c"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("ring-full flush delivered %v, want %v", got, want)
	}

	l.Add(KindSend, 0, "d", "x")
	l.FlushObservers()
	if got[len(got)-1] != "d" {
		t.Fatalf("explicit flush missed the buffered event: %v", got)
	}
	l.FlushObservers() // empty flush is a no-op
	if len(got) != 4 {
		t.Fatalf("empty flush delivered events: %v", got)
	}

	// Enable(false) flushes the tail.
	l.Add(KindSend, 0, "e", "x")
	l.Enable(false)
	if got[len(got)-1] != "e" {
		t.Fatalf("disable did not flush: %v", got)
	}
	l.Add(KindSend, 0, "dropped", "x") // disabled: recorded nowhere
	l.Enable(true)

	// Swapping the observer delivers pending events to the outgoing one.
	l.Add(KindSend, 0, "f", "x")
	var got2 []string
	l.SetObserver(func(e Event) { got2 = append(got2, e.Subject) })
	if got[len(got)-1] != "f" || len(got2) != 0 {
		t.Fatalf("observer swap misdelivered: old=%v new=%v", got, got2)
	}

	// Restoring synchronous mode flushes and then delivers per event.
	l.Add(KindSend, 0, "g", "x")
	l.SetObserverRing(0)
	if got2[len(got2)-1] != "g" {
		t.Fatalf("SetObserverRing(0) did not flush: %v", got2)
	}
	l.Add(KindSend, 0, "h", "x")
	if got2[len(got2)-1] != "h" {
		t.Fatalf("synchronous delivery broken after ring removal: %v", got2)
	}

	// Events the retention filter rejects still reach a batched observer.
	l.SetObserverRing(4)
	l.SetFilter(func(e Event) bool { return false })
	l.Add(KindSend, 0, "filtered", "x")
	l.FlushObservers()
	if got2[len(got2)-1] != "filtered" {
		t.Fatalf("filtered event missed the batched observer: %v", got2)
	}
}
