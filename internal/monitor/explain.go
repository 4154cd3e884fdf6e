package monitor

import (
	"fmt"
	"io"

	"publishing/internal/trace"
)

// Explain writes a causal post-mortem for one message: every recorded trace
// event carrying the id, in virtual-time order — send, retransmissions,
// medium tap, recorder publish (with its acceptance-order position),
// delivery, end-to-end ack, recovery replays — followed by a lifetime
// summary and an exactly-once verdict. It returns the matching events so
// callers can export them as a single-message Chrome trace
// (trace.WriteChrome); nil means the id never appears in events (the ring
// may have dropped it, or detailed tracing was off).
func Explain(w io.Writer, events []trace.Event, msgID string) []trace.Event {
	var out []trace.Event
	for i := range events {
		if e := &events[i]; e.HasMsg && e.Msg.String() == msgID {
			out = append(out, *e)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(w, "no trace events mention message %s — raise the flight-recorder bound or enable detailed tracing\n", msgID)
		return nil
	}

	fmt.Fprintf(w, "message %s: %d events, t=%v … t=%v\n", msgID, len(out), out[0].At, out[len(out)-1].At)
	var freshSends, retrans, delivered, published, replays, acks int
	gaveUp := false
	for i := range out {
		e := &out[i]
		switch e.Kind {
		case trace.KindSend:
			if e.Note == trace.NoteRetransmit {
				retrans++
			} else {
				freshSends++
			}
		case trace.KindDeliver:
			delivered++
		case trace.KindPublish:
			published++
		case trace.KindReplay:
			replays++
		case trace.KindAck:
			acks++
		case trace.KindGiveUp:
			gaveUp = true
		}
		fmt.Fprintf(w, "  %12v %-14s node=%-2d %-14s %s\n", e.At, e.Kind, e.Node, e.SubjectText(), e.DetailText())
	}

	fmt.Fprintf(w, "lifetime: sends=%d retransmits=%d published=%d delivered=%d replays=%d acks=%d\n",
		freshSends, retrans, published, delivered, replays, acks)
	switch {
	case gaveUp && delivered == 0:
		fmt.Fprintln(w, "verdict: LOST — the sender exhausted its retry budget and no delivery was observed")
	case delivered == 0:
		fmt.Fprintln(w, "verdict: never delivered (still in flight, or suppressed)")
	case delivered > 1+replays:
		fmt.Fprintf(w, "verdict: DUPLICATE — delivered %d times with only %d replay licenses\n", delivered, replays)
	case replays > 0:
		fmt.Fprintf(w, "verdict: delivered exactly once per license (%d original + %d replayed)\n", delivered-replays, replays)
	default:
		fmt.Fprintln(w, "verdict: delivered exactly once")
	}
	return out
}
