package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"publishing/internal/frame"
	"publishing/internal/simtime"
)

// decodeChrome parses exporter output back into generic JSON for assertions.
func decodeChrome(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("exporter wrote invalid JSON: %v", err)
	}
	return file.TraceEvents
}

func TestWriteChromeSpansAndMetadata(t *testing.T) {
	now := simtime.Time(0)
	l := New(func() simtime.Time { return now })
	m1 := frame.MsgID{Sender: frame.ProcID{Node: 0, Local: 1}, Seq: 1}
	l.AddMsg(KindSend, 0, m1, "", "sent")
	now = 2 * simtime.Microsecond
	l.AddMsg(KindPublish, 2, m1, "p0.1", "published")
	now = 4 * simtime.Microsecond
	l.AddMsg(KindReplay, 1, m1, "p1.1", "replayed")
	now = 6 * simtime.Microsecond
	l.AddMsg(KindAck, 0, m1, "", "acked")
	l.Add(KindCollision, -1, "wire", "two senders")

	var buf bytes.Buffer
	if err := l.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	events := decodeChrome(t, buf.Bytes())

	names := map[string]bool{}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
		if e["ph"] == "M" {
			names[e["args"].(map[string]any)["name"].(string)] = true
		}
	}
	if !names["node 0"] || !names["medium"] {
		t.Fatalf("process_name metadata missing: %v", names)
	}
	// 5 instants; m1's span: one "b" (send), one "e" (ack), two "n"
	// (publish, replay) — all sharing the message id.
	if phases["i"] != 5 || phases["b"] != 1 || phases["e"] != 1 || phases["n"] != 2 {
		t.Fatalf("phase counts: %v", phases)
	}
	for _, e := range events {
		switch e["ph"] {
		case "b", "e", "n":
			if e["id"] != "p0.1#1" {
				t.Fatalf("span event with id %v, want p0.1#1", e["id"])
			}
		}
	}
	// The medium event must not land on a negative pid.
	for _, e := range events {
		if pid := e["pid"].(float64); pid < 0 {
			t.Fatalf("negative pid %v", pid)
		}
	}
	// Replay span instants share the original message's span id: the
	// causal link the timeline view hinges on.
	var replayID, publishID any
	for _, e := range events {
		if e["ph"] == "n" {
			kind := e["args"].(map[string]any)["kind"]
			if kind == "replay" {
				replayID = e["id"]
			}
			if kind == "publish" {
				publishID = e["id"]
			}
		}
	}
	if replayID == nil || replayID != publishID {
		t.Fatalf("replay id %v != publish id %v", replayID, publishID)
	}
}

func TestWriteChromeTimestampsMicroseconds(t *testing.T) {
	now := 1500 * simtime.Nanosecond
	l := New(func() simtime.Time { return now })
	l.Add(KindSend, 0, "s", "x")
	var buf bytes.Buffer
	if err := l.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeChrome(t, buf.Bytes()) {
		if e["ph"] == "i" && e["ts"].(float64) != 1.5 {
			t.Fatalf("ts = %v µs, want 1.5", e["ts"])
		}
	}
}
