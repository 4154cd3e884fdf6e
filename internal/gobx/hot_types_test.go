package gobx_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"publishing/internal/demos"
	"publishing/internal/frame"
)

// The byte-equivalence table for the repo's real hot-path types: each value
// encoded through the package's cached codec must match a one-shot gob
// encoder byte for byte, in any order, and decode back to itself.
func TestHotTypesMatchOneShot(t *testing.T) {
	p := frame.ProcID{Node: 4, Local: 2}
	id := frame.MsgID{Sender: p, Seq: 17}
	cases := []struct {
		name   string
		values []any
		encode func(v any) []byte
		decode func(b []byte) (any, error)
	}{
		{"CtlMsg",
			[]any{&demos.CtlMsg{}, &demos.CtlMsg{Op: demos.OpRecreate, Proc: p, FirstSendSeq: 3, LastSentSeq: 2,
				Checkpoint: []byte("ck"), RecoveryGen: 5, ReplayID: id, ReplayBody: []byte("body")}},
			func(v any) []byte { return demos.EncodeCtl(v.(*demos.CtlMsg)) },
			func(b []byte) (any, error) { return demos.DecodeCtl(b) }},
		{"Notice",
			[]any{&demos.Notice{}, &demos.Notice{Kind: demos.NoticeCheckpoint, Proc: p, ReadID: id, HeadID: id,
				Checkpoint: []byte{1, 2, 3}, SendSeq: 9, Queued: []frame.MsgID{id}}},
			func(v any) []byte { return demos.EncodeNotice(v.(*demos.Notice)) },
			func(b []byte) (any, error) { return demos.DecodeNotice(b) }},
		{"CtlReply",
			[]any{&demos.CtlReply{}, &demos.CtlReply{OK: true, Proc: p, AckedBatch: 12},
				&demos.CtlReply{Err: "refused", RestartNumber: 3}},
			func(v any) []byte { return demos.EncodeReply(v.(*demos.CtlReply)) },
			func(b []byte) (any, error) { return demos.DecodeReply(b) }},
	}
	for _, c := range cases {
		for round := 0; round < 2; round++ {
			for i, v := range c.values {
				var want bytes.Buffer
				if err := gob.NewEncoder(&want).Encode(v); err != nil {
					t.Fatal(err)
				}
				got := c.encode(v)
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s value %d round %d: stream differs from one-shot gob\n got %x\nwant %x", c.name, i, round, got, want.Bytes())
				}
				back, err := c.decode(got)
				if err != nil {
					t.Fatalf("%s value %d: decode: %v", c.name, i, err)
				}
				if !reflect.DeepEqual(back, v) {
					t.Fatalf("%s value %d: decoded %+v, want %+v", c.name, i, back, v)
				}
			}
		}
	}
}
