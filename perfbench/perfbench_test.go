package main

import (
	"reflect"
	"testing"

	"publishing/internal/stablestore"
)

// small shrinks a workload so a test iteration takes a fraction of a second.
func small(t *testing.T, name string) spec {
	t.Helper()
	s, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	s.Arrivals = 1024
	if s.LoadCrashes > 0 {
		s.LoadCrashes = 16
	}
	s.ProbeCrashes = 16
	return s
}

// storeAtDrain runs one iteration and returns it with the recorder store's
// contents as of the end of the drain.
func storeAtDrain(p *plan, traced bool) (outcome, []stablestore.Record) {
	var recs []stablestore.Record
	o := iterate(p, func(in *instance) {
		if traced {
			in.retainAll = true
			in.c.Trace().Enable(true)
			in.c.Trace().SetDetailed(true)
			in.c.Medium().AttachTap(tapNode, &frameTap{now: in.c.Now, on: true})
		}
		in.onDrained = func() {
			var err error
			if recs, err = in.c.Store().ReadAll(); err != nil {
				panic(err)
			}
		}
	}, false)
	return o, recs
}

// The traced run (trace on, detailed events, every event retained, a frame
// tap on the medium) must execute exactly what the untraced run executes:
// equal event and frame counts and equal recorder-store contents.
func TestTracedRunDoesNotPerturb(t *testing.T) {
	for _, name := range []string{"steady-256", "ether-64", "recover-64"} {
		t.Run(name, func(t *testing.T) {
			p := makePlan(small(t, name), 3)
			plain, plainRecs := storeAtDrain(p, false)
			tr, trRecs := storeAtDrain(p, true)
			if tr.c.TraceEvents == 0 {
				t.Fatal("traced run recorded no trace events")
			}
			a, b := plain.c, tr.c
			a.TraceEvents, b.TraceEvents = 0, 0
			if a != b {
				t.Errorf("counters differ:\nuntraced %+v\ntraced   %+v", a, b)
			}
			if a.Events == 0 || a.FramesSent == 0 || len(plainRecs) == 0 {
				t.Fatalf("empty run: %+v, %d records", a, len(plainRecs))
			}
			if !reflect.DeepEqual(plainRecs, trRecs) {
				t.Errorf("recorder store contents differ: %d records untraced, %d traced", len(plainRecs), len(trRecs))
			}
		})
	}
}

// Sinks count deliveries from their own restored state: after crashes and
// replays, every send is in exactly one sink's state once, although replay
// handed many messages to Handle a second time.
func TestExactlyOnceFromProcessState(t *testing.T) {
	p := makePlan(small(t, "recover-64"), 5)
	o := iterate(p, nil, false)
	k := o.c
	if k.Replayed == 0 || k.Recovered != k.Crashes || k.Crashes != len(p.crashes)+len(p.probe) {
		t.Fatalf("recovery not exercised: %+v", k)
	}
	if k.Delivered != k.Sends || k.Dups != 0 || k.Stray != 0 || k.failed() != 0 || len(k.problems()) != 0 {
		t.Fatalf("want every send delivered once: %+v, problems %v", k, k.problems())
	}
	if len(o.lat) != k.Sends {
		t.Fatalf("%d first-delivery latencies for %d sends", len(o.lat), k.Sends)
	}
}

// The output check has teeth: a sink state missing one message and holding
// one duplicate is reported as two failures and as wrong output.
func TestCheckCatchesBrokenDelivery(t *testing.T) {
	p := makePlan(small(t, "steady-256"), 1)
	o := iterate(p, nil, true)
	defer o.in.close()
	for _, s := range o.in.sinks {
		if len(s.st.seen) == 0 {
			continue
		}
		for id := range s.st.seen {
			delete(s.st.seen, id)
			break
		}
		s.st.dups++
		break
	}
	var broken outcome
	o.in.check(&broken)
	k := broken.c
	if k.Missing != 1 || k.Dups != 1 || k.failed() != 2 || len(k.problems()) == 0 {
		t.Fatalf("tampered sink state not caught: %+v, problems %v", k, k.problems())
	}
}

// Same seed, same iteration; another seed, another one.
func TestIterationsRepeat(t *testing.T) {
	s := small(t, "ether-64")
	a := iterate(makePlan(s, 7), nil, false)
	b := iterate(makePlan(s, 7), nil, false)
	c := iterate(makePlan(s, 8), nil, false)
	if a.c != b.c || !reflect.DeepEqual(a.lat, b.lat) || !reflect.DeepEqual(a.rec, b.rec) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.c, b.c)
	}
	if a.c == c.c {
		t.Fatalf("seeds 7 and 8 gave identical runs")
	}
}
