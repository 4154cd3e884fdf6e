package simtime

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// The scheduler is checked against a reference model too simple to be
// wrong: a slice kept sorted by (at, seq). A seeded random program drives
// both through the same operations — same-time bursts, schedules and
// cancels from inside firing events, cancels through stale handles whose
// node has been reused, Step and Run cuts — and the transcripts (fire
// order; Now, Fired, Pending and every handle's Pending at checkpoints)
// must match line for line.

// schedUnderTest is what the program drives. The i-th at call creates
// event i; cancel and pending name events by that index.
type schedUnderTest interface {
	Now() Time
	Fired() uint64
	Pending() int
	Step() bool
	Run(limit Time) uint64
	at(t Time, fn func())
	cancel(id int)
	pending(id int) bool
}

// realSched adapts *Scheduler. ignoreSeq (every event gets sequence 0, so
// equal times no longer fire FIFO) and restamp (Cancel ignores handle
// generations) are broken variants that prove the harness has teeth.
type realSched struct {
	*Scheduler
	evs                []Event
	ignoreSeq, restamp bool
	staleReused        int // cancels through a handle whose node was re-armed
}

func (r *realSched) at(t Time, fn func()) {
	if r.ignoreSeq {
		r.seq = 0
	}
	r.evs = append(r.evs, r.At(t, fn))
}

func (r *realSched) cancel(id int) {
	e := r.evs[id]
	if e.n.gen != e.gen {
		r.staleReused++
		if r.restamp {
			e.gen = e.n.gen
		}
	}
	r.Cancel(e)
}

func (r *realSched) pending(id int) bool { return r.evs[id].Pending() }

// refSched is the reference model. Event ids grow in scheduling order, so
// they double as the sequence number.
type refSched struct {
	now   Time
	fired uint64
	ids   int
	q     []refEvent // sorted by (at, id)
}

type refEvent struct {
	at Time
	id int
	fn func()
}

func (r *refSched) Now() Time     { return r.now }
func (r *refSched) Fired() uint64 { return r.fired }
func (r *refSched) Pending() int  { return len(r.q) }

func (r *refSched) at(t Time, fn func()) {
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > t }) // every queued id is smaller
	r.q = slices.Insert(r.q, i, refEvent{t, r.ids, fn})
	r.ids++
}

func (r *refSched) find(id int) int {
	return slices.IndexFunc(r.q, func(e refEvent) bool { return e.id == id })
}

func (r *refSched) cancel(id int) {
	if i := r.find(id); i >= 0 {
		r.q = slices.Delete(r.q, i, i+1)
	}
}

func (r *refSched) pending(id int) bool { return r.find(id) >= 0 }

func (r *refSched) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	e := r.q[0]
	r.q = r.q[1:]
	r.now = e.at
	r.fired++
	e.fn()
	return true
}

func (r *refSched) Run(limit Time) uint64 {
	start := r.fired
	for len(r.q) > 0 && r.q[0].at <= limit {
		r.Step()
	}
	r.now = max(r.now, limit)
	return r.fired - start
}

// refProgram is one seeded program. Every choice comes from its own Rand,
// so two schedulers that fire in the same order run the same program.
type refProgram struct {
	s        schedUnderTest
	rng      *Rand
	n        int // events scheduled so far
	out      []string
	lastFire Time

	ties, eventCancels, cuts int // coverage of the paths under test
}

func (p *refProgram) logf(format string, args ...any) {
	p.out = append(p.out, fmt.Sprintf(format, args...))
}

// schedule adds an event at t, or when t < 0 at a random near offset;
// offsets on a coarse grid make equal-time ties common.
func (p *refProgram) schedule(t Time, depth int) int {
	if t < 0 {
		t = p.s.Now() + []Time{0, 10 * Time(p.rng.Intn(5)), Time(p.rng.Intn(1000))}[p.rng.Intn(3)]
	}
	id := p.n
	p.n++
	p.s.at(t, func() { p.fire(id, depth) })
	return id
}

func (p *refProgram) fire(id, depth int) {
	now := p.s.Now()
	if p.s.Fired() > 1 && now == p.lastFire {
		p.ties++
	}
	p.lastFire = now
	p.logf("fire %d at %d fired=%d pending=%d", id, now, p.s.Fired(), p.s.Pending())
	if depth >= 3 {
		return
	}
	victim := -1
	switch r := p.rng.Intn(10); {
	case r < 4:
		for k := p.rng.Intn(3); k > 0; k-- {
			p.schedule(-1, depth+1)
		}
	case r < 6:
		victim = p.rng.Intn(p.n)
	case r == 6:
		victim = p.schedule(-1, depth+1)
	case r == 7:
		victim = id // already fired: a no-op
	}
	if victim >= 0 {
		if p.s.pending(victim) {
			p.eventCancels++
		}
		p.s.cancel(victim)
	}
}

func (p *refProgram) run() []string {
	for i := 0; i < 300; i++ {
		switch op := p.rng.Intn(12); {
		case op < 3:
			p.schedule(-1, 0)
		case op == 3: // a same-time burst
			t := p.s.Now() + Time(p.rng.Intn(100))
			for k := 2 + p.rng.Intn(6); k > 0; k-- {
				p.schedule(t, 0)
			}
		case op == 4 && p.n > 0:
			p.s.cancel(p.rng.Intn(p.n)) // often stale: fired, cancelled or reused
		case op == 5 && p.n > 0:
			p.s.cancel(p.n - 1)
		case op == 6:
			p.logf("step %v", p.s.Step())
		case op < 10:
			p.logf("run fired=%d", p.s.Run(p.s.Now()+Time(p.rng.Intn(300))))
			if p.s.Pending() > 0 {
				p.cuts++
			}
		default:
			p.checkpoint()
		}
	}
	p.logf("drain fired=%d", p.s.Run(Never-1))
	p.checkpoint()
	return p.out
}

func (p *refProgram) checkpoint() {
	live := make([]byte, p.n)
	for id := range live {
		live[id] = '0'
		if p.s.pending(id) {
			live[id] = '1'
		}
	}
	p.logf("check now=%d fired=%d pending=%d live=%s", p.s.Now(), p.s.Fired(), p.s.Pending(), live)
}

// diffReference runs one seed on rs and on the reference model and
// describes the first transcript line where they differ ("" if none).
func diffReference(seed uint64, rs *realSched) (string, *refProgram) {
	p := &refProgram{s: rs, rng: NewRand(seed)}
	got := p.run()
	want := (&refProgram{s: &refSched{}, rng: NewRand(seed)}).run()
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	if i == len(got) && i == len(want) {
		return "", p
	}
	return fmt.Sprintf("line %d:\n  scheduler: %s\n  reference: %s",
		i, append(got, "<end>")[i], append(want, "<end>")[i]), p
}

func TestSchedulerMatchesReference(t *testing.T) {
	var ties, eventCancels, cuts, stale int
	for seed := uint64(1); seed <= 40; seed++ {
		rs := &realSched{Scheduler: NewScheduler()}
		d, p := diffReference(seed, rs)
		if d != "" {
			t.Fatalf("seed %d: scheduler diverged from the reference at %s", seed, d)
		}
		ties, eventCancels, cuts, stale = ties+p.ties, eventCancels+p.eventCancels, cuts+p.cuts, stale+rs.staleReused
	}
	if ties == 0 || eventCancels == 0 || cuts == 0 || stale == 0 {
		t.Fatalf("paths unexercised: ties=%d in-event cancels=%d run cuts=%d stale reused cancels=%d",
			ties, eventCancels, cuts, stale)
	}
}

func TestSchedulerReferenceCatchesBrokenVariants(t *testing.T) {
	for name, brk := range map[string]func(*realSched){
		"ignore-seq": func(r *realSched) { r.ignoreSeq = true },
		"restamp":    func(r *realSched) { r.restamp = true },
	} {
		caught := false
		for seed := uint64(1); seed <= 40 && !caught; seed++ {
			rs := &realSched{Scheduler: NewScheduler()}
			brk(rs)
			d, _ := diffReference(seed, rs)
			caught = d != ""
		}
		if !caught {
			t.Errorf("%s: broken scheduler matched the reference on every seed", name)
		}
	}
}
