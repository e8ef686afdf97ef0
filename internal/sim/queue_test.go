package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// mixReactor drives the event queue through every scheduling distance a run
// produces: network sends (whatever delay the model assigns), zero-delay
// timers, several timers due in the same tick, and timers far beyond any
// near-future window. Each delivery forwards exactly one token, so the event
// count grows linearly with the horizon.
type mixReactor struct {
	peers []model.ID
	hop   byte
}

func (r *mixReactor) Init(ctx Context) {
	for _, p := range r.peers {
		ctx.Send(p, []byte{'i', byte(ctx.ID())})
	}
	ctx.SetTimer(0, 1)
	ctx.SetTimer(0, 2)
	ctx.SetTimer(3*Second, 3)
}

func (r *mixReactor) Receive(ctx Context, _ model.ID, payload []byte) {
	rng := ctx.Rand()
	r.hop++
	ctx.Send(r.peers[rng.Intn(len(r.peers))], []byte{'m', payload[1], r.hop})
	switch rng.Intn(8) {
	case 0:
		ctx.SetTimer(0, 10)
	case 1:
		ctx.SetTimer(Time(rng.Int63n(int64(Second))), 11)
	case 2:
		ctx.SetTimer(5*Millisecond, 12)
		ctx.SetTimer(5*Millisecond, 13)
	}
}

func (r *mixReactor) Timer(ctx Context, tag uint64) {
	if tag == 3 {
		ctx.SetTimer(3*Second, 3)
	}
}

// addMixReactors adds processes 1..8 to e, each a mixReactor whose peers are
// the seven others.
func addMixReactors(t *testing.T, e *Engine) {
	t.Helper()
	for id := model.ID(1); id <= 8; id++ {
		var peers []model.ID
		for p := model.ID(1); p <= 8; p++ {
			if p != id {
				peers = append(peers, p)
			}
		}
		if err := e.AddProcess(id, &mixReactor{peers: peers}); err != nil {
			t.Fatal(err)
		}
	}
}

// mixDigest runs eight mixReactors under net for horizon and returns the
// trace digest and event count.
func mixDigest(t *testing.T, net NetworkModel, horizon Time) (string, int64) {
	t.Helper()
	e := NewEngine(net, 11)
	tr := NewTrace()
	e.SetTrace(tr)
	addMixReactors(t, e)
	e.Run(horizon)
	return tr.Digest(), tr.Events()
}

// TestQueueModelDigestsPinned pins, per network model, the trace digest the
// binary-heap engine produced for the same run before the event queue became
// a calendar queue. Equal digests mean every event was delivered in the same
// (at, seq) order, with the same payloads.
func TestQueueModelDigestsPinned(t *testing.T) {
	cases := []struct {
		name    string
		net     NetworkModel
		horizon Time
		digest  string
		events  int64
	}{
		{"sync", Synchronous{Delta: 5 * Millisecond}, 2 * Second, "9ff24a34d89f48ec9b554fd526dbd7475246519c0f116a019a9661393282c58c", 43842},
		{"partial-slow-before-gst", PartialSync{
			GST:   700 * Millisecond,
			Delta: 5 * Millisecond,
			Slow:  SlowBetweenGroups(model.NewIDSet(1, 2, 3, 4), model.NewIDSet(5, 6, 7, 8)),
		}, 2 * Second, "f23d3088a7e82d00c66d8081bc056e2debb66b5651ea66ae252c02bb56333b65", 28231},
		{"async-adversarial", AsyncAdversarial{Delta: 20 * Millisecond, Factor: 3}, 120 * Second, "64f6faddeace21b6a36b7a7d67dfb2439a956c1956e5e9334fb27b6f9983207a", 919},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			digest, events := mixDigest(t, tc.net, tc.horizon)
			if digest != tc.digest || events != tc.events {
				t.Fatalf("trace %s/%d, pinned %s/%d", digest, events, tc.digest, tc.events)
			}
		})
	}
}

// refEvent is the reference model's view of one pending event.
type refEvent struct {
	at  Time
	seq uint64
	tag uint64
}

// queueOracle pushes to and pops from an engine's queue, checking every pop
// against a reference sort on (at, seq).
type queueOracle struct {
	t   *testing.T
	e   *Engine
	ref []refEvent
	tag uint64
}

func (o *queueOracle) push(d Time) {
	at := o.e.now + d
	o.tag++
	o.e.q.push(&event{at: at, kind: evTimer, tag: o.tag})
	o.ref = append(o.ref, refEvent{at: at, seq: o.e.q.seq - 1, tag: o.tag})
}

func (o *queueOracle) pop() {
	o.t.Helper()
	sort.Slice(o.ref, func(i, j int) bool {
		if o.ref[i].at != o.ref[j].at {
			return o.ref[i].at < o.ref[j].at
		}
		return o.ref[i].seq < o.ref[j].seq
	})
	want := o.ref[0]
	o.ref = o.ref[1:]
	var ev event
	if !o.e.q.pop(math.MaxInt64, &ev) {
		o.t.Fatalf("queue empty, want tag %d at %d", want.tag, want.at)
	}
	if ev.tag != want.tag || ev.at != want.at || ev.seq != want.seq {
		o.t.Fatalf("popped tag %d (at %d, seq %d), want tag %d (at %d, seq %d)",
			ev.tag, ev.at, ev.seq, want.tag, want.at, want.seq)
	}
	o.e.now = ev.at
	if o.e.q.size() != len(o.ref) {
		o.t.Fatalf("queue holds %d events, reference %d", o.e.q.size(), len(o.ref))
	}
}

func (o *queueOracle) drain() {
	o.t.Helper()
	for len(o.ref) > 0 {
		o.pop()
	}
	var ev event
	if o.e.q.pop(math.MaxInt64, &ev) {
		o.t.Fatalf("queue still holds tag %d after the reference drained", ev.tag)
	}
}

// TestQueueOrderMatchesSort drives randomized push/pop interleavings through
// the engine's queue and checks that it delivers exactly the reference
// (at, seq) order: zero delays and many equal-time ties (FIFO within a tick),
// delays anywhere in and at the edge of the ring's window, and delays far
// beyond it, while popping moves the window past the far events.
func TestQueueOrderMatchesSort(t *testing.T) {
	const width = Time(1) << bucketShift
	const window = Time(ringSize) << bucketShift
	rng := rand.New(rand.NewSource(1))
	delays := []func() Time{
		func() Time { return 0 },
		func() Time { return Time(rng.Intn(3)) * width },
		func() Time { return Time(rng.Intn(4)) * Millisecond },
		func() Time { return Time(rng.Int63n(int64(window))) },
		func() Time { return window - 2 + Time(rng.Intn(4)) },
		func() Time { return window + Time(rng.Int63n(int64(3*window))) },
		func() Time { return Time(rng.Int63n(int64(30 * Second))) },
	}
	for round := 0; round < 40; round++ {
		o := &queueOracle{t: t, e: NewEngine(Synchronous{}, 1)}
		for step := 0; step < 3000; step++ {
			for n := rng.Intn(4); n > 0; n-- {
				o.push(delays[rng.Intn(len(delays))]())
			}
			for n := rng.Intn(4); n > 0 && len(o.ref) > 0; n-- {
				o.pop()
			}
		}
		o.drain()
	}
}

// TestQueueWindowPassesFarEvent pins the hand-off between the far heap and
// the ring: an event pushed two windows ahead stays in the heap while the
// window walks past its time, and must still pop after ring events due
// earlier, after an earlier-pushed ring event due at the same instant, and
// before a later-pushed one.
func TestQueueWindowPassesFarEvent(t *testing.T) {
	const window = Time(ringSize) << bucketShift
	o := &queueOracle{t: t, e: NewEngine(Synchronous{}, 1)}
	farAt := 2*window + 5*Millisecond
	o.push(farAt)
	for o.e.now+window/3 < farAt-window/2 {
		o.push(window / 3)
		o.pop()
	}
	// farAt now lies inside the window, with the far event still in the heap.
	o.push(farAt - o.e.now) // same instant, later seq: after the far event
	o.push(farAt - o.e.now - 1)
	o.push(0)
	o.drain()
}

// TestQueueResetReleasesBodies checks Reset with events pending in the ring
// and in the far heap: the queue is empty afterwards and every pooled body,
// shared broadcast buffers included, is back on the free list exactly once.
func TestQueueResetReleasesBodies(t *testing.T) {
	net := PartialSync{
		GST:   30 * Second,
		Delta: 5 * Millisecond,
		Slow:  SlowBetweenGroups(model.NewIDSet(1, 2, 3, 4), model.NewIDSet(5, 6, 7, 8)),
	}
	e := NewEngine(net, 5)
	addMixReactors(t, e)
	e.Run(12 * Millisecond)
	bodies := make(map[*msgBody]bool)
	for _, b := range e.bodyFree {
		bodies[b] = true
	}
	var msgs, farMsgs int
	for i := range e.q.slab {
		if b := e.q.slab[i].body; b != nil {
			bodies[b] = true
			msgs++
		}
	}
	for _, k := range e.q.far {
		if e.q.slab[k.slot].body != nil {
			farMsgs++
		}
	}
	if ringMsgs := msgs - farMsgs; ringMsgs == 0 || farMsgs == 0 {
		t.Fatalf("want messages pending in the ring and the far heap, have %d and %d", ringMsgs, farMsgs)
	}

	e.Reset(net, 5)
	if e.q.size() != 0 || len(e.q.slab) != 0 || len(e.q.far) != 0 {
		t.Fatalf("reset left %d events pending (slab %d, far %d)", e.q.size(), len(e.q.slab), len(e.q.far))
	}
	if len(e.bodyFree) != len(bodies) {
		t.Fatalf("free list holds %d bodies, want all %d", len(e.bodyFree), len(bodies))
	}
	for _, b := range e.bodyFree {
		if !bodies[b] || b.refs != 0 {
			t.Fatalf("free list holds body %p (refs %d) twice or from elsewhere", b, b.refs)
		}
		delete(bodies, b)
	}
}
