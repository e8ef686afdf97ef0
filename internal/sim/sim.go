// Package sim is a deterministic discrete-event simulator for message-passing
// protocols. Processes are Reactors driven by three callbacks (Init, Receive,
// Timer); the engine owns a virtual clock, a seeded RNG and a network model
// that assigns per-message delivery delays. Identical seeds and inputs yield
// identical traces, which the experiments and benchmarks rely on.
//
// The network models implement the paper's three communication assumptions:
// synchronous, partially synchronous (explicit GST and δ, with optional slow
// link classes used to build the Theorem 7 indistinguishability schedules)
// and an adversarial asynchronous scheduler whose delays grow with time,
// exhibiting the non-termination that [24] proves unavoidable.
//
// # Hot path
//
// The engine is written to be allocation-free in steady state. Events live
// by value in the slab of a calendar queue (queue.go): a ring of fine time
// buckets holds the near future and a binary heap of small keys the far
// tail, and delivery is exactly in (at, seq) order. Message bodies are
// reference-counted buffers drawn from a per-engine free list, and
// consecutive sends of byte-identical payloads — the broadcast pattern
// every protocol layer uses — share one interned buffer instead of copying
// per recipient. The RNG behind Context.Rand and
// NetworkModel.Delay is a splitmix64 source wrapped in math/rand, a few
// nanoseconds per draw with no per-engine table allocation.
//
// The zero-copy delivery contract: the payload slice passed to
// Reactor.Receive is only valid for the duration of the callback. A reactor
// that buffers a payload for later must copy it first (forwarding it to
// Context.Send within the callback is fine — the engine re-interns it).
package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// The runtime abstraction (Time, Reactor, Context, Restartable) lives in
// internal/rt; the engine is one implementation of it. The aliases below keep
// the historical sim.* names working — they are the same types, so the engine
// and every reactor written against rt interoperate with zero conversion.

// Time is virtual nanoseconds since the start of the run.
type Time = rt.Time

// Convenient virtual durations.
const (
	Microsecond = rt.Microsecond
	Millisecond = rt.Millisecond
	Second      = rt.Second
)

// Reactor is a deterministic, single-threaded protocol state machine. The
// engine never calls a reactor concurrently.
type Reactor = rt.Reactor

// Context is the runtime-side interface a reactor uses to act on the world.
// The engine's implementation copies (or interns, for repeated broadcasts of
// identical bytes) every Send payload, and silently drops sends to unknown or
// crashed processes.
type Context = rt.Context

// NetworkModel assigns a delivery delay to each message.
type NetworkModel interface {
	// Delay is called once per message at send time.
	Delay(from, to model.ID, now Time, rng *rand.Rand) Time
}

// Metrics accumulates network counters for the experiment tables.
type Metrics struct {
	// Messages counts every accepted Send.
	Messages int64
	// Bytes totals the payload bytes of every accepted Send.
	Bytes int64
	// byKind counts messages per leading payload byte (the wire kind).
	// An array, not a map: the per-message increment is on the hot path.
	byKind [256]int64
}

// KindCount returns how many messages carried the given leading kind byte.
func (m *Metrics) KindCount(k byte) int64 { return m.byKind[k] }

// ByKind returns a snapshot of the per-kind message counts (only kinds with
// at least one message appear).
func (m *Metrics) ByKind() map[byte]int64 {
	out := make(map[byte]int64)
	for k, v := range m.byKind {
		if v != 0 {
			out[byte(k)] = v
		}
	}
	return out
}

type eventKind uint8

const (
	evMessage eventKind = iota
	evTimer
	evCrash
	evRestart
)

// msgBody is a reference-counted payload buffer. Bodies are recycled through
// the engine's free list once every referencing event has been delivered, so
// the steady-state message path allocates nothing; refcounts let repeated
// sends of identical bytes (broadcasts) share one buffer.
type msgBody struct {
	data []byte
	refs int32
}

// event is one scheduled delivery. Events are stored by value in the event
// queue's slab — no per-event allocation — and carry the resolved *proc
// (the recipient, or the process whose timer or control point it is) so
// delivery needs no map lookup.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	kind eventKind
	gen  uint32   // evTimer: the target's incarnation at scheduling time
	next int32    // the event queue's bucket chain
	from model.ID // evMessage
	tgt  *proc
	body *msgBody // evMessage
	tag  uint64   // evTimer; evCrash/evRestart: index into Engine.controls
}

// Engine drives a set of reactors over a virtual clock.
type Engine struct {
	now   Time
	q     eventQueue
	procs map[model.ID]*proc
	order []model.ID
	net   NetworkModel
	// injector is net's FaultInjector view, cached so the zero-fault send
	// path pays one nil check instead of a per-message type assertion.
	injector FaultInjector
	rng      *rand.Rand
	metrics  *Metrics
	trace    *Trace
	started  bool

	// bodyFree recycles payload buffers; lastBody interns the most recent one
	// so broadcast loops sending identical bytes share a single buffer.
	bodyFree []*msgBody
	lastBody *msgBody

	// preCrashed holds Crash marks issued before AddProcess.
	preCrashed model.IDSet

	// controls are scheduled crash/restart points, pushed as events at start.
	controls []control
}

// control is one scheduled crash or restart (the churn schedule). Controls
// registered before start are resolved and pushed as events when the run
// begins; controls naming IDs that were never added are ignored.
type control struct {
	at          Time
	id          model.ID
	restart     bool
	replacement Reactor // restart only: non-nil swaps the reactor (wiped state)
}

type proc struct {
	id      model.ID
	reactor Reactor
	ctx     *procCtx
	crashed bool
	// gen is the incarnation number, bumped at every crash. Timer events
	// carry the gen they were scheduled under and are dropped on mismatch:
	// a process's pending timers die with it, while in-flight messages —
	// which live in the network, not the process — survive a restart.
	gen uint32
}

// Restartable is an optional Reactor extension for processes that can resume
// from persisted state after a crash. A scheduled restart without a
// replacement reactor calls Restart (falling back to Init when the reactor
// does not implement it); the reactor re-arms whatever timers it needs —
// pending timers from before the crash are gone.
type Restartable = rt.Restartable

// NewEngine creates an engine with the given network model and seed.
func NewEngine(net NetworkModel, seed int64) *Engine {
	inj, _ := net.(FaultInjector)
	e := &Engine{
		procs:    make(map[model.ID]*proc),
		net:      net,
		injector: inj,
		rng:      newRand(seed),
		metrics:  &Metrics{},
	}
	e.q.init()
	return e
}

// Reset returns the engine to its just-constructed state under a new network
// model and seed, retaining the capacity of the event queue, the payload
// buffer pool and the process map — the allocations a fresh NewEngine would
// repeat. A sweep worker running thousands of cells resets one engine
// instead of constructing one per cell; a reset engine is indistinguishable
// from a new one (pinned by the scenario-level cached-vs-uncached
// fingerprint tests).
func (e *Engine) Reset(net NetworkModel, seed int64) {
	// Free slab slots are zeroed, so they read as messages with no body.
	for i := range e.q.slab {
		if ev := &e.q.slab[i]; ev.kind == evMessage {
			e.releaseBody(ev.body)
		}
	}
	e.q.clear()
	clear(e.procs)
	e.order = e.order[:0]
	e.now = 0
	e.net = net
	e.injector, _ = net.(FaultInjector)
	e.rng = newRand(seed)
	*e.metrics = Metrics{}
	e.trace = nil
	e.started = false
	e.lastBody = nil
	e.preCrashed = nil
	e.controls = e.controls[:0]
}

// Metrics returns the accumulated network counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// AddProcess registers a reactor under an ID. Must be called before Run.
func (e *Engine) AddProcess(id model.ID, r Reactor) error {
	if e.started {
		return fmt.Errorf("sim: AddProcess(%v) after start", id)
	}
	if _, dup := e.procs[id]; dup {
		return fmt.Errorf("sim: duplicate process %v", id)
	}
	p := &proc{id: id, reactor: r}
	p.ctx = &procCtx{engine: e, proc: p}
	if e.preCrashed.Has(id) {
		p.crashed = true
	}
	e.procs[id] = p
	e.order = append(e.order, id)
	return nil
}

// Crash stops delivering events to and from the given process. It may be
// called before the process is added; the mark is applied at registration.
func (e *Engine) Crash(id model.ID) {
	if p, ok := e.procs[id]; ok {
		p.crashed = true
		p.gen++
		return
	}
	if e.preCrashed == nil {
		e.preCrashed = model.NewIDSet()
	}
	e.preCrashed.Add(id)
}

// ScheduleCrash crashes the process at virtual time at. The process runs
// normally (including Init) until then; messages in flight to it at the
// moment of the crash are dropped at delivery time, and its pending timers
// die with it. Must be called before the run starts.
func (e *Engine) ScheduleCrash(id model.ID, at Time) {
	e.controls = append(e.controls, control{at: at, id: id})
}

// ScheduleRestart revives a crashed process at virtual time at. With a nil
// replacement the process resumes with its state persisted: the original
// reactor's Restart is called (Init, if it does not implement Restartable).
// A non-nil replacement models a wiped restart — the process comes back as a
// fresh reactor (same ID, empty state) and replacement.Init runs. Either
// way, in-flight messages sent before the crash that arrive after the
// restart are delivered; timers from the previous incarnation are not.
// Must be called before the run starts. Restarting a live process is a
// no-op.
func (e *Engine) ScheduleRestart(id model.ID, at Time, replacement Reactor) {
	e.controls = append(e.controls, control{at: at, id: id, restart: true, replacement: replacement})
}

func (e *Engine) start() {
	if e.started {
		return
	}
	e.started = true
	// Control events go in first: at equal times a crash/restart precedes
	// the messages and timers scheduled by Init (deterministic either way;
	// this order is the documented one).
	for i := range e.controls {
		ctl := &e.controls[i]
		p, ok := e.procs[ctl.id]
		if !ok {
			continue
		}
		kind := evCrash
		if ctl.restart {
			kind = evRestart
		}
		e.q.push(&event{at: ctl.at, kind: kind, tgt: p, tag: uint64(i)})
	}
	sort.Slice(e.order, func(i, j int) bool { return e.order[i] < e.order[j] })
	for _, id := range e.order {
		p := e.procs[id]
		if !p.crashed {
			p.reactor.Init(p.ctx)
		}
	}
}

// Step processes the next event. It returns false when the event queue is
// empty.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// step processes the next event if it is due by horizon, and reports
// whether it did. Only the first event popped is held to horizon: when it
// is dropped (a crashed target, a stale timer), the events popped after it
// in the same step are not, which is the order every pinned trace and
// fingerprint was recorded with.
func (e *Engine) step(horizon Time) bool {
	e.start()
	var ev event
	for {
		if !e.q.pop(horizon, &ev) {
			return false
		}
		horizon = math.MaxInt64
		e.now = ev.at
		switch ev.kind {
		case evMessage:
			if ev.tgt.crashed {
				e.releaseBody(ev.body)
				continue
			}
			if e.trace != nil {
				e.trace.record(&ev)
			}
			ev.tgt.reactor.Receive(ev.tgt.ctx, ev.from, ev.body.data)
			e.releaseBody(ev.body)
		case evTimer:
			// A stale gen means the timer was set by a previous incarnation:
			// pending timers die with a crash, even if the process restarts
			// before they would have fired.
			if ev.tgt.crashed || ev.gen != ev.tgt.gen {
				continue
			}
			if e.trace != nil {
				e.trace.record(&ev)
			}
			ev.tgt.reactor.Timer(ev.tgt.ctx, ev.tag)
		case evCrash:
			if e.trace != nil {
				e.trace.record(&ev)
			}
			if !ev.tgt.crashed {
				ev.tgt.crashed = true
				ev.tgt.gen++
			}
		case evRestart:
			if e.trace != nil {
				e.trace.record(&ev)
			}
			if p := ev.tgt; p.crashed {
				p.crashed = false
				if repl := e.controls[ev.tag].replacement; repl != nil {
					p.reactor = repl
					p.reactor.Init(p.ctx)
				} else if r, ok := p.reactor.(Restartable); ok {
					r.Restart(p.ctx)
				} else {
					p.reactor.Init(p.ctx)
				}
			}
		}
		return true
	}
}

// RunUntil processes events until cond() holds (checked after every event),
// the horizon passes, or the queue drains. It reports whether cond was met.
func (e *Engine) RunUntil(cond func() bool, horizon Time) bool {
	e.start()
	if cond() {
		return true
	}
	for e.step(horizon) {
		if cond() {
			return true
		}
	}
	if e.q.size() > 0 {
		return false // the next event lies beyond the horizon
	}
	return cond()
}

// Run processes events until the horizon passes or the queue drains.
func (e *Engine) Run(horizon Time) {
	e.RunUntil(func() bool { return false }, horizon)
}

// acquireBody returns a buffer holding a copy of payload. Consecutive
// acquisitions of byte-identical payloads (broadcast fan-out) share one
// interned buffer via its refcount instead of copying per recipient.
func (e *Engine) acquireBody(payload []byte) *msgBody {
	if lb := e.lastBody; lb != nil && bytes.Equal(lb.data, payload) {
		lb.refs++
		return lb
	}
	var b *msgBody
	if n := len(e.bodyFree); n > 0 {
		b = e.bodyFree[n-1]
		e.bodyFree[n-1] = nil
		e.bodyFree = e.bodyFree[:n-1]
	} else {
		b = &msgBody{}
	}
	b.data = append(b.data[:0], payload...)
	b.refs = 1
	e.lastBody = b
	return b
}

// releaseBody returns a buffer to the free list once its last referencing
// event has been delivered (or dropped).
func (e *Engine) releaseBody(b *msgBody) {
	if b == nil {
		return
	}
	if b.refs--; b.refs > 0 {
		return
	}
	if e.lastBody == b {
		// The buffer is about to be rewritten by its next user; it must no
		// longer satisfy intern hits.
		e.lastBody = nil
	}
	e.bodyFree = append(e.bodyFree, b)
}

// procCtx implements Context for one process.
type procCtx struct {
	engine *Engine
	proc   *proc
}

func (c *procCtx) ID() model.ID     { return c.proc.id }
func (c *procCtx) Now() Time        { return c.engine.now }
func (c *procCtx) Rand() *rand.Rand { return c.engine.rng }

func (c *procCtx) Send(to model.ID, payload []byte) {
	e := c.engine
	if c.proc.crashed {
		return
	}
	tgt, ok := e.procs[to]
	if !ok || tgt.crashed || to == c.proc.id {
		return
	}
	m := e.metrics
	m.Messages++
	m.Bytes += int64(len(payload))
	if len(payload) > 0 {
		m.byKind[payload[0]]++
	}
	// Metrics count the send attempt; fault injection decides what the
	// network delivers. 0 copies = dropped/severed, 2 = duplicated. Each
	// copy gets its own delay draw (duplicates may arrive out of order);
	// the interned body is shared between copies.
	copies := 1
	if e.injector != nil {
		copies = e.injector.Copies(c.proc.id, to, e.now, e.rng)
		if copies <= 0 {
			return
		}
	}
	for i := 0; i < copies; i++ {
		d := e.net.Delay(c.proc.id, to, e.now, e.rng)
		if d < 0 {
			d = 0
		}
		e.q.push(&event{at: e.now + d, kind: evMessage, from: c.proc.id, tgt: tgt, body: e.acquireBody(payload)})
	}
}

func (c *procCtx) SetTimer(d Time, tag uint64) {
	if d < 0 {
		d = 0
	}
	e := c.engine
	e.q.push(&event{at: e.now + d, kind: evTimer, tgt: c.proc, tag: tag, gen: c.proc.gen})
}
