package main

import (
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// The traced run times calls into each layer from the outside: wrappers at
// the seams the program already exposes (rt.Reactor / rt.Context,
// kosr.Search, cryptox.Verifier + BatchVerifier, cryptox.Signer) open a span
// around every call and hand it to an accumulator. Nothing inside the
// program changes, so a wrapped run is the real run plus clock reads.

// layer names one span kind. A span's self time is its duration minus the
// time covered by the spans nested in it.
type layer int

const (
	// layerRuntime is ctx.Send and ctx.SetTimer: work the runtime (the
	// simulator, or netrt on a live cluster) does on a reactor's behalf.
	layerRuntime     layer = iota
	layerDiscovery         // Receive of GETPDS / SETPDS
	layerPBFT              // Receive of PBFT kinds 3–8
	layerCoreDecided       // Receive of GETDECIDEDVAL / DECIDEDVAL
	layerCoreTimer         // Init, Timer and Restart callbacks
	layerKosr              // kosr.Search calls
	layerVerify            // cryptox.Verifier calls (single and batch)
	layerSign              // cryptox.Signer.Sign
	numLayers
)

// acc accumulates spans for one node. Callbacks of one node never overlap —
// the rt contract serializes them on both runtimes — so an accumulator needs
// no lock as long as every wrapper of a node shares that node's accumulator
// and nothing else does.
type acc struct {
	self  [numLayers]time.Duration
	calls [numLayers]int64
	// child is the time covered by finished spans nested in the open span.
	child time.Duration
	// callbacks is the summed duration of top-level reactor callbacks.
	callbacks time.Duration

	verifies    int64 // signatures asked about, batch requests counted singly
	searches    int64
	found       int64
	recordsIn   int64 // SETPDS records received (from the payload header)
	recordsNew  int64 // growth of the receiver's S_PD across SETPDS handling
	viewChanges int64 // VIEW-CHANGE messages received
}

// begin opens a span and returns what end needs to close it.
func (a *acc) begin() (time.Time, time.Duration) {
	saved := a.child
	a.child = 0
	return time.Now(), saved
}

// end closes a span of layer l and returns its duration.
func (a *acc) end(l layer, start time.Time, saved time.Duration) time.Duration {
	d := time.Since(start)
	a.self[l] += d - a.child
	a.calls[l]++
	a.child = saved + d
	return d
}

// add folds another accumulator's totals into a.
func (a *acc) add(b *acc) {
	for l := range a.self {
		a.self[l] += b.self[l]
		a.calls[l] += b.calls[l]
	}
	a.callbacks += b.callbacks
	a.verifies += b.verifies
	a.searches += b.searches
	a.found += b.found
	a.recordsIn += b.recordsIn
	a.recordsNew += b.recordsNew
	a.viewChanges += b.viewChanges
}

// layerOf classifies a received payload by its kind byte.
func layerOf(payload []byte) layer {
	if len(payload) == 0 {
		return layerCoreDecided
	}
	switch payload[0] {
	case wire.KindGetPDs, wire.KindSetPDs:
		return layerDiscovery
	case wire.KindPrePrepare, wire.KindPrepare, wire.KindCommit,
		wire.KindViewChange, wire.KindNewView, wire.KindDecideNote:
		return layerPBFT
	default:
		return layerCoreDecided
	}
}

// setPDsRecords reads the record count from a SETPDS header.
func setPDsRecords(payload []byte) int64 {
	rd := wire.NewReader(payload[1:])
	n := rd.Uvarint()
	if rd.Err() != nil {
		return 0
	}
	return int64(n)
}

// tracedCtx wraps the runtime's context for one node. The wrapper is reused
// across that node's callbacks; Context is refreshed on every callback.
type tracedCtx struct {
	rt.Context
	acc *acc
}

func (c *tracedCtx) Send(to model.ID, payload []byte) {
	t, s := c.acc.begin()
	c.Context.Send(to, payload)
	c.acc.end(layerRuntime, t, s)
}

func (c *tracedCtx) SetTimer(d rt.Time, tag uint64) {
	t, s := c.acc.begin()
	c.Context.SetTimer(d, tag)
	c.acc.end(layerRuntime, t, s)
}

// tracedReactor wraps one node's reactor.
type tracedReactor struct {
	inner rt.Reactor
	node  *core.Node // the inner reactor when it is a correct node, for its view
	acc   *acc
	ctx   tracedCtx
}

// tracedRestartable is a tracedReactor whose inner reactor implements
// rt.Restartable. The runtimes type-assert reactors for Restart, so the
// wrapper must offer it exactly when the inner reactor does.
type tracedRestartable struct{ *tracedReactor }

// wrapReactor wraps r so that all its callbacks are timed into a.
func wrapReactor(r rt.Reactor, a *acc) rt.Reactor {
	tr := &tracedReactor{inner: r, acc: a}
	tr.ctx.acc = a
	tr.node, _ = r.(*core.Node)
	if _, ok := r.(rt.Restartable); ok {
		return tracedRestartable{tr}
	}
	return tr
}

// pdLen is the size of the node's S_PD (0 for reactors without a view).
func (r *tracedReactor) pdLen() int64 {
	if r.node == nil {
		return 0
	}
	v := r.node.View()
	if v == nil {
		return 0
	}
	return int64(len(v.PD))
}

func (r *tracedReactor) Init(ctx rt.Context) {
	r.ctx.Context = ctx
	t, s := r.acc.begin()
	r.inner.Init(&r.ctx)
	r.acc.callbacks += r.acc.end(layerCoreTimer, t, s)
}

func (r *tracedReactor) Receive(ctx rt.Context, from model.ID, payload []byte) {
	r.ctx.Context = ctx
	l := layerOf(payload)
	var before int64
	switch {
	case l == layerDiscovery:
		if payload[0] == wire.KindSetPDs {
			r.acc.recordsIn += setPDsRecords(payload)
		}
		before = r.pdLen()
	case l == layerPBFT && payload[0] == wire.KindViewChange:
		r.acc.viewChanges++
	}
	t, s := r.acc.begin()
	r.inner.Receive(&r.ctx, from, payload)
	r.acc.callbacks += r.acc.end(l, t, s)
	if l == layerDiscovery {
		r.acc.recordsNew += r.pdLen() - before
	}
}

func (r *tracedReactor) Timer(ctx rt.Context, tag uint64) {
	r.ctx.Context = ctx
	t, s := r.acc.begin()
	r.inner.Timer(&r.ctx, tag)
	r.acc.callbacks += r.acc.end(layerCoreTimer, t, s)
}

func (r tracedRestartable) Restart(ctx rt.Context) {
	r.ctx.Context = ctx
	t, s := r.acc.begin()
	r.inner.(rt.Restartable).Restart(&r.ctx)
	r.acc.callbacks += r.acc.end(layerCoreTimer, t, s)
}

// tracedVerifier wraps the signature registry for one node. It implements
// cryptox.BatchVerifier so cryptox.VerifyBatch keeps taking the batch path
// when the inner verifier has one.
type tracedVerifier struct {
	inner cryptox.Verifier
	acc   *acc
}

func (v *tracedVerifier) Verify(signer model.ID, msg, sig []byte) bool {
	t, s := v.acc.begin()
	ok := v.inner.Verify(signer, msg, sig)
	v.acc.end(layerVerify, t, s)
	v.acc.verifies++
	return ok
}

func (v *tracedVerifier) VerifyBatch(reqs []cryptox.BatchRequest) []bool {
	t, s := v.acc.begin()
	out := cryptox.VerifyBatch(v.inner, reqs)
	v.acc.end(layerVerify, t, s)
	v.acc.verifies += int64(len(reqs))
	return out
}

// tracedSigner wraps one node's signer.
type tracedSigner struct {
	inner cryptox.Signer
	acc   *acc
}

func (s *tracedSigner) ID() model.ID { return s.inner.ID() }

func (s *tracedSigner) Sign(msg []byte) []byte {
	t, sv := s.acc.begin()
	sig := s.inner.Sign(msg)
	s.acc.end(layerSign, t, sv)
	return sig
}

// tracedSearch wraps one node's sink/core search engine.
type tracedSearch struct {
	inner kosr.Search
	acc   *acc
}

func (s *tracedSearch) record(ok bool) {
	s.acc.searches++
	if ok {
		s.acc.found++
	}
}

func (s *tracedSearch) FindSinkKnownF(v *kosr.View, f int) (kosr.Candidate, bool) {
	t, sv := s.acc.begin()
	c, ok := s.inner.FindSinkKnownF(v, f)
	s.acc.end(layerKosr, t, sv)
	s.record(ok)
	return c, ok
}

func (s *tracedSearch) FindCore(v *kosr.View) (kosr.Candidate, bool) {
	t, sv := s.acc.begin()
	c, ok := s.inner.FindCore(v)
	s.acc.end(layerKosr, t, sv)
	s.record(ok)
	return c, ok
}

func (s *tracedSearch) FindNaive(v *kosr.View) (kosr.Candidate, bool) {
	t, sv := s.acc.begin()
	c, ok := s.inner.FindNaive(v)
	s.acc.end(layerKosr, t, sv)
	s.record(ok)
	return c, ok
}
