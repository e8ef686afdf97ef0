package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/bftcup/bftcup/internal/byz"
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/netrt"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// The traced harness rebuilds what scenario.Runner.Run and
// scenario.Compiled.RunLive build — engine or cluster, keys, one core.Node
// per correct process — with every seam wrapped. It covers what the
// benchmark's workloads use: correct nodes and silent Byzantine processes,
// no chaos faults. The digest check pins it to scenario.Runner cell by cell.

// grader tracks decisions the way both scenario runners grade them.
type grader struct {
	proposals      map[model.ID]model.Value
	correct        model.IDSet
	decisions      map[model.ID]model.Value
	conflicting    bool
	decidedCorrect int
}

func newGrader() *grader {
	return &grader{
		proposals: make(map[model.ID]model.Value),
		correct:   model.NewIDSet(),
		decisions: make(map[model.ID]model.Value),
	}
}

// decide records id's decision and reports whether it was the first.
func (g *grader) decide(id model.ID, v model.Value) bool {
	if prev, dup := g.decisions[id]; dup {
		if !prev.Equal(v) && g.correct.Has(id) {
			g.conflicting = true
		}
		return false
	}
	g.decisions[id] = v
	if g.correct.Has(id) {
		g.decidedCorrect++
	}
	return true
}

func (g *grader) allDecided() bool { return g.decidedCorrect == g.correct.Len() }

// consensus is termination ∧ agreement ∧ validity ∧ integrity.
func (g *grader) consensus() bool {
	if !g.allDecided() || g.conflicting {
		return false
	}
	var agreed model.Value
	first := true
	for id := range g.correct {
		v := g.decisions[id]
		if first {
			agreed, first = v, false
		} else if !agreed.Equal(v) {
			return false
		}
		proposed := false
		for _, p := range g.proposals {
			if p.Equal(v) {
				proposed = true
				break
			}
		}
		if !proposed {
			return false
		}
	}
	return true
}

// stack is the per-run wiring shared by the simulated and the live harness.
type stack struct {
	c       *scenario.Compiled
	signers map[model.ID]cryptox.Signer
	reg     cryptox.Verifier
	g       *grader
}

func newStack(c *scenario.Compiled, seed int64) (*stack, error) {
	if c.Faults.Enabled() || c.Insecure {
		return nil, fmt.Errorf("traced harness: cell %q uses fault injection or the insecure suite", c.Labels.IDFor(seed))
	}
	signers, reg, err := cryptox.Keyring(seed+1, c.Graph.Nodes())
	if err != nil {
		return nil, err
	}
	return &stack{c: c, signers: signers, reg: reg, g: newGrader()}, nil
}

// reactor builds id's wrapped reactor; onDecide runs after the grader saw a
// first decision.
func (s *stack) reactor(id model.ID, a *acc, disc discovery.Config, pbftTimeout, poll rt.Time, onDecide func(model.Value)) (rt.Reactor, error) {
	c := s.c
	value := model.Value(fmt.Sprintf("v%d", id))
	if v, ok := c.Values[id]; ok {
		value = v
	}
	s.g.proposals[id] = value
	bspec, isByz := c.Byz[id]
	switch {
	case isByz && bspec.Kind == scenario.ByzSilent:
		return wrapReactor(byz.Silent{}, a), nil
	case isByz && bspec.Kind != scenario.ByzAsCorrect:
		return nil, fmt.Errorf("traced harness: byzantine kind %v is not covered", bspec.Kind)
	}
	if !isByz {
		s.g.correct.Add(id)
	}
	cfg := core.Config{
		Mode:        c.Mode,
		F:           c.F,
		PD:          c.Graph.OutSet(id).Clone(),
		Proposal:    value,
		Discovery:   disc,
		PBFTTimeout: pbftTimeout,
		PollPeriod:  poll,
		Hardened:    c.Hardened,
	}
	if c.Mode != core.ModePermissioned {
		cfg.Searcher = &tracedSearch{inner: kosr.NewSearcher(), acc: a}
	}
	signer := &tracedSigner{inner: s.signers[id], acc: a}
	verifier := &tracedVerifier{inner: s.reg, acc: a}
	n := core.NewNode(signer, verifier, cfg, onDecide)
	return wrapReactor(n, a), nil
}

// simCell is one traced simulator cell.
type simCell struct {
	consensus bool
	digest    string
	runUntil  time.Duration
	messages  int64
	bytes     int64
}

// runSimCell runs one compiled cell on the simulator with every seam timed
// into a. With digest set it also records the sim.Trace digest, exactly as
// scenario.Runner does with trace on.
func runSimCell(c *scenario.Compiled, seed int64, a *acc, digest bool) (simCell, error) {
	s, err := newStack(c, seed)
	if err != nil {
		return simCell{}, err
	}
	engine := sim.NewEngine(c.Net, seed)
	var tr *sim.Trace
	if digest {
		tr = sim.NewTrace()
		engine.SetTrace(tr)
	}
	for _, id := range c.Graph.Nodes() {
		id := id
		r, err := s.reactor(id, a, c.Discovery, c.PBFTTimeout, c.PollPeriod, func(v model.Value) {
			if s.g.decide(id, v) && tr != nil {
				tr.RecordDecision(id, engine.Now(), []byte(v))
			}
		})
		if err != nil {
			return simCell{}, err
		}
		if err := engine.AddProcess(id, r); err != nil {
			return simCell{}, err
		}
	}
	start := time.Now()
	if engine.RunUntil(s.g.allDecided, c.Horizon) {
		// scenario.Runner lets decisions propagate one more virtual second.
		engine.RunUntil(func() bool { return false }, min(engine.Now()+sim.Second, c.Horizon))
	}
	out := simCell{consensus: s.g.consensus(), runUntil: time.Since(start)}
	if tr != nil {
		out.digest = tr.Digest()
	}
	m := engine.Metrics()
	out.messages, out.bytes = m.Messages, m.Bytes
	return out, nil
}

// liveDelay maps the compiled network model onto netrt's per-message delay
// hook the way RunLive does: virtual now and delays scaled by the live
// scale, one locked RNG shared by all senders.
type liveDelay struct {
	mu    sync.Mutex
	rng   *rand.Rand
	net   sim.NetworkModel
	scale int64
}

func (l *liveDelay) delay(from, to model.ID, now rt.Time) rt.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.net.Delay(from, to, now*rt.Time(l.scale), l.rng)
	if d < 0 {
		d = 0
	}
	return d / rt.Time(l.scale)
}

// liveRound is one traced cluster round.
type liveRound struct {
	consensus bool
	boot      time.Duration
	messages  int64
	bytes     int64
}

// runLiveRound boots the compiled cell as a localhost TCP cluster through
// netrt.NewCluster with the durations RunLive uses, every seam of node id
// timed into accs[id], and grades it like RunLive.
func runLiveRound(c *scenario.Compiled, seed, scale int64, accs map[model.ID]*acc) (liveRound, error) {
	s, err := newStack(c, seed)
	if err != nil {
		return liveRound{}, err
	}
	disc, pbftTimeout, poll := c.LiveDurations(scale)
	var mu sync.Mutex
	done := make(chan struct{})
	reactors := make(map[model.ID]rt.Reactor)
	ids := c.Graph.Nodes()
	for _, id := range ids {
		id := id
		r, err := s.reactor(id, accs[id], disc, pbftTimeout, poll, func(v model.Value) {
			mu.Lock()
			defer mu.Unlock()
			if s.g.decide(id, v) && s.g.correct.Has(id) && s.g.allDecided() {
				close(done)
			}
		})
		if err != nil {
			return liveRound{}, err
		}
		reactors[id] = r
	}
	ld := &liveDelay{rng: rand.New(rand.NewSource(seed)), net: c.Net, scale: scale}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t0 := time.Now()
	cluster, err := netrt.NewCluster(ctx, ids, func(id model.ID) rt.Reactor { return reactors[id] }, netrt.ClusterConfig{
		Transport: "tcp",
		Seed:      seed,
		Delay:     ld.delay,
	})
	if err != nil {
		return liveRound{}, err
	}
	out := liveRound{boot: time.Since(t0)}
	select {
	case <-done:
		// RunLive's one extra virtual second, scaled.
		time.Sleep(time.Duration(int64(sim.Second) / scale))
	case <-time.After(time.Duration(int64(c.Horizon) / scale)):
	}
	cluster.Stop()
	mu.Lock()
	out.consensus = s.g.consensus()
	mu.Unlock()
	out.messages, out.bytes = cluster.Messages(), cluster.Bytes()
	return out, nil
}
