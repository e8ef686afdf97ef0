package bftcup

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/netrt"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/sim"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SystemConfig assembles a live run of the protocol stack on the netrt
// runtime: every started process is one netrt node with its own event-loop
// goroutine and wall-clock timers, linked to every other started process by
// net.Pipe streams.
//
// Sends are fire-and-forget. Each link has an outbound queue of 1024
// messages, and a send that finds it full is dropped (Messages and Bytes
// still count it). A pipe link drains as fast as the receiving node's reader
// goroutine takes frames off it, so the queue fills only when a sender gets
// 1024 messages ahead of that reader, or sends that many before the link is
// first up.
type SystemConfig struct {
	// Topology is the knowledge connectivity graph; each started process
	// uses its out-list as its participant detector.
	Topology Topology
	// Protocol selects the committee-identification rule.
	Protocol Protocol
	// F is the fault threshold handed to processes (ProtocolBFTCUP and
	// ProtocolPermissioned only).
	F int
	// Exclude lists processes that exist in the topology but are never
	// started — the standard way to model silent Byzantine processes.
	Exclude []ID
	// Proposals maps processes to their proposed values; missing entries
	// default to "v<id>".
	Proposals map[ID]Value
	// Blocks is the number of chained decisions over the bootstrapped
	// committee (default 1: classic one-shot consensus).
	Blocks int
	// ProposalFor overrides per-block proposals in chained mode.
	ProposalFor func(id ID, block int) Value
	// Latency optionally injects artificial per-link delay: each message is
	// held back by Latency(from, to) before it enters the link's queue.
	Latency func(from, to ID) time.Duration
	// DiscoveryPeriod, ConsensusTimeout and PollPeriod tune the protocol
	// timers (sane defaults when zero).
	DiscoveryPeriod time.Duration
	// ConsensusTimeout is the committee protocol's base view timeout.
	ConsensusTimeout time.Duration
	// PollPeriod is the non-member decided-value polling interval.
	PollPeriod time.Duration
	// KeySeed seeds deterministic key generation.
	KeySeed int64
}

// Decision is one decided block at one process.
type Decision struct {
	// Process decided Value for chained block number Block.
	Process ID
	Block   int
	Value   Value
}

// System is a running live network of BFT-CUP/BFT-CUPFT processes.
type System struct {
	latency func(from, to ID) time.Duration
	nodes   map[ID]rt.Reactor
	started []ID

	lifeMu  sync.Mutex // guards cluster and stopped
	cluster *netrt.Cluster
	stopped bool

	mu         sync.Mutex
	decisions  map[ID]map[int]Value
	committees map[ID][]ID
	remaining  int
	done       chan struct{}
	events     chan Decision
}

// NewSystem builds a live system. Call Start to run it and Stop to shut it
// down; Stop must always be called, typically via defer.
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Topology) == 0 {
		return nil, fmt.Errorf("bftcup: empty topology")
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1
	}
	if cfg.DiscoveryPeriod <= 0 {
		cfg.DiscoveryPeriod = 10 * time.Millisecond
	}
	if cfg.ConsensusTimeout <= 0 {
		cfg.ConsensusTimeout = 250 * time.Millisecond
	}
	if cfg.PollPeriod <= 0 {
		cfg.PollPeriod = 20 * time.Millisecond
	}
	g := cfg.Topology.graph()
	all := g.Nodes()
	signers, registry, err := cryptox.GenerateKeys(cfg.KeySeed+1, all)
	if err != nil {
		return nil, fmt.Errorf("bftcup: %w", err)
	}
	excluded := model.NewIDSet(cfg.Exclude...)

	mode, err := cfg.Protocol.mode()
	if err != nil {
		return nil, err
	}

	s := &System{
		latency:    cfg.Latency,
		nodes:      make(map[ID]rt.Reactor),
		decisions:  make(map[ID]map[int]Value),
		committees: make(map[ID][]ID),
		done:       make(chan struct{}),
		events:     make(chan Decision, 1024),
	}
	for _, id := range all {
		if excluded.Has(id) {
			continue
		}
		id := id
		proposal := Value(fmt.Sprintf("v%d", id))
		if v, ok := cfg.Proposals[id]; ok {
			proposal = v
		}
		nodeCfg := core.Config{
			Mode:        mode,
			F:           cfg.F,
			PD:          g.OutSet(id).Clone(),
			Proposal:    proposal,
			PBFTTimeout: sim.Time(cfg.ConsensusTimeout),
			PollPeriod:  sim.Time(cfg.PollPeriod),
			Slots:       uint64(cfg.Blocks),
		}
		nodeCfg.Discovery.Period = sim.Time(cfg.DiscoveryPeriod)
		if cfg.ProposalFor != nil {
			nodeCfg.ProposalFor = func(slot uint64) Value { return cfg.ProposalFor(id, int(slot)) }
		}
		var node *core.Node
		nodeCfg.OnSlotDecided = func(slot uint64, v Value) {
			s.recordDecision(node, id, int(slot), v)
		}
		node = core.NewNode(signers[id], registry, nodeCfg, nil)
		s.nodes[id] = node
		s.started = append(s.started, id)
		s.decisions[id] = make(map[int]Value)
	}
	if len(s.started) == 0 {
		return nil, fmt.Errorf("bftcup: every process excluded")
	}
	sortIDs(s.started)
	s.remaining = len(s.started) * cfg.Blocks
	return s, nil
}

// recordDecision runs on the deciding node's goroutine.
func (s *System) recordDecision(node *core.Node, id ID, block int, v Value) {
	s.mu.Lock()
	if _, dup := s.decisions[id][block]; dup {
		s.mu.Unlock()
		return
	}
	s.decisions[id][block] = v
	if cand, ok := node.Committee(); ok {
		s.committees[id] = cand.Members().Sorted()
	}
	s.remaining--
	finished := s.remaining == 0
	s.mu.Unlock()
	select {
	case s.events <- Decision{Process: id, Block: block, Value: v}:
	default: // observers that do not drain must not block consensus
	}
	if finished {
		close(s.done)
	}
}

// Start launches the network. It is idempotent and does nothing once Stop
// has been called.
func (s *System) Start() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.cluster != nil || s.stopped {
		return
	}
	cc := netrt.ClusterConfig{Transport: "pipe"}
	if latency := s.latency; latency != nil {
		cc.Delay = func(from, to model.ID, _ rt.Time) rt.Time { return rt.Time(latency(from, to)) }
	}
	c, err := netrt.NewCluster(context.Background(), s.started,
		func(id model.ID) rt.Reactor { return s.nodes[id] }, cc)
	if err != nil {
		// A pipe cluster opens no listener, so NewCluster cannot fail here.
		panic(err)
	}
	s.cluster = c
}

// Stop shuts the network down and joins every goroutine. Idempotent, and
// safe to call before Start.
func (s *System) Stop() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.stopped = true
	if s.cluster != nil {
		s.cluster.Stop()
	}
}

// Events returns a stream of decisions (best-effort: if the consumer lags,
// events are dropped from the stream but still recorded in Decisions).
func (s *System) Events() <-chan Decision { return s.events }

// WaitAll blocks until every started process has decided every block, or the
// context expires.
func (s *System) WaitAll(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		defer s.mu.Unlock()
		return fmt.Errorf("bftcup: %d decisions outstanding: %w", s.remaining, ctx.Err())
	}
}

// DecisionOf returns the value process id decided for a block.
func (s *System) DecisionOf(id ID, block int) (Value, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.decisions[id][block]
	return v, ok
}

// Decisions returns a snapshot of all decisions (process → block → value).
func (s *System) Decisions() map[ID]map[int]Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ID]map[int]Value, len(s.decisions))
	for id, blocks := range s.decisions {
		m := make(map[int]Value, len(blocks))
		for b, v := range blocks {
			m[b] = v
		}
		out[id] = m
	}
	return out
}

// CommitteeOf returns the committee process id identified, once it decided.
func (s *System) CommitteeOf(id ID) ([]ID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.committees[id]
	return append([]ID(nil), c...), ok
}

// Started returns the processes actually running (topology minus Exclude).
func (s *System) Started() []ID { return append([]ID(nil), s.started...) }

// Messages returns the total messages sent so far (0 before Start).
func (s *System) Messages() int64 { return s.total((*netrt.Cluster).Messages) }

// Bytes returns the total payload bytes sent so far (0 before Start).
func (s *System) Bytes() int64 { return s.total((*netrt.Cluster).Bytes) }

// total reads one cluster-wide counter, or 0 before Start.
func (s *System) total(read func(*netrt.Cluster) int64) int64 {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.cluster == nil {
		return 0
	}
	return read(s.cluster)
}
