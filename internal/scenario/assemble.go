package scenario

import (
	"fmt"

	"github.com/bftcup/bftcup/internal/byz"
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// One assembly path for both runtimes. Runner.Run (simulator) and RunLive
// (netrt) differ only in how they drive reactors and read the clock: the key
// material, each correct node's configuration, the Byzantine zoo and the
// grading are built here once, so the live-vs-sim twin verdicts agree by
// construction rather than by keeping copies in step.

// Keys returns one run's key material: the insecure suite when c.Insecure,
// otherwise the Ed25519 keyring derived from seed+1 (served from the
// cryptox keyring cache). Every runtime — Runner.Run, RunLive and a
// standalone cmd/cupd daemon — derives its keys here, so the daemons of one
// deployment and the simulator sign with the same keys for the same seed.
func (c *Compiled) Keys(seed int64) (map[model.ID]cryptox.Signer, cryptox.Verifier, error) {
	if c.Insecure {
		signers, reg := cryptox.InsecureSuite(c.ids)
		return signers, reg, nil
	}
	signers, reg, err := cryptox.Keyring(seed+1, c.ids)
	if err != nil {
		return nil, nil, err
	}
	return signers, reg, nil
}

// proposal is process id's input value: Values[id], defaulting to "v<id>".
func (c *Compiled) proposal(id model.ID) model.Value {
	if v, ok := c.Values[id]; ok {
		return v
	}
	return model.Value(fmt.Sprintf("v%d", id))
}

// NodeConfig is correct process id's protocol configuration under the given
// runtime durations: the compiled mode, threshold and hardening, id's
// out-set as its PD and its proposal. Searcher stays nil, so core.NewNode
// gives the node a fresh one; Runner.Run swaps in its pooled searchers.
func (c *Compiled) NodeConfig(id model.ID, disc discovery.Config, pbftTimeout, poll rt.Time) core.Config {
	return core.Config{
		Mode:        c.Mode,
		F:           c.F,
		PD:          c.Graph.OutSet(id).Clone(),
		Proposal:    c.proposal(id),
		Discovery:   disc,
		PBFTTimeout: pbftTimeout,
		PollPeriod:  poll,
		Hardened:    c.Hardened,
	}
}

// tally is one run's grading state: every proposal, the processes graded as
// correct, the correct nodes (for their committees) and every decision.
// Runner keeps one across runs; RunLive guards its own with a mutex, since
// its decisions arrive on node event-loop goroutines.
type tally struct {
	proposals     map[model.ID]model.Value
	nodes         map[model.ID]*core.Node
	correct       model.IDSet
	decisions     map[model.ID]model.Value
	decidedAt     map[model.ID]rt.Time
	doubleDecided model.IDSet
	// decidedCorrect counts first decisions by correct processes, so the
	// per-event termination check is one comparison instead of a set scan.
	decidedCorrect int
}

func newTally() tally {
	return tally{
		proposals:     make(map[model.ID]model.Value),
		nodes:         make(map[model.ID]*core.Node),
		correct:       model.NewIDSet(),
		decisions:     make(map[model.ID]model.Value),
		decidedAt:     make(map[model.ID]rt.Time),
		doubleDecided: model.NewIDSet(),
	}
}

func (t *tally) reset() {
	clear(t.proposals)
	clear(t.nodes)
	clear(t.correct)
	clear(t.decisions)
	clear(t.decidedAt)
	clear(t.doubleDecided)
	t.decidedCorrect = 0
}

// decide records id's decision v at time at and reports whether it was id's
// first. A wiped restart legitimately re-runs agreement; only a conflicting
// second decision is an integrity violation.
func (t *tally) decide(id model.ID, v model.Value, at rt.Time) bool {
	if prev, dup := t.decisions[id]; dup {
		if !prev.Equal(v) {
			t.doubleDecided.Add(id)
		}
		return false
	}
	t.decisions[id] = v
	t.decidedAt[id] = at
	if t.correct.Has(id) {
		t.decidedCorrect++
	}
	return true
}

// allDecided reports whether every correct process has decided.
func (t *tally) allDecided() bool { return t.decidedCorrect == t.correct.Len() }

// assemble builds one run's reactors in sorted-ID order and hands each to
// add: newNode builds every correct and as-correct process from its
// NodeConfig under the given durations, the zoo every other Byzantine one.
// Proposals, nodes and the correct set are recorded in t. Colluding-group
// state is mutable run state, so the group is built here per run, never
// stored in the (goroutine-shared, immutable) Compiled; members join in
// sorted-ID order before any reactor exists — the group record list is part
// of every member's replies from the first round.
func (c *Compiled) assemble(t *tally, signers map[model.ID]cryptox.Signer, reg cryptox.Verifier,
	disc discovery.Config, pbftTimeout, poll rt.Time,
	newNode func(id model.ID, cfg core.Config) *core.Node, add func(id model.ID, r rt.Reactor) error) error {
	var collusion *byz.Collusion
	var colluders map[model.ID]*byz.Colluder
	for _, id := range c.ids {
		if bspec, ok := c.Byz[id]; ok && bspec.Kind == ByzCollude {
			if collusion == nil {
				collusion = byz.NewCollusion(reg, disc)
				colluders = make(map[model.ID]*byz.Colluder)
			}
			colluders[id] = collusion.AddMember(signers[id], resolveClaim(c, id, bspec), bspec.Withhold)
		}
	}

	for _, id := range c.ids {
		var reactor rt.Reactor
		bspec, isByz := c.Byz[id]
		if !isByz || bspec.Kind == ByzAsCorrect {
			cfg := c.NodeConfig(id, disc, pbftTimeout, poll)
			t.proposals[id] = cfg.Proposal
			n := newNode(id, cfg)
			t.nodes[id] = n
			if !isByz {
				t.correct.Add(id)
			}
			reactor = n
		} else {
			t.proposals[id] = c.proposal(id)
			switch bspec.Kind {
			case ByzSilent:
				reactor = byz.Silent{}
			case ByzFakePD:
				reactor = byz.NewFakePD(signers[id], reg, resolveClaim(c, id, bspec), disc)
			case ByzEquivPD:
				alt := bspec.AltPD
				if alt == nil {
					alt = model.NewIDSet()
				}
				choose := bspec.ChooseAlt
				if bspec.AltRecipients != nil {
					recipients := bspec.AltRecipients
					choose = func(id model.ID) bool { return recipients.Has(id) }
				}
				reactor = byz.NewPDEquivocator(signers[id], reg, resolveClaim(c, id, bspec), alt, choose, disc)
			case ByzDelay:
				reactor = byz.NewDelayer(signers[id], reg, resolveClaim(c, id, bspec), disc, bspec.HoldRounds)
			case ByzSelectiveSilent:
				reactor = byz.NewSelectiveSilent(signers[id], reg, resolveClaim(c, id, bspec), bspec.AnswerTo, disc)
			case ByzCollude:
				reactor = colluders[id]
			default:
				return fmt.Errorf("unknown byz kind %v", bspec.Kind)
			}
		}
		if err := add(id, reactor); err != nil {
			return err
		}
	}
	return nil
}

// grade fills res's per-process table and its agreement, validity, integrity
// and elapsed verdicts from t, over the processes t grades as correct.
// res.Termination must already be set: Elapsed is the last correct decision
// of a terminated run and the horizon otherwise.
func (c *Compiled) grade(res *Result, t *tally) {
	res.Agreement, res.Validity, res.Integrity = true, true, true
	for id := range t.doubleDecided {
		if t.correct.Has(id) {
			res.Integrity = false
		}
	}
	var last rt.Time
	var agreed model.Value
	first := true
	for _, id := range c.ids {
		_, byzantine := c.Byz[id]
		pr := ProcessResult{Byzantine: byzantine}
		if n, ok := t.nodes[id]; ok {
			if cand, ok := n.Committee(); ok {
				pr.Committee = cand.Members()
				pr.G = cand.G
			}
		}
		if v, ok := t.decisions[id]; ok {
			pr.Decided, pr.Value, pr.DecidedAt = true, v, t.decidedAt[id]
		}
		res.PerProcess[id] = pr

		if !t.correct.Has(id) || !pr.Decided {
			continue
		}
		if pr.DecidedAt > last {
			last = pr.DecidedAt
		}
		if first {
			agreed, first = pr.Value, false
		} else if !agreed.Equal(pr.Value) {
			res.Agreement = false
		}
		proposed := false
		for _, p := range t.proposals {
			if p.Equal(pr.Value) {
				proposed = true
				break
			}
		}
		if !proposed {
			res.Validity = false
		}
	}
	if res.Termination {
		res.Elapsed = last
	} else {
		res.Elapsed = c.Horizon
	}
}
