package bftcup

import (
	"fmt"
	"time"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// Behavior selects a Byzantine strategy in simulations.
type Behavior int

// Byzantine behaviors.
const (
	// BehaviorSilent never sends a message.
	BehaviorSilent Behavior = iota
	// BehaviorFakePD gossips a chosen false participant detector.
	BehaviorFakePD
	// BehaviorEquivocatePD claims different PDs to different peers.
	BehaviorEquivocatePD
	// BehaviorAsCorrect runs the correct protocol while counting against f.
	BehaviorAsCorrect
)

// Byzantine configures one Byzantine process in a simulation.
type Byzantine struct {
	// Behavior selects what the process does.
	Behavior Behavior
	// ClaimedPD is the advertised PD for BehaviorFakePD/BehaviorEquivocatePD
	// (nil: the topology's real out-list).
	ClaimedPD []ID
	// AltPD is the second PD for BehaviorEquivocatePD.
	AltPD []ID
}

// NetworkKind selects the communication model of Table I.
type NetworkKind int

// Network kinds.
const (
	// NetworkSynchronous bounds every delay by Delta from time zero.
	NetworkSynchronous NetworkKind = iota
	// NetworkPartiallySynchronous delays SlowGroups-crossing (or, with no
	// groups, all) links until GST, synchronous afterwards.
	NetworkPartiallySynchronous
	// NetworkAsynchronousAdversarial grows delays faster than any timeout
	// schedule: deterministic consensus never terminates.
	NetworkAsynchronousAdversarial
)

// Network describes the simulated communication model.
type Network struct {
	// Kind selects the communication model.
	Kind  NetworkKind
	Delta time.Duration // default 5ms
	GST   time.Duration // partial synchrony only
	// SlowGroups: before GST, only intra-group links are fast. Empty means
	// every link is slow pre-GST.
	SlowGroups [][]ID
}

// params translates the network into the scenario layer's description,
// whose Model applies the defaults (5ms Δ, 2s GST, the adversarial
// scheduler's 2s/×3). SlowGroups is NetParams.FastGroups: links inside one
// group are fast before GST, every other link is slow.
func (n Network) params() scenario.NetParams {
	np := scenario.NetParams{Delta: sim.Time(n.Delta), GST: sim.Time(n.GST)}
	switch n.Kind {
	case NetworkPartiallySynchronous:
		np.Kind = scenario.NetPartial
		for _, g := range n.SlowGroups {
			np.FastGroups = append(np.FastGroups, model.NewIDSet(g...))
		}
	case NetworkAsynchronousAdversarial:
		np.Kind = scenario.NetAsync
	}
	return np
}

// SimOptions describes one deterministic simulation.
type SimOptions struct {
	// Topology is the knowledge connectivity graph; each process uses its
	// out-list as its participant detector.
	Topology Topology
	// Protocol selects the committee-identification rule.
	Protocol Protocol
	F        int // ProtocolBFTCUP / ProtocolPermissioned
	// Byzantine assigns faulty behaviors by process.
	Byzantine map[ID]Byzantine
	// Proposals maps processes to values (default "v<id>").
	Proposals map[ID]Value
	// Network is the simulated communication model.
	Network Network
	Horizon time.Duration // default 60s of virtual time
	// Seed makes the whole run deterministic.
	Seed int64
}

// SimReport grades a simulated run.
type SimReport struct {
	// ConsensusSolved is true when Termination, Agreement and Validity all
	// hold among correct processes.
	ConsensusSolved bool
	Termination     bool
	Agreement       bool
	Validity        bool
	// FailureMode names the violated property (empty on success).
	FailureMode string
	// Decisions and Committees record each process's decided value and
	// adopted committee; Messages and Bytes total the network traffic.
	Decisions  map[ID]Value
	Committees map[ID][]ID
	Messages   int64
	Bytes      int64
	// Elapsed is the virtual time of the last correct decision.
	Elapsed time.Duration
}

// Simulate runs the protocol stack on the deterministic discrete-event
// simulator and checks the consensus properties. Identical options produce
// identical reports.
func Simulate(opt SimOptions) (*SimReport, error) {
	if len(opt.Topology) == 0 {
		return nil, fmt.Errorf("bftcup: empty topology")
	}
	mode, err := opt.Protocol.mode()
	if err != nil {
		return nil, err
	}
	spec := scenario.Spec{
		Name:    "simulate",
		Graph:   opt.Topology.graph(),
		Mode:    mode,
		F:       opt.F,
		Net:     opt.Network.params().Model(),
		Horizon: sim.Time(opt.Horizon),
		Seed:    opt.Seed,
	}
	if len(opt.Proposals) > 0 {
		spec.Values = make(map[model.ID]model.Value, len(opt.Proposals))
		for id, v := range opt.Proposals {
			spec.Values[id] = v
		}
	}
	if len(opt.Byzantine) > 0 {
		spec.Byz = make(map[model.ID]scenario.ByzSpec, len(opt.Byzantine))
		for id, b := range opt.Byzantine {
			bs := scenario.ByzSpec{}
			switch b.Behavior {
			case BehaviorSilent:
				bs.Kind = scenario.ByzSilent
			case BehaviorFakePD:
				bs.Kind = scenario.ByzFakePD
			case BehaviorEquivocatePD:
				bs.Kind = scenario.ByzEquivPD
			case BehaviorAsCorrect:
				bs.Kind = scenario.ByzAsCorrect
			default:
				return nil, fmt.Errorf("bftcup: unknown behavior %v", b.Behavior)
			}
			if b.ClaimedPD != nil {
				bs.ClaimedPD = model.NewIDSet(b.ClaimedPD...)
			}
			if b.AltPD != nil {
				bs.AltPD = model.NewIDSet(b.AltPD...)
			}
			spec.Byz[id] = bs
		}
	}
	res, err := scenario.Run(spec)
	if err != nil {
		return nil, err
	}
	report := &SimReport{
		Termination: res.Termination,
		Agreement:   res.Agreement,
		Validity:    res.Validity,
		FailureMode: res.FailureMode(),
		Decisions:   make(map[ID]Value),
		Committees:  make(map[ID][]ID),
		Messages:    res.Messages,
		Bytes:       res.Bytes,
		Elapsed:     time.Duration(res.Elapsed),
	}
	report.ConsensusSolved = res.Termination && res.Agreement && res.Validity
	for id, pr := range res.PerProcess {
		if pr.Decided {
			report.Decisions[id] = pr.Value
		}
		if pr.Committee != nil {
			report.Committees[id] = pr.Committee.Sorted()
		}
	}
	return report, nil
}
