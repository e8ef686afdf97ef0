package scenario

import (
	"fmt"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/sim"
)

// twinCells are the pinned scenario cells the twin property is checked on:
// the Fig. 1(b) graph under each of the paper's three communication
// assumptions, a silent Byzantine cell, and one synchronous cell per other
// zoo kind at the figure's scripted Byzantine process, so every branch of
// the shared reactor assembly runs live. Horizons are short — the async
// cell's verdict is non-termination, which costs a full (scaled) horizon of
// wall time.
func twinCells(t *testing.T) []Params {
	t.Helper()
	def, err := graph.ParseDef("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	zoo := func(kind ByzKind) Params {
		return Params{Graph: def, Mode: core.ModeKnownF, F: -1, Net: NetParams{Kind: NetSync},
			Auto: AutoByz{Kind: kind, Count: 1, Place: PlaceFigure}, Horizon: 10 * sim.Second}
	}
	return []Params{
		{Graph: def, Mode: core.ModeKnownF, F: -1, Net: NetParams{Kind: NetSync}, Horizon: 10 * sim.Second},
		{Graph: def, Mode: core.ModeKnownF, F: -1, Net: NetParams{Kind: NetPartial, GST: 500 * sim.Millisecond}, Horizon: 10 * sim.Second},
		{Graph: def, Mode: core.ModeKnownF, F: -1, Net: NetParams{Kind: NetAsync}, Horizon: 5 * sim.Second},
		{Graph: def, Mode: core.ModeKnownF, F: -1, Net: NetParams{Kind: NetSync},
			Auto: AutoByz{Kind: ByzSilent, Count: 1, Place: PlaceTail}, Horizon: 10 * sim.Second},
		zoo(ByzFakePD), zoo(ByzEquivPD), zoo(ByzAsCorrect), zoo(ByzDelay), zoo(ByzSelectiveSilent), zoo(ByzCollude),
	}
}

// runTwin asserts that the live runtime and the simulator reach the same
// verdicts on one compiled cell. Verdict equality — agreement, validity,
// integrity, termination — is the twin contract; message counts and timings
// legitimately differ.
func runTwin(t *testing.T, p Params, transport string) {
	t.Helper()
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	simRes, err := c.Run(seed, false)
	if err != nil {
		t.Fatal(err)
	}
	liveRes, err := c.RunLive(seed, LiveOptions{Transport: transport, Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Verdict() != liveRes.Verdict() {
		t.Errorf("%s [%s]: sim verdict %q (%s) != live verdict %q (%s)",
			p.ID(), transport,
			simRes.Verdict(), simRes.FailureMode(),
			liveRes.Verdict(), liveRes.FailureMode())
	}
	if simRes.Consensus() != liveRes.Consensus() {
		t.Errorf("%s [%s]: sim consensus %t != live consensus %t",
			p.ID(), transport, simRes.Consensus(), liveRes.Consensus())
	}
	if simRes.Termination && liveRes.Termination {
		// Both terminated: the decided value must also coincide (validity is
		// per-run, but fig1b cells have deterministic winning proposals only
		// under agreement — compare the live values among themselves instead).
		var vals []string
		for id, pr := range liveRes.PerProcess {
			if pr.Decided && !pr.Byzantine {
				vals = append(vals, fmt.Sprintf("%v=%s", id, pr.Value))
			}
		}
		if !liveRes.Agreement {
			t.Errorf("%s [%s]: live run lost agreement: %v", p.ID(), transport, vals)
		}
	}
}

// TestTwinVerdictsPipe drives the pinned cells over the net.Pipe harness —
// every cell, every net model.
func TestTwinVerdictsPipe(t *testing.T) {
	if testing.Short() {
		t.Skip("live twin runs cost wall-clock time")
	}
	for i, p := range twinCells(t) {
		p := p
		t.Run(fmt.Sprintf("cell%d_%s", i, p.Net.Kind), func(t *testing.T) {
			runTwin(t, p, "pipe")
		})
	}
}

// TestTwinVerdictsTCP drives the synchronous cell over real localhost TCP
// sockets (one cell: the TCP path is the same code, only the dialer differs,
// and listener setup costs more per cell).
func TestTwinVerdictsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("live twin runs cost wall-clock time")
	}
	runTwin(t, twinCells(t)[0], "tcp")
}

// TestRunLiveRejectsFaults pins that chaos cells refuse the live runtime
// loudly instead of silently dropping injection.
func TestRunLiveRejectsFaults(t *testing.T) {
	def, err := graph.ParseDef("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Graph: def, Mode: core.ModeKnownF, F: -1, Faults: FaultParams{Loss: 0.1}}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunLive(1, LiveOptions{}); err == nil {
		t.Fatal("RunLive accepted a fault-injection cell")
	}
}
