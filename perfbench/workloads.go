package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// workload is one benchmark input family. A sweep workload runs whole sweep
// blocks serially through matrix.Run; the live workload runs one cluster
// round per block.
type workload struct {
	name string
	// block builds sweep block b under the benchmark seed and labels it
	// (nil for the live workload).
	block func(seed int64, b int) (matrix.CellSource, string, error)
	// allConsensus: every cell of the sweep must reach consensus.
	allConsensus bool
	// digestStride: the digest pass checks every digestStride-th cell of
	// the first block.
	digestStride int
	// cycle: a pass stops only after a multiple of this many blocks, so
	// every pass covers whole cycles of the block pattern (0 means 1).
	cycle int
}

var workloads = []workload{
	{name: "sweep-standard", block: standardBlock, allConsensus: true, digestStride: 1},
	{name: "sweep-prob", block: probBlock, digestStride: 6, cycle: probGraphSeeds},
	{name: "cupd-tcp"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// seedStride separates the simulation seeds of consecutive benchmark seeds,
// so runs under different -seed values never share a cell.
const seedStride = 1000

// simSeed is the first simulation seed a benchmark seed uses.
func simSeed(seed int64) int64 { return 1 + seed*seedStride }

// standardBlock is StandardSweep over ten consecutive seeds. Block 0 of
// benchmark seed 0 is the sweep's default seed range, 1:10.
func standardBlock(seed int64, b int) (matrix.CellSource, string, error) {
	from := simSeed(seed) + int64(b)*10
	src, err := matrix.StandardSweep(matrix.Seeds(from, from+9))
	return src, fmt.Sprintf("seeds=%d:%d", from, from+9), err
}

// probGraphSeeds is the number of random-graph populations sweep-prob
// cycles through.
const probGraphSeeds = 3

// probBlock is ProbabilisticSweep under one simulation seed, with its
// random graphs drawn from graph seed 1 + b mod probGraphSeeds. Fixing the
// graph population keeps the work per block steady: with the graphs drawn
// from the simulation seed, whole blocks took from 7 to 15 s on one machine
// (see README.md).
func probBlock(seed int64, b int) (matrix.CellSource, string, error) {
	s := simSeed(seed) + int64(b)
	g := 1 + int64(b%probGraphSeeds)
	src, err := matrix.ProbabilisticSweep([]int64{s})
	if err != nil {
		return nil, "", err
	}
	return fixedGraphs{CellSource: src, graphSeed: g}, fmt.Sprintf("graphs=%d,seeds=%d:%d", g, s, s), nil
}

// fixedGraphs sets every cell's graph seed.
type fixedGraphs struct {
	matrix.CellSource
	graphSeed int64
}

func (f fixedGraphs) Cell(i int) matrix.Cell {
	c := f.CellSource.Cell(i)
	c.Params.GraphSeed = f.graphSeed
	return c
}

// Live cluster parameters: the planted k-OSR graph and scale that
// `cupd -cluster` and the experiments bench use.
const (
	liveGraph = "kosr:sink=4,nonsink=3,k=2"
	liveScale = 50
)

func liveParams() (scenario.Params, error) {
	def, err := graph.ParseDef(liveGraph)
	if err != nil {
		return scenario.Params{}, err
	}
	return scenario.Params{
		Name:    "cupd-tcp",
		Graph:   def,
		Mode:    core.ModeKnownF,
		F:       -1,
		Net:     scenario.NetParams{Kind: scenario.NetSync},
		Horizon: 30 * sim.Second,
	}, nil
}

// setupParams lists one Params per distinct compile key of the workload's
// first block: what a run has to compile before it can execute a cell.
func (w workload) setupParams(seed int64) ([]scenario.Params, error) {
	if w.block == nil {
		p, err := liveParams()
		return []scenario.Params{p}, err
	}
	src, _, err := w.block(seed, 0)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []scenario.Params
	for i := 0; i < src.Len(); i++ {
		p := src.Cell(i).Params
		if k := p.CompileKey(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// setupReps is how many set-up repetitions a pass runs at its start and
// after every block.
const setupReps = 3

// setupTimer measures set-up time: Params.Compile over every distinct
// compile key of the first block. Its repetitions are spread over the pass,
// so their median samples the same host conditions as the measured work.
type setupTimer struct {
	ps   []scenario.Params
	reps []time.Duration
}

// measure runs setupReps repetitions.
func (s *setupTimer) measure() error {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, p := range s.ps {
			if _, err := p.Compile(); err != nil {
				return err
			}
		}
		s.reps = append(s.reps, time.Since(t0))
	}
	return nil
}

// median returns the median repetition.
func (s *setupTimer) median() time.Duration {
	r := slices.Clone(s.reps)
	slices.Sort(r)
	return r[len(r)/2]
}

// pins holds the recorded Report.Fingerprint of sweep blocks, keyed by
// workload and block label.
var pins = func() map[string]map[string]string {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		panic(fmt.Sprintf("perfbench: fingerprints.json: %v", err))
	}
	return p
}()

//go:embed fingerprints.json
var pinnedJSON []byte

// printPins runs the first n sweep blocks under the benchmark seed (in
// parallel: fingerprints do not depend on it) and prints their fingerprints
// in the fingerprints.json layout.
func printPins(w workload, seed int64, n int) int {
	if w.block == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s has no fingerprints\n", w.name)
		return 2
	}
	out := make(map[string]string, n)
	for b := 0; b < n; b++ {
		src, label, err := w.block(seed, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		rep, err := matrix.Run(src, matrix.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if rep.Errors != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d cells errored; not pinning\n", label, rep.Errors)
			return 1
		}
		out[label] = rep.Fingerprint()
	}
	b, err := json.MarshalIndent(map[string]map[string]string{w.name: out}, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
