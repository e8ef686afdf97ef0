package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// BenchEntry is one point of the BENCH_matrix.json performance trajectory:
// the simulator hot path (events/sec, allocs) and the matrix engine
// (cells/sec) measured on one machine at one commit. CI appends an entry per
// run, so the file records how fast the engine is getting — or regressing —
// over the repository's history.
type BenchEntry struct {
	Label    string        `json:"label,omitempty"`
	Date     string        `json:"date"`
	Go       string        `json:"go"`
	MaxProcs int           `json:"maxprocs"`
	Engine   []EngineBench `json:"engine"`
	// Matrix is nil for entries that predate the matrix timing (the pre-PR-2
	// baseline was measured on the engine benchmarks alone).
	Matrix *MatrixBench `json:"matrix,omitempty"`
	// Sweep is the compile-once-run-many measurement: one graph × many
	// seeds, serial — the workload the scenario compilation cache and the
	// cryptox fast path target. Nil for entries that predate it.
	Sweep *MatrixBench `json:"sweep,omitempty"`
	// SweepExt is the extended-KOSR seed sweep: every cell builds its own
	// random extended graph and runs the Core search (Algorithm 4), the
	// knowledge-layer-bound workload the incremental sink/core search engine
	// targets. Nil for entries that predate it.
	SweepExt *MatrixBench `json:"sweep_ext,omitempty"`
	// SweepWorst is a small byz=worst sweep: every cell pays the worst-case
	// placement enumeration inside Compile, so this number tracks the
	// kosr.WorstPlacement search (and the memo sharing that keeps it cheap).
	// Nil for entries that predate it.
	SweepWorst *MatrixBench `json:"sweep_worst,omitempty"`
	// SweepProb is the random-graph-family emergence sweep (er/geo/sf over
	// size × density × f, one seed): every cell builds a fresh random graph
	// and searches views with no planted sink, so the number tracks the
	// bitset subset engine on unstructured graphs. Nil for entries that
	// predate it.
	SweepProb *MatrixBench `json:"sweep_prob,omitempty"`
	// SweepChaos is the chaos fault-injection sweep at one seed: every
	// injected cell pays per-message loss/duplication/reorder draws,
	// partition checks and crash/restart churn on the hardened protocol
	// profile, so the number tracks the injection path in Engine.Send plus
	// the retransmission machinery it triggers. Nil for entries that predate
	// it.
	SweepChaos *MatrixBench `json:"sweep_chaos,omitempty"`
	// SweepDist is the distributed fabric measurement: the Matrix workload
	// run through the sweep coordinator over local subprocess workers, with
	// the merged fingerprint asserted byte-identical to the monolithic run.
	// Speedup compares 4 workers against 1 (the distribution-overhead
	// baseline); on single-core machines it honestly records ~1×, and the
	// cross-environment gate skip keeps such entries from flaking CI. Nil for
	// entries that predate it.
	SweepDist *DistBench `json:"sweep_dist,omitempty"`
	// CupdLocalhost is the live-runtime measurement: an n=7 planted-k-OSR
	// cluster run to unanimous decision over localhost TCP repeatedly — the
	// workload cupd -cluster serves, through the same scenario.RunLive path.
	// DecidesPerSec counts full-cluster decision rounds, so the number tracks
	// the netrt stack (framing, per-peer streams, timer scheduling) end to
	// end rather than any single component. Nil for entries that predate it.
	CupdLocalhost *LiveBench `json:"cupd_localhost,omitempty"`
	// Search is the knowledge-layer search replay (BenchmarkSinkSearch's
	// workload measured through the harness): PD records inserted one at a
	// time with a search after every insertion — the per-event schedule the
	// protocol stack runs during discovery. Nil for entries that predate it.
	Search []SearchBench `json:"search,omitempty"`
}

// LiveBench is one timed live-runtime workload: Rounds full-cluster decision
// rounds (every correct node decides, verdict ✓) over real sockets.
type LiveBench struct {
	Nodes         int     `json:"nodes"`
	Rounds        int     `json:"rounds"`
	WallSeconds   float64 `json:"wall_seconds"`
	DecidesPerSec float64 `json:"decides_per_sec"`
}

// DistBench is the distributed-fabric trajectory point: the 4-worker run plus
// its 1-worker baseline on the same fleet transport.
type DistBench struct {
	Cells       int     `json:"cells"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
	// OneWorkerWallSeconds is the same sweep through a single subprocess
	// worker — distribution overhead included, so Speedup isolates what the
	// extra workers buy.
	OneWorkerWallSeconds float64 `json:"one_worker_wall_seconds"`
	Speedup              float64 `json:"speedup_vs_one_worker"`
	Fingerprint          string  `json:"fingerprint"`
}

// SearchBench is one sink/core search replay measured via testing.Benchmark.
// One op is a full replay (every record of the view inserted in ID order, a
// search after each insertion), so ops/sec is comparable across runs.
type SearchBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// EngineBench is one sim.Workload measured via testing.Benchmark.
type EngineBench struct {
	Name         string  `json:"name"`
	EventsPerOp  int64   `json:"events_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// MatrixBench is a timed standard-sweep run.
type MatrixBench struct {
	Cells       int     `json:"cells"`
	Parallelism int     `json:"parallelism"`
	WallSeconds float64 `json:"wall_seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
	Fingerprint string  `json:"fingerprint"`
}

// engineBench measures one workload. events/sec divides deterministic
// simulator events by wall time, so it is comparable across runs even when
// b.N differs.
func engineBench(name string, w sim.Workload) EngineBench {
	var events int64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := sim.RunWorkload(w)
			if err != nil {
				fail(err)
			}
			events = n
		}
	})
	ns := float64(res.NsPerOp())
	return EngineBench{
		Name:         name,
		EventsPerOp:  events,
		EventsPerSec: float64(events) / (ns / 1e9),
		NsPerEvent:   ns / float64(events),
		AllocsPerOp:  res.AllocsPerOp(),
		BytesPerOp:   res.AllocedBytesPerOp(),
	}
}

// runSweepBench times the 1-graph × 1000-seed serial sweep, the canonical
// compile-once-run-many workload (BenchmarkSweepCells measures the same
// sweep through the testing harness).
func runSweepBench() (*matrix.Report, error) {
	base := scenario.Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Net:   scenario.NetParams{Kind: scenario.NetSync},
	}
	src, err := matrix.SeedSweep(base, matrix.Seeds(1, 1000))
	if err != nil {
		return nil, err
	}
	rep, err := matrix.Run(src, matrix.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if rep.Errors > 0 {
		return nil, fmt.Errorf("sweep bench had %d errored cells", rep.Errors)
	}
	return rep, nil
}

// runSweepExtBench times the extended-KOSR seed sweep: each cell builds its
// own random extended graph (a compile-cache miss by design) and runs
// Algorithm 4's Core search on every knowledge update — the cell cost is
// dominated by the kosr search layer, which is exactly what this number
// tracks.
func runSweepExtBench() (*matrix.Report, error) {
	base := scenario.Params{
		Graph: graph.Def{Kind: graph.DefExtended, Sink: 4, NonSink: 2, ExtraEdgeP: 0.2},
		Mode:  core.ModeUnknownF,
		F:     -1,
		Net:   scenario.NetParams{Kind: scenario.NetSync},
	}
	src, err := matrix.SeedSweep(base, matrix.Seeds(1, 60))
	if err != nil {
		return nil, err
	}
	rep, err := matrix.Run(src, matrix.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if rep.Errors > 0 {
		return nil, fmt.Errorf("extended sweep bench had %d errored cells", rep.Errors)
	}
	return rep, nil
}

// runSweepWorstBench times a byz=worst seed sweep on a 12-node random KOSR
// graph: each worker's first cell pays the C(12,3) placement enumeration in
// Compile (then the compile cache amortizes it across seeds), so the number
// is dominated by kosr.WorstPlacement plus the usual cell cost. Worst-placed
// cells legitimately fail consensus; only Errors would be a bench failure.
func runSweepWorstBench() (*matrix.Report, error) {
	base := scenario.Params{
		Graph: graph.Def{Kind: graph.DefKOSR, Sink: 7, NonSink: 5, K: 3, ExtraEdgeP: 0.2},
		Mode:  core.ModeKnownF,
		F:     -1,
		Auto:  scenario.AutoByz{Kind: scenario.ByzSilent, Count: 3, Place: scenario.PlaceWorst},
		Net:   scenario.NetParams{Kind: scenario.NetSync},
	}
	src, err := matrix.SeedSweep(base, matrix.Seeds(1, 40))
	if err != nil {
		return nil, err
	}
	rep, err := matrix.Run(src, matrix.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if rep.Errors > 0 {
		return nil, fmt.Errorf("worst sweep bench had %d errored cells", rep.Errors)
	}
	return rep, nil
}

// runSweepProbBench times the probabilistic family sweep at one seed: 54
// cells, each building a fresh random graph (er/geo/sf) and running searches
// on views without a planted sink. Cells without consensus are the sweep's
// normal output; only Errors fail the bench.
func runSweepProbBench() (*matrix.Report, error) {
	src, err := matrix.ProbabilisticSweep(matrix.Seeds(1, 1))
	if err != nil {
		return nil, err
	}
	rep, err := matrix.Run(src, matrix.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if rep.Errors > 0 {
		return nil, fmt.Errorf("probabilistic sweep bench had %d errored cells", rep.Errors)
	}
	return rep, nil
}

// runSweepChaosBench times the chaos fault-injection sweep at one seed: 64
// cells over the loss × partition × churn × f ladder, the injected ones
// drawing per-message faults and running the hardened retransmission
// profile. Cells that lose consensus under injection are the sweep's normal
// output; only Errors fail the bench.
func runSweepChaosBench() (*matrix.Report, error) {
	src, err := matrix.ChaosSweep(matrix.Seeds(1, 1))
	if err != nil {
		return nil, err
	}
	rep, err := matrix.Run(src, matrix.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if rep.Errors > 0 {
		return nil, fmt.Errorf("chaos sweep bench had %d errored cells", rep.Errors)
	}
	return rep, nil
}

// runSweepDistBench measures the distributed fabric on the Matrix workload
// (standard sweep, seeds 1:2): the same cells dealt to local subprocess
// workers — this very binary re-execed in -matrix worker mode, the transport
// sweepd defaults to — first 1 worker as the distribution-overhead baseline,
// then 4. Both merged fingerprints must be byte-identical to the monolithic
// fingerprint, which makes every trajectory append a distributed-identity
// check too.
func runSweepDistBench(monoFP string) (*DistBench, error) {
	src, err := matrix.StandardSweep(matrix.Seeds(1, 2))
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary for fabric workers: %w", err)
	}
	argv := []string{self, "-matrix", "-seeds", "1:2", "-parallel", "1"}
	run := func(workers int) (*matrix.Report, float64, error) {
		fleet := make([]matrix.Transport, workers)
		for i := range fleet {
			fleet[i] = matrix.ExecTransport{Argv: argv}
		}
		start := time.Now()
		rep, _, err := matrix.RunFabric(context.Background(), src.Len(), fleet, matrix.FabricOptions{})
		if err != nil {
			return nil, 0, err
		}
		if rep.Errors > 0 {
			return nil, 0, fmt.Errorf("fabric bench had %d errored cells", rep.Errors)
		}
		if fp := rep.Fingerprint(); fp != monoFP {
			return nil, 0, fmt.Errorf("fabric fingerprint diverges from monolithic run on %d workers:\n  mono   %s\n  fabric %s", workers, monoFP, fp)
		}
		return rep, time.Since(start).Seconds(), nil
	}
	_, wall1, err := run(1)
	if err != nil {
		return nil, err
	}
	rep, wall4, err := run(4)
	if err != nil {
		return nil, err
	}
	return &DistBench{
		Cells:                rep.Cells,
		Workers:              4,
		WallSeconds:          wall4,
		CellsPerSec:          float64(rep.Cells) / wall4,
		OneWorkerWallSeconds: wall1,
		Speedup:              wall1 / wall4,
		Fingerprint:          rep.Fingerprint(),
	}, nil
}

// runCupdLocalhostBench measures the live runtime: a 7-process planted
// k-OSR cluster (4-member sink, k=2) run to unanimous decision over
// localhost TCP, once per round under a fresh seed. Every round must reach a
// ✓ verdict — a live run that loses consensus is a bug, not a slow round.
func runCupdLocalhostBench() (*LiveBench, error) {
	def, err := graph.ParseDef("kosr:sink=4,nonsink=3,k=2")
	if err != nil {
		return nil, err
	}
	p := scenario.Params{
		Name:    "cupd-localhost",
		Graph:   def,
		Mode:    core.ModeKnownF,
		F:       -1,
		Net:     scenario.NetParams{Kind: scenario.NetSync},
		Horizon: 30 * sim.Second,
	}
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	const rounds = 5
	start := time.Now()
	for i := 0; i < rounds; i++ {
		res, err := c.RunLive(int64(i+1), scenario.LiveOptions{Transport: "tcp", Scale: 50})
		if err != nil {
			return nil, err
		}
		if res.Verdict() != "✓" {
			return nil, fmt.Errorf("cupd localhost bench round %d: verdict ✗ (%s)", i+1, res.FailureMode())
		}
	}
	wall := time.Since(start).Seconds()
	return &LiveBench{
		Nodes:         def.NumNodes(),
		Rounds:        rounds,
		WallSeconds:   wall,
		DecidesPerSec: float64(rounds) / wall,
	}, nil
}

// searchReplays builds the search workloads: a view's records inserted one at
// a time (sorted owner order — the schedule is part of the workload), a
// search after every insertion, mirroring the per-event search schedule the
// protocol runs during discovery. The searches go through the incremental
// kosr.Searcher — the engine core.Node uses; earlier trajectory entries for
// these names measured the from-scratch View methods the stack used then.
func searchReplays() ([]SearchBench, error) {
	type replay struct {
		name   string
		g      *graph.Digraph
		search func(se *kosr.Searcher, v *kosr.View) bool
	}
	fig := graph.Fig1b()
	sinkG, _, err := graph.GenKOSR(rand.New(rand.NewSource(9)), graph.GenSpec{SinkSize: 11, NonSinkSize: 5, K: 3, ExtraEdgeP: 0.2})
	if err != nil {
		return nil, err
	}
	// 24-node k-OSR graph with a 15-member sink: the sink SCC sits just under
	// ExactLimit, so every search pays a full exact subset enumeration — the
	// workload the bitset subset engine targets.
	sink24G, _, err := graph.GenKOSR(rand.New(rand.NewSource(9)), graph.GenSpec{SinkSize: 15, NonSinkSize: 9, K: 3, ExtraEdgeP: 0.2})
	if err != nil {
		return nil, err
	}
	fig4b := graph.Fig4b()
	replays := []replay{
		{"sink-replay-fig1b", fig.G, func(se *kosr.Searcher, v *kosr.View) bool {
			_, ok := se.FindSinkKnownF(v, fig.F)
			return ok
		}},
		{"sink-replay-random-11", sinkG, func(se *kosr.Searcher, v *kosr.View) bool {
			_, ok := se.FindSinkKnownF(v, 2)
			return ok
		}},
		{"sink-replay-random-24", sink24G, func(se *kosr.Searcher, v *kosr.View) bool {
			_, ok := se.FindSinkKnownF(v, 2)
			return ok
		}},
		{"core-replay-fig4b", fig4b.G, func(se *kosr.Searcher, v *kosr.View) bool {
			_, ok := se.FindCore(v)
			return ok
		}},
		{"core-replay-random-24", sink24G, func(se *kosr.Searcher, v *kosr.View) bool {
			_, ok := se.FindCore(v)
			return ok
		}},
	}
	out := make([]SearchBench, 0, len(replays))
	for _, r := range replays {
		r := r
		workload := kosr.NewSearchReplay(r.g)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !workload.Run(r.search) {
					fail(fmt.Errorf("search replay %s: full view found nothing", r.name))
				}
			}
		})
		ns := float64(res.NsPerOp())
		out = append(out, SearchBench{
			Name:        r.name,
			NsPerOp:     ns,
			OpsPerSec:   1e9 / ns,
			AllocsPerOp: res.AllocsPerOp(),
		})
	}
	return out, nil
}

// runBenchJSON measures the hot paths and appends a BenchEntry to the
// trajectory file (created if absent). With gate > 0 it first compares the
// fresh entry against the recent trajectory (see gateEntry) and exits
// non-zero, without appending, on a regression beyond the tolerance.
func runBenchJSON(path, label string, gate float64) {
	entry := BenchEntry{
		Label:    label,
		Date:     time.Now().UTC().Format(time.RFC3339),
		Go:       runtime.Version(),
		MaxProcs: runtime.GOMAXPROCS(0),
		Engine: []EngineBench{
			engineBench("ring-16", sim.Workload{Procs: 16, Tokens: 16, Fanout: 1}),
			engineBench("ring-64", sim.Workload{Procs: 64, Tokens: 64, Fanout: 1}),
			engineBench("broadcast-16", sim.Workload{Procs: 16, Tokens: 4, Fanout: 3, Horizon: 20 * sim.Millisecond}),
		},
	}

	src, err := matrix.StandardSweep(matrix.Seeds(1, 2))
	if err != nil {
		fail(err)
	}
	rep, err := matrix.Run(src, matrix.Options{})
	if err != nil {
		fail(err)
	}
	if rep.Errors > 0 {
		fail(fmt.Errorf("bench sweep had %d errored cells", rep.Errors))
	}
	entry.Matrix = &MatrixBench{
		Cells:       rep.Cells,
		Parallelism: rep.Parallelism,
		WallSeconds: float64(rep.WallNS) / 1e9,
		CellsPerSec: float64(rep.Cells) / (float64(rep.WallNS) / 1e9),
		Fingerprint: rep.Fingerprint(),
	}

	sweepRep, err := runSweepBench()
	if err != nil {
		fail(err)
	}
	entry.Sweep = &MatrixBench{
		Cells:       sweepRep.Cells,
		Parallelism: sweepRep.Parallelism,
		WallSeconds: float64(sweepRep.WallNS) / 1e9,
		CellsPerSec: float64(sweepRep.Cells) / (float64(sweepRep.WallNS) / 1e9),
		Fingerprint: sweepRep.Fingerprint(),
	}

	extRep, err := runSweepExtBench()
	if err != nil {
		fail(err)
	}
	entry.SweepExt = &MatrixBench{
		Cells:       extRep.Cells,
		Parallelism: extRep.Parallelism,
		WallSeconds: float64(extRep.WallNS) / 1e9,
		CellsPerSec: float64(extRep.Cells) / (float64(extRep.WallNS) / 1e9),
		Fingerprint: extRep.Fingerprint(),
	}

	worstRep, err := runSweepWorstBench()
	if err != nil {
		fail(err)
	}
	entry.SweepWorst = &MatrixBench{
		Cells:       worstRep.Cells,
		Parallelism: worstRep.Parallelism,
		WallSeconds: float64(worstRep.WallNS) / 1e9,
		CellsPerSec: float64(worstRep.Cells) / (float64(worstRep.WallNS) / 1e9),
		Fingerprint: worstRep.Fingerprint(),
	}

	probRep, err := runSweepProbBench()
	if err != nil {
		fail(err)
	}
	entry.SweepProb = &MatrixBench{
		Cells:       probRep.Cells,
		Parallelism: probRep.Parallelism,
		WallSeconds: float64(probRep.WallNS) / 1e9,
		CellsPerSec: float64(probRep.Cells) / (float64(probRep.WallNS) / 1e9),
		Fingerprint: probRep.Fingerprint(),
	}

	chaosRep, err := runSweepChaosBench()
	if err != nil {
		fail(err)
	}
	entry.SweepChaos = &MatrixBench{
		Cells:       chaosRep.Cells,
		Parallelism: chaosRep.Parallelism,
		WallSeconds: float64(chaosRep.WallNS) / 1e9,
		CellsPerSec: float64(chaosRep.Cells) / (float64(chaosRep.WallNS) / 1e9),
		Fingerprint: chaosRep.Fingerprint(),
	}

	if entry.SweepDist, err = runSweepDistBench(entry.Matrix.Fingerprint); err != nil {
		fail(err)
	}

	if entry.CupdLocalhost, err = runCupdLocalhostBench(); err != nil {
		fail(err)
	}

	if entry.Search, err = searchReplays(); err != nil {
		fail(err)
	}

	var trajectory []BenchEntry
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &trajectory); err != nil {
			fail(fmt.Errorf("%s: existing trajectory is not a JSON array: %w", path, err))
		}
	} else if !os.IsNotExist(err) {
		fail(err)
	}

	for _, e := range entry.Engine {
		fmt.Printf("engine %-10s %12.0f events/s  %6.1f ns/event  %6d allocs/op\n",
			e.Name, e.EventsPerSec, e.NsPerEvent, e.AllocsPerOp)
	}
	fmt.Printf("matrix %d cells on %d workers: %.2f cells/s (%.2fs)\n",
		entry.Matrix.Cells, entry.Matrix.Parallelism, entry.Matrix.CellsPerSec, entry.Matrix.WallSeconds)
	fmt.Printf("sweep  %d cells on %d workers: %.2f cells/s (%.2fs)\n",
		entry.Sweep.Cells, entry.Sweep.Parallelism, entry.Sweep.CellsPerSec, entry.Sweep.WallSeconds)
	fmt.Printf("sweep-ext %d cells on %d workers: %.2f cells/s (%.2fs)\n",
		entry.SweepExt.Cells, entry.SweepExt.Parallelism, entry.SweepExt.CellsPerSec, entry.SweepExt.WallSeconds)
	fmt.Printf("sweep-worst %d cells on %d workers: %.2f cells/s (%.2fs)\n",
		entry.SweepWorst.Cells, entry.SweepWorst.Parallelism, entry.SweepWorst.CellsPerSec, entry.SweepWorst.WallSeconds)
	fmt.Printf("sweep-prob %d cells on %d workers: %.2f cells/s (%.2fs)\n",
		entry.SweepProb.Cells, entry.SweepProb.Parallelism, entry.SweepProb.CellsPerSec, entry.SweepProb.WallSeconds)
	fmt.Printf("sweep-chaos %d cells on %d workers: %.2f cells/s (%.2fs)\n",
		entry.SweepChaos.Cells, entry.SweepChaos.Parallelism, entry.SweepChaos.CellsPerSec, entry.SweepChaos.WallSeconds)
	fmt.Printf("sweep-dist %d cells on %d subprocess workers: %.2f cells/s (%.2fs; %.2fx vs 1 worker; fingerprint matches monolithic)\n",
		entry.SweepDist.Cells, entry.SweepDist.Workers, entry.SweepDist.CellsPerSec, entry.SweepDist.WallSeconds, entry.SweepDist.Speedup)
	fmt.Printf("cupd-localhost %d nodes over TCP: %.2f decides/s (%d rounds, %.2fs)\n",
		entry.CupdLocalhost.Nodes, entry.CupdLocalhost.DecidesPerSec, entry.CupdLocalhost.Rounds, entry.CupdLocalhost.WallSeconds)
	for _, s := range entry.Search {
		fmt.Printf("search %-22s %10.0f ns/op  %8.0f ops/s  %6d allocs/op\n",
			s.Name, s.NsPerOp, s.OpsPerSec, s.AllocsPerOp)
	}

	// Gate before persisting: a regressed entry must not become the next
	// run's baseline (appending first would let a simple re-run ratify the
	// regression).
	if gate > 0 && len(trajectory) > 0 {
		if err := gateEntry(trajectory, entry, gate); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench gate (tolerance %.0f%%): %v\n", gate*100, err)
			fmt.Fprintf(os.Stderr, "experiments: regressed entry NOT appended to %s\n", path)
			os.Exit(1)
		}
	}

	trajectory = append(trajectory, entry)
	out, err := json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("appended to %s (%d entries)\n", path, len(trajectory))
}

// gateWindow is how many trailing trajectory entries the regression gate
// reads. Comparing against the best of several entries, not only the last
// one, catches a slow slide in which every step stays under the tolerance.
const gateWindow = 5

// throughput is one higher-is-better metric of a BenchEntry.
type throughput struct {
	name, unit string
	value      float64
}

// throughputs lists every throughput metric an entry carries: per-workload
// events/s, sweep cells/s, live decides/s and search ops/s.
func throughputs(e BenchEntry) []throughput {
	var out []throughput
	for _, x := range e.Engine {
		out = append(out, throughput{"engine " + x.Name, "events/s", x.EventsPerSec})
	}
	for _, m := range []struct {
		name string
		b    *MatrixBench
	}{
		{"matrix", e.Matrix}, {"sweep", e.Sweep}, {"sweep-ext", e.SweepExt},
		{"sweep-worst", e.SweepWorst}, {"sweep-prob", e.SweepProb}, {"sweep-chaos", e.SweepChaos},
	} {
		if m.b != nil {
			out = append(out, throughput{m.name, "cells/s", m.b.CellsPerSec})
		}
	}
	if e.SweepDist != nil {
		out = append(out, throughput{"sweep-dist", "cells/s", e.SweepDist.CellsPerSec})
	}
	if e.CupdLocalhost != nil {
		out = append(out, throughput{"cupd-localhost", "decides/s", e.CupdLocalhost.DecidesPerSec})
	}
	for _, x := range e.Search {
		out = append(out, throughput{"search " + x.Name, "ops/s", x.OpsPerSec})
	}
	return out
}

// gateEntry compares a fresh entry against the last gateWindow entries of
// the trajectory and reports every throughput metric that fell more than
// the given fraction below its best value among those entries measured in
// the same environment (Go version and GOMAXPROCS). The previous entry, when
// it is from this environment, is one of them, so the gate is never looser
// than a previous-entry comparison. Entries from other environments are not
// comparable — hardware alone moves throughput more than any tolerance — so
// when none of the window matches, the gate says so and passes rather than
// flaking. Metrics no entry in the window measured are skipped: the gate
// compares trajectory, it does not freeze the workload set.
func gateEntry(trajectory []BenchEntry, cur BenchEntry, tol float64) error {
	best := make(map[string]float64)
	same := 0
	for _, e := range trajectory[max(0, len(trajectory)-gateWindow):] {
		if e.Go != cur.Go || e.MaxProcs != cur.MaxProcs {
			continue
		}
		same++
		for _, m := range throughputs(e) {
			best[m.name] = max(best[m.name], m.value)
		}
	}
	if same == 0 {
		fmt.Printf("bench gate skipped: none of the last %d entries is from %s/maxprocs=%d (cross-environment numbers are not comparable)\n",
			gateWindow, cur.Go, cur.MaxProcs)
		return nil
	}
	var regressions []string
	for _, m := range throughputs(cur) {
		if b := best[m.name]; b > 0 && m.value < b*(1-tol) {
			regressions = append(regressions, fmt.Sprintf("%s: %.2f %s, best of %d same-environment entries %.2f (%.1f%% drop)",
				m.name, m.value, m.unit, same, b, (1-m.value/b)*100))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Printf("bench gate passed: no throughput regression beyond %.0f%% vs the best of %d same-environment entries\n", tol*100, same)
	return nil
}
