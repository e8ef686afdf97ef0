package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"

	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
)

// phaseResult is what one measuring pass reports. The -trace 1 run gets one
// from each of its child processes as a JSON line.
type phaseResult struct {
	PID      int                `json:"pid"`
	Blocks   int                `json:"blocks"`
	Units    int                `json:"units"` // cells or rounds attempted
	Failed   int                `json:"failed"`
	WallS    float64            `json:"wall_s"`
	Pinned   int                `json:"pinned"` // blocks checked against a pinned fingerprint
	Problems []string           `json:"problems"`
	Metrics  map[string]float64 `json:"metrics"`
	// Summary holds the human-readable lines naming each metric.
	Summary []string `json:"summary"`
}

func (r *phaseResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *phaseResult) line(format string, args ...any) {
	r.Summary = append(r.Summary, fmt.Sprintf(format, args...))
}

// pacer decides when a pass stops starting blocks: after a fixed count
// when blocks > 0, otherwise at the cycle boundary nearest to the measuring
// time, assuming the next cycle takes as long as the last one did.
type pacer struct {
	blocks, cycle     int
	dur               time.Duration
	start, cycleStart time.Time
}

func (w workload) pacer(blocks int, dur time.Duration) *pacer {
	return &pacer{blocks: blocks, cycle: max(w.cycle, 1), dur: dur}
}

// next reports whether block b should run.
func (p *pacer) next(b int) bool {
	if p.blocks > 0 {
		return b < p.blocks
	}
	now := time.Now()
	if b == 0 {
		p.start, p.cycleStart = now, now
		return true
	}
	if b%p.cycle != 0 {
		return true
	}
	last := now.Sub(p.cycleStart)
	p.cycleStart = now
	return now.Sub(p.start)+last/2 < p.dur
}

// untracedRan marks a process that ran the untraced pass; the traced pass
// refuses to start in it, because that pass warmed the process-wide
// signature memo and keyring cache.
var untracedRan bool

// runPlain is the untraced pass: the real code paths (matrix.Run, RunLive)
// with nothing wrapped. It reports the end-to-end metrics.
func runPlain(w workload, seed int64, dur time.Duration, blocks int) (*phaseResult, error) {
	untracedRan = true
	ps, err := w.setupParams(seed)
	if err != nil {
		return nil, err
	}
	st := &setupTimer{ps: ps}
	if err := st.measure(); err != nil {
		return nil, err
	}
	res := &phaseResult{Metrics: make(map[string]float64)}
	if w.block == nil {
		err = plainLive(w, seed, dur, blocks, ps[0], st, res)
	} else {
		err = plainSweep(w, seed, dur, blocks, st, res)
	}
	if err != nil {
		return nil, err
	}
	setup := st.median()
	res.Metrics["setup_s"] = setup.Seconds()
	res.Metrics["scenario.compile_s"] = setup.Seconds()
	res.line("%-16s %12.6f s      (median of %d compiles of %d distinct compile keys)", "setup_s", setup.Seconds(), len(st.reps), len(ps))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rss := float64(ru.Maxrss) / 1024 // Linux reports KiB
	res.Metrics["max_rss_mb"] = rss
	res.line("%-16s %12.2f MB", "max_rss_mb", rss)
	return res, nil
}

func plainSweep(w workload, seed int64, dur time.Duration, blocks int, st *setupTimer, res *phaseResult) error {
	var cellMS []float64
	var wall, overhead time.Duration
	pc := w.pacer(blocks, dur)
	for b := 0; pc.next(b); b++ {
		t0 := time.Now()
		src, label, err := w.block(seed, b)
		if err != nil {
			return err
		}
		// Per-cell wall time comes from Progress timestamps, valid at
		// Parallelism 1; Outcome.WallNS is always 0 (see README.md).
		last := time.Now()
		running := last
		rep, err := matrix.Run(src, matrix.Options{Parallelism: 1, Progress: func(done, total int) {
			now := time.Now()
			cellMS = append(cellMS, float64(now.Sub(last))/float64(time.Millisecond))
			last = now
		}})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		wall += d
		overhead += d - last.Sub(running)
		res.Blocks++
		res.Units += rep.Cells
		res.Failed += rep.Errors
		checkSweepBlock(w, label, rep, res)
		if err := st.measure(); err != nil {
			return err
		}
	}
	cells := float64(res.Units)
	res.WallS = wall.Seconds()
	p50, p90 := percentile(cellMS, 50), percentile(cellMS, 90)
	res.Metrics["throughput_per_s"] = cells / wall.Seconds()
	res.Metrics["latency_ms_p50"] = p50
	res.Metrics["latency_ms_p90"] = p90
	res.Metrics["matrix.overhead_s"] = overhead.Seconds() / cells
	res.line("%-16s %12.3f 1/s    (%d cells in %.2f s, %d blocks)", "cells_per_s", cells/wall.Seconds(), res.Units, wall.Seconds(), res.Blocks)
	res.line("%-16s %12.4f ms     (n=%d cells)", "cell_ms_p50", p50, len(cellMS))
	res.line("%-16s %12.4f ms     (n=%d cells)", "cell_ms_p90", p90, len(cellMS))
	res.line("%-16s %12d cells  (of %d attempted)", "failed_cells", res.Failed, res.Units)
	return nil
}

// checkSweepBlock holds a sweep block to its pinned fingerprint, or, for a
// block without one, to zero errors (and, for the standard sweep, consensus
// in every cell).
func checkSweepBlock(w workload, label string, rep *matrix.Report, res *phaseResult) {
	if rep.Errors != 0 {
		res.problem("%s %s: %d cells errored", w.name, label, rep.Errors)
	}
	if fp, ok := pins[w.name][label]; ok {
		res.Pinned++
		if got := rep.Fingerprint(); got != fp {
			res.problem("%s %s: fingerprint %s, pinned %s", w.name, label, got, fp)
		}
	} else if w.allConsensus && rep.Consensus != rep.Cells {
		res.problem("%s %s: %d of %d cells reached consensus", w.name, label, rep.Consensus, rep.Cells)
	}
}

func plainLive(w workload, seed int64, dur time.Duration, blocks int, p scenario.Params, st *setupTimer, res *phaseResult) error {
	c, err := p.Compile()
	if err != nil {
		return err
	}
	var decideMS []float64
	var wall time.Duration
	pc := w.pacer(blocks, dur)
	for b := 0; pc.next(b); b++ {
		rseed := simSeed(seed) + int64(b)
		t0 := time.Now()
		r, err := c.RunLive(rseed, scenario.LiveOptions{Transport: "tcp", Scale: liveScale})
		wall += time.Since(t0)
		res.Blocks++
		res.Units++
		switch {
		case err != nil:
			res.Failed++
			res.problem("round seed %d: %v", rseed, err)
		case r.Verdict() != "✓":
			res.Failed++
			res.problem("round seed %d: verdict ✗ (%s)", rseed, r.FailureMode())
		default:
			// Elapsed is the last correct decision in virtual time; RunLive
			// scales wall time up by the scale, so this is wall time again.
			decideMS = append(decideMS, float64(r.Elapsed)/liveScale/float64(time.Millisecond))
		}
		if err := st.measure(); err != nil {
			return err
		}
	}
	rounds := float64(res.Units)
	res.WallS = wall.Seconds()
	p50, p90 := percentile(decideMS, 50), percentile(decideMS, 90)
	res.Metrics["throughput_per_s"] = rounds / wall.Seconds()
	res.Metrics["latency_ms_p50"] = p50
	res.Metrics["latency_ms_p90"] = p90
	res.line("%-16s %12.3f 1/s    (%d rounds in %.2f s, n=%d, scale %d)", "decides_per_s", rounds/wall.Seconds(), res.Units, wall.Seconds(), c.Graph.NumNodes(), liveScale)
	res.line("%-16s %12.4f ms     (n=%d rounds)", "decide_ms_p50", p50, len(decideMS))
	res.line("%-16s %12.4f ms     (n=%d rounds)", "decide_ms_p90", p90, len(decideMS))
	res.line("%-16s %12d rounds (of %d attempted)", "failed_rounds", res.Failed, res.Units)
	return nil
}

// runTraced is the traced pass: the same blocks through the wrapped
// harness, reporting the per-layer metrics per cell (per round on the live
// workload). It must run in a process of its own.
func runTraced(w workload, seed int64, dur time.Duration) (*phaseResult, error) {
	if untracedRan {
		return nil, fmt.Errorf("traced pass must start in a fresh process: the untraced pass already warmed the signature memo and keyring cache")
	}
	res := &phaseResult{Metrics: make(map[string]float64)}
	if w.block == nil {
		p, err := liveParams()
		if err != nil {
			return nil, err
		}
		return res, tracedLive(w, seed, dur, p, res)
	}
	if err := tracedSweep(w, seed, dur, res); err != nil {
		return nil, err
	}
	// The digest pass runs after the timed pass: digesting costs engine
	// time and must not count in the traced wall time.
	return res, checkDigests(w, seed, res)
}

func tracedSweep(w workload, seed int64, dur time.Duration, res *phaseResult) error {
	var a acc
	var wall, runUntil time.Duration
	var msgs, bytes int64
	pc := w.pacer(0, dur)
	for b := 0; pc.next(b); b++ {
		t0 := time.Now()
		src, _, err := w.block(seed, b)
		if err != nil {
			return err
		}
		compiled := make(map[string]*scenario.Compiled)
		for i := 0; i < src.Len(); i++ {
			p := src.Cell(i).Params
			res.Units++
			c, err := compileCached(compiled, p)
			if err != nil {
				res.Failed++
				res.problem("traced cell %d: %v", i, err)
				continue
			}
			cell, err := runSimCell(c, p.Seed, &a, false)
			if err != nil {
				res.Failed++
				res.problem("traced cell %s: %v", c.Labels.IDFor(p.Seed), err)
				continue
			}
			if w.allConsensus && !cell.consensus {
				res.problem("traced cell %s: no consensus", c.Labels.IDFor(p.Seed))
			}
			runUntil += cell.runUntil
			msgs += cell.messages
			bytes += cell.bytes
		}
		wall += time.Since(t0)
		res.Blocks++
	}
	res.WallS = wall.Seconds()
	n := float64(res.Units)
	layerMetrics(res, &a, n)
	simSelf := runUntil - a.callbacks + a.self[layerRuntime]
	res.Metrics["sim.events"] = float64(callbackCount(&a)) / n
	res.Metrics["sim.self_s"] = simSelf.Seconds() / n
	res.Metrics["sim.sends"] = float64(a.calls[layerRuntime]) / n
	res.Metrics["sim.send_s"] = a.self[layerRuntime].Seconds() / n
	res.Metrics["wire.msgs"] = float64(msgs) / n
	res.Metrics["wire.bytes"] = float64(bytes) / n
	for _, k := range []string{"netrt.boot_ms", "netrt.frames", "netrt.bytes", "netrt.cpu_s"} {
		res.Metrics[k] = 0
	}
	return nil
}

func compileCached(cache map[string]*scenario.Compiled, p scenario.Params) (*scenario.Compiled, error) {
	k := p.CompileKey()
	if c, ok := cache[k]; ok {
		return c, nil
	}
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	cache[k] = c
	return c, nil
}

// checkDigests runs the digest pass over the first block: per checked
// cell, the traced harness's sim.Trace digest must equal scenario.Runner's.
func checkDigests(w workload, seed int64, res *phaseResult) error {
	src, label, err := w.block(seed, 0)
	if err != nil {
		return err
	}
	compiled := make(map[string]*scenario.Compiled)
	checked := 0
	for i := 0; i < src.Len(); i += w.digestStride {
		p := src.Cell(i).Params
		c, err := compileCached(compiled, p)
		if err != nil {
			return err
		}
		want, err := c.Run(p.Seed, true)
		if err != nil {
			return err
		}
		got, err := runSimCell(c, p.Seed, &acc{}, true)
		if err != nil {
			return err
		}
		if got.digest != want.TraceDigest {
			res.problem("cell %s: traced harness digest %s, scenario.Runner %s", c.Labels.IDFor(p.Seed), got.digest, want.TraceDigest)
		}
		checked++
	}
	res.line("digest check: %d cells of block %s, traced harness vs scenario.Runner", checked, label)
	return nil
}

func tracedLive(w workload, seed int64, dur time.Duration, p scenario.Params, res *phaseResult) error {
	c, err := p.Compile()
	if err != nil {
		return err
	}
	accs := make(map[model.ID]*acc)
	for _, id := range c.Graph.Nodes() {
		accs[id] = &acc{}
	}
	var wall, boot time.Duration
	var frames, bytes int64
	cpu0, err := processCPU()
	if err != nil {
		return err
	}
	pc := w.pacer(0, dur)
	for b := 0; pc.next(b); b++ {
		rseed := simSeed(seed) + int64(b)
		t0 := time.Now()
		r, err := runLiveRound(c, rseed, liveScale, accs)
		wall += time.Since(t0)
		res.Blocks++
		res.Units++
		switch {
		case err != nil:
			res.Failed++
			res.problem("traced round seed %d: %v", rseed, err)
			continue
		case !r.consensus:
			res.Failed++
			res.problem("traced round seed %d: verdict ✗", rseed)
		}
		boot += r.boot
		frames += r.messages
		bytes += r.bytes
	}
	cpu1, err := processCPU()
	if err != nil {
		return err
	}
	var a acc
	for _, na := range accs {
		a.add(na)
	}
	res.WallS = wall.Seconds()
	n := float64(res.Units)
	layerMetrics(res, &a, n)
	for _, k := range []string{"sim.events", "sim.self_s", "sim.sends", "sim.send_s"} {
		res.Metrics[k] = 0
	}
	res.Metrics["wire.msgs"] = float64(frames) / n
	res.Metrics["wire.bytes"] = float64(bytes) / n
	res.Metrics["netrt.boot_ms"] = float64(boot) / float64(time.Millisecond) / n
	res.Metrics["netrt.frames"] = float64(frames) / n
	res.Metrics["netrt.bytes"] = float64(bytes) / n
	// The runtime's share of process CPU: everything but the reactors' own
	// work. ctx.Send / SetTimer spans are runtime work done inside callbacks.
	reactorWork := a.callbacks - a.self[layerRuntime]
	res.Metrics["netrt.cpu_s"] = (cpu1 - cpu0 - reactorWork).Seconds() / n
	return nil
}

// callbackCount is the number of reactor callbacks delivered.
func callbackCount(a *acc) int64 {
	return a.calls[layerDiscovery] + a.calls[layerPBFT] + a.calls[layerCoreDecided] + a.calls[layerCoreTimer]
}

// layerMetrics fills the metrics every workload reports from spans, per
// unit of work (cell or round).
func layerMetrics(res *phaseResult, a *acc, n float64) {
	m := res.Metrics
	m["discovery.msgs"] = float64(a.calls[layerDiscovery]) / n
	m["discovery.self_s"] = a.self[layerDiscovery].Seconds() / n
	m["discovery.records_in"] = float64(a.recordsIn) / n
	m["discovery.records_new"] = float64(a.recordsNew) / n
	m["discovery.useful_ratio"] = ratio(a.recordsNew, a.recordsIn)
	m["kosr.searches"] = float64(a.searches) / n
	m["kosr.self_s"] = a.self[layerKosr].Seconds() / n
	m["kosr.found_ratio"] = ratio(a.found, a.searches)
	m["pbft.msgs"] = float64(a.calls[layerPBFT]) / n
	m["pbft.self_s"] = a.self[layerPBFT].Seconds() / n
	m["pbft.view_changes"] = float64(a.viewChanges) / n
	m["cryptox.verifies"] = float64(a.verifies) / n
	m["cryptox.verify_s"] = a.self[layerVerify].Seconds() / n
	m["cryptox.signs"] = float64(a.calls[layerSign]) / n
	m["cryptox.sign_s"] = a.self[layerSign].Seconds() / n
	m["core.timers"] = float64(a.calls[layerCoreTimer]) / n
	m["core.timer_s"] = a.self[layerCoreTimer].Seconds() / n
	m["core.decided_msgs"] = float64(a.calls[layerCoreDecided]) / n
	m["core.decided_s"] = a.self[layerCoreDecided].Seconds() / n
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// processCPU is the user+system CPU time this process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
