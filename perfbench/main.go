// Command perfbench is the repository benchmark: three workloads that pull
// the stack's layers apart (the standard sweep, the probabilistic sweep, and
// a live cupd cluster over localhost TCP), each timed end to end untraced,
// and a separate traced run that times every layer from the outside. See
// README.md for the metrics and why each workload was chosen.
//
//	perfbench -workload sweep-standard -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// correctness check held, 1 when one failed and 2 on a usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// metricUnits names every metric the benchmark reports, with its unit.
// BENCHMARK.json lists the same names and units; a test keeps them equal.
var metricUnits = map[string]string{
	// End to end (untraced run).
	"throughput_per_s": "1/s",
	"latency_ms_p50":   "ms",
	"latency_ms_p90":   "ms",
	"setup_s":          "s",
	"max_rss_mb":       "MB",
	// Per layer (traced run), per cell or live round unless a ratio.
	"sim.events":             "events/cell",
	"sim.self_s":             "s/cell",
	"sim.sends":              "calls/cell",
	"sim.send_s":             "s/cell",
	"discovery.msgs":         "msgs/cell",
	"discovery.self_s":       "s/cell",
	"discovery.records_in":   "records/cell",
	"discovery.records_new":  "records/cell",
	"discovery.useful_ratio": "ratio",
	"kosr.searches":          "calls/cell",
	"kosr.self_s":            "s/cell",
	"kosr.found_ratio":       "ratio",
	"pbft.msgs":              "msgs/cell",
	"pbft.self_s":            "s/cell",
	"pbft.view_changes":      "msgs/cell",
	"cryptox.verifies":       "sigs/cell",
	"cryptox.verify_s":       "s/cell",
	"cryptox.signs":          "sigs/cell",
	"cryptox.sign_s":         "s/cell",
	"core.timers":            "calls/cell",
	"core.timer_s":           "s/cell",
	"core.decided_msgs":      "msgs/cell",
	"core.decided_s":         "s/cell",
	"wire.msgs":              "msgs/cell",
	"wire.bytes":             "B/cell",
	"matrix.overhead_s":      "s/cell",
	"scenario.compile_s":     "s",
	"netrt.boot_ms":          "ms/cell",
	"netrt.frames":           "frames/cell",
	"netrt.bytes":            "B/cell",
	"netrt.cpu_s":            "s/cell",
	"trace.overhead_ratio":   "ratio",
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []string{"throughput_per_s", "latency_ms_p50", "latency_ms_p90", "setup_s", "max_rss_mb"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "sweep-standard", "workload: sweep-standard | sweep-prob | cupd-tcp")
	seed := fs.Int64("seed", 0, "workload seed; 0 runs the sweeps' default seeds first")
	seconds := fs.Int("seconds", 30, "measuring time per pass, in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	phase := fs.String("phase", "", "internal: run one pass (plain|traced) and print its JSON")
	blocks := fs.Int("blocks", 0, "with -phase plain: run exactly this many blocks instead of -seconds")
	pin := fs.Int("pin", 0, "print the fingerprints of the first N sweep blocks under -seed as JSON, for fingerprints.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dur := time.Duration(*seconds) * time.Second

	switch {
	case *pin > 0:
		return printPins(w, *seed, *pin)
	case *phase == "plain":
		return emitPhase(runPlain(w, *seed, dur, *blocks))
	case *phase == "traced":
		return emitPhase(runTraced(w, *seed, dur))
	case *phase != "":
		fmt.Fprintf(os.Stderr, "perfbench: unknown phase %q\n", *phase)
		return 2
	case *trace == 0:
		res, err := runPlain(w, *seed, dur, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return report(w, res, endToEnd, res.Metrics)
	default:
		return tracedRun(w, *seed, *seconds)
	}
}

// tracedRun runs the traced pass in a fresh child process, then the
// untraced pass over the same blocks in another, and reports the per-layer
// metrics with the tracing overhead.
func tracedRun(w workload, seed int64, seconds int) int {
	base := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
	traced, err := spawnPhase(append(base, "-phase", "traced"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: traced pass:", err)
		return 1
	}
	plain, err := spawnPhase(append(base, "-phase", "plain", "-blocks", strconv.Itoa(traced.Blocks)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: untraced pass:", err)
		return 1
	}
	if traced.PID == os.Getpid() || traced.PID == plain.PID {
		traced.problem("traced pass did not run in a process of its own")
	}
	m := traced.Metrics
	m["trace.overhead_ratio"] = traced.WallS / plain.WallS
	m["matrix.overhead_s"] = plain.Metrics["matrix.overhead_s"]
	m["scenario.compile_s"] = plain.Metrics["scenario.compile_s"]
	traced.Problems = append(traced.Problems, plain.Problems...)
	traced.line("%-22s %10.4f        (traced %.2f s / untraced %.2f s over the same %d blocks)", "trace.overhead_ratio", m["trace.overhead_ratio"], traced.WallS, plain.WallS, traced.Blocks)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		traced.line("%-22s %14.9g %s", k, m[k], metricUnits[k])
	}
	return report(w, traced, names, m)
}

// spawnPhase runs one pass of this binary in a child process and decodes
// the JSON line it prints last.
func spawnPhase(args []string) (*phaseResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res phaseResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("decoding pass result: %w", err)
	}
	return &res, nil
}

// emitPhase prints one pass's result as a JSON line (the child side of
// spawnPhase).
func emitPhase(res *phaseResult, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.PID = os.Getpid()
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// report prints the human-readable lines, any problems, and the result
// line; it returns 1 when a correctness check failed.
func report(w workload, res *phaseResult, names []string, m map[string]float64) int {
	fmt.Printf("# %s: %d blocks, %d attempted, %d failed, %d blocks checked against pinned fingerprints\n", w.name, res.Blocks, res.Units, res.Failed, res.Pinned)
	for _, l := range res.Summary {
		fmt.Println(l)
	}
	for _, p := range res.Problems {
		fmt.Println("FAILED CHECK:", p)
	}
	out := result{
		Correct:   len(res.Problems) == 0 && res.Failed == 0,
		Attempted: res.Units,
		Failed:    res.Failed,
		Metrics:   make(map[string]metricValue, len(names)),
	}
	for _, k := range names {
		out.Metrics[k] = metricValue{Value: m[k], Unit: metricUnits[k]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}
