package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/bftcup/bftcup/internal/byz"
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// spyVerifier records which verification path its callers took.
type spyVerifier struct {
	single, batch int
}

func (s *spyVerifier) Verify(model.ID, []byte, []byte) bool { s.single++; return true }

func (s *spyVerifier) VerifyBatch(reqs []cryptox.BatchRequest) []bool {
	s.batch++
	out := make([]bool, len(reqs))
	for i := range out {
		out[i] = true
	}
	return out
}

// singleVerifier has no batch path.
type singleVerifier struct{ single int }

func (s *singleVerifier) Verify(model.ID, []byte, []byte) bool { s.single++; return true }

func TestVerifierWrapperKeepsBatchPath(t *testing.T) {
	reqs := make([]cryptox.BatchRequest, 3)

	spy := &spyVerifier{}
	var a acc
	cryptox.VerifyBatch(&tracedVerifier{inner: spy, acc: &a}, reqs)
	if spy.batch != 1 || spy.single != 0 {
		t.Fatalf("wrapped batching verifier: %d batch, %d single calls; want 1, 0", spy.batch, spy.single)
	}
	if a.verifies != 3 || a.calls[layerVerify] != 1 {
		t.Fatalf("accounted %d signatures in %d spans; want 3 in 1", a.verifies, a.calls[layerVerify])
	}

	plain := &singleVerifier{}
	cryptox.VerifyBatch(&tracedVerifier{inner: plain, acc: &acc{}}, reqs)
	if plain.single != 3 {
		t.Fatalf("wrapped non-batching verifier: %d single calls; want 3", plain.single)
	}

	// Verdicts through the wrapper equal the registry's own.
	signers, reg, err := cryptox.Keyring(7, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	real := []cryptox.BatchRequest{
		{Signer: 1, Msg: msg, Sig: signers[1].Sign(msg)},
		{Signer: 2, Msg: msg, Sig: signers[1].Sign(msg)},
	}
	want := cryptox.VerifyBatch(reg, real)
	got := cryptox.VerifyBatch(&tracedVerifier{inner: reg, acc: &acc{}}, real)
	if !slices.Equal(got, want) || !want[0] || want[1] {
		t.Fatalf("verdicts through wrapper %v, registry %v; want [true false]", got, want)
	}
}

// restartSpy is a reactor that can restart; it counts its restarts.
type restartSpy struct {
	byz.Silent
	restarts *int
}

func (s restartSpy) Restart(rt.Context) { *s.restarts++ }

func TestReactorWrapperForwardsRestartable(t *testing.T) {
	if _, ok := wrapReactor(byz.Silent{}, &acc{}).(rt.Restartable); ok {
		t.Fatal("wrapper offers Restart for a reactor without it")
	}
	signers, reg, err := cryptox.Keyring(1, []model.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	node := core.NewNode(signers[1], reg, core.Config{PD: model.NewIDSet()}, nil)
	if _, ok := wrapReactor(node, &acc{}).(rt.Restartable); !ok {
		t.Fatal("wrapper hides core.Node's Restart")
	}
	var a acc
	restarted := 0
	w, ok := wrapReactor(restartSpy{restarts: &restarted}, &a).(rt.Restartable)
	if !ok {
		t.Fatal("wrapper hides Restart")
	}
	w.Restart(nil)
	if restarted != 1 || a.calls[layerCoreTimer] != 1 {
		t.Fatalf("Restart reached the inner reactor %d times, %d spans; want 1, 1", restarted, a.calls[layerCoreTimer])
	}
}

func TestTracedPassRefusesWarmProcess(t *testing.T) {
	defer func(v bool) { untracedRan = v }(untracedRan)
	untracedRan = true
	w, err := findWorkload("cupd-tcp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runTraced(w, 0, time.Nanosecond); err == nil || !strings.Contains(err.Error(), "fresh process") {
		t.Fatalf("traced pass after an untraced one in the same process: err %v", err)
	}
}

func TestNestedSpanSelfTime(t *testing.T) {
	var a acc
	to, so := a.begin()
	ti, si := a.begin()
	time.Sleep(time.Millisecond)
	inner := a.end(layerKosr, ti, si)
	outer := a.end(layerDiscovery, to, so)
	if a.self[layerKosr] != inner {
		t.Fatalf("inner self %v, duration %v", a.self[layerKosr], inner)
	}
	if a.self[layerDiscovery]+a.self[layerKosr] != outer {
		t.Fatalf("self times %v + %v do not add up to the outer span %v", a.self[layerDiscovery], a.self[layerKosr], outer)
	}
}

func TestHarnessDigestsMatchRunner(t *testing.T) {
	src, err := matrix.StandardSweep([]int64{3})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := matrix.ProbabilisticSweep([]int64{3})
	if err != nil {
		t.Fatal(err)
	}
	cells := []matrix.Cell{}
	for i := 0; i < src.Len(); i++ {
		cells = append(cells, src.Cell(i))
	}
	// Two random-graph cells: one that finds a sink, one that gossips to
	// the horizon.
	cells = append(cells, prob.Cell(prob.Len()-1), prob.Cell(0))
	for _, cell := range cells {
		p := cell.Params
		c, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Run(p.Seed, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runSimCell(c, p.Seed, &acc{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.digest != want.TraceDigest || got.consensus != want.Consensus() {
			t.Errorf("%s: harness digest %s consensus %t, runner %s %t", c.Labels.IDFor(p.Seed), got.digest, got.consensus, want.TraceDigest, want.Consensus())
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := findWorkload(wl.Name); err != nil {
			t.Error(err)
		}
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if metricUnits[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q here", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, reported %v", e2e, endToEnd)
	}

	// One traced live round yields every per-layer metric but the three
	// the parent fills in from the untraced pass.
	w, err := findWorkload("cupd-tcp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runTraced(w, 0, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{"matrix.overhead_s", "scenario.compile_s", "trace.overhead_ratio"}
	for k := range res.Metrics {
		got = append(got, k)
	}
	var want []string
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
		if metricUnits[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q here", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("traced run reports %v, per_layer lists %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if p := percentile(xs, 50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(xs, 90); p != 4.6 {
		t.Fatalf("p90 = %v", p)
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2, 5}) {
		t.Fatal("percentile reordered its input")
	}
}
