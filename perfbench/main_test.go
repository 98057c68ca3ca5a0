package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/routing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		samples []float64
		q, v    float64
		ok      bool
	}{
		{seq(1000), 99, 990, true},
		{seq(100), 90, 90, true},
		{seq(20), 50, 10, true},
		{seq(19), 0, 0, false},
		{make([]float64, 500), 0, 0, false}, // all tied: nothing lies beyond any percentile
	} {
		q, v, ok := tailPercentile(tc.samples)
		if q != tc.q || v != tc.v || ok != tc.ok {
			t.Errorf("n=%d: tailPercentile = (p%g, %g, %v), want (p%g, %g, %v)",
				len(tc.samples), q, v, ok, tc.q, tc.v, tc.ok)
		}
		if ok && beyond(tc.samples, v) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", len(tc.samples), q, beyond(tc.samples, v))
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if p := percentile(seq(100), 99); p != 99 {
		t.Errorf("p99 of 1..100 = %g", p)
	}
	if n := beyond([]float64{1, 2, 2, 3}, 2); n != 1 {
		t.Errorf("beyond counts ties: %d", n)
	}
}

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "harness.RunWith", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "harness.point", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "harness.point", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "network.Run", Start: 90, End: 120},  // runs past its parent
		{ID: 5, Parent: 4, Name: "core.AnalyzeWFG", Start: 95, End: 96},
		{ID: 6, Name: "network.Run", Start: 0, End: -1}, // never closed: ignored
	}
	self := selfTimes(spans)
	// RunWith: 100 - |[10,50] ∪ [90,100]| = 50; the points: 20 + 30.
	if self["harness"] != 100 {
		t.Errorf("harness self = %d, want 100", self["harness"])
	}
	if self["network"] != 29 || self["core"] != 1 {
		t.Errorf("network self = %d (want 29), core self = %d (want 1)", self["network"], self["core"])
	}
}

// tinyCase is a 4x4 mesh Disha run small enough for a unit test.
func tinyCase() simCase {
	return simCase{
		topo: parsed("mesh-4x4"), pattern: uniform, alg: dishaM0,
		vcs: 2, depth: 2, msgLen: 8, load: 0.4, warmup: 200, measure: 1500, seed: 7,
	}
}

func TestGatePassesAndRunsRepeatIdentically(t *testing.T) {
	c := tinyCase()
	plain, err := runSim(c, nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runSim(c, tr, 0, "k")
	if err != nil {
		t.Fatal(err)
	}
	r := &result{}
	checkSims(r, []simResult{plain, traced})
	if len(r.problems) != 0 {
		t.Fatalf("problems: %v", r.problems)
	}
	if plain.failed != 0 || plain.attempted == 0 {
		t.Errorf("attempted %d failed %d", plain.attempted, plain.failed)
	}
	if traced.probe.samples == 0 || traced.phases.count["step_total"] == 0 {
		t.Errorf("traced repeat recorded no probes (%d) or profiled cycles", traced.probe.samples)
	}
	if len(tr.named("bench.point")) != 1 {
		t.Errorf("traced repeat did not record its point span")
	}
	for _, s := range tr.spans {
		if s.Key != "k" {
			t.Errorf("span %s has key %q, want the point's key", s.Name, s.Key)
		}
	}
}

// TestGateCountsUndeliveredPackets runs Disha with recovery switched off on
// a 1-VC torus under heavy load: it deadlocks, so the drain cannot finish,
// the gate must fail and the stuck packets must count as failed.
func TestGateCountsUndeliveredPackets(t *testing.T) {
	c := simCase{
		topo: parsed("torus-4x4"), pattern: uniform,
		alg: harness.AlgSpec{Algorithm: routing.Disha(0)},
		vcs: 1, depth: 2, msgLen: 4, load: 1, warmup: 3000, measure: 200, seed: 3,
	}
	res, err := runSim(c, nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.gateErr == nil || !strings.Contains(res.gateErr.Error(), "not drained") {
		t.Fatalf("gate error = %v, want a drain failure", res.gateErr)
	}
	if res.failed == 0 {
		t.Errorf("undelivered packets not counted as failed")
	}
	r := &result{}
	checkSims(r, []simResult{res})
	if len(r.problems) == 0 {
		t.Errorf("checkSims found no problem in a run that did not drain")
	}
}

func decodeLast(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return v
}

func TestReportCountsFailures(t *testing.T) {
	ok := &result{attempted: 10, e2e: []metric{{"wall_s", "s", 1.5}}}
	var out, errb bytes.Buffer
	if code := report(&out, &errb, ok, false); code != 0 {
		t.Fatalf("clean result exited %d", code)
	}
	v := decodeLast(t, out.String())
	if v["correct"] != true || v["attempted"] != 10.0 || v["failed"] != 0.0 {
		t.Errorf("clean result: %v", v)
	}
	if m := v["metrics"].(map[string]any)["wall_s"].(map[string]any); m["value"] != 1.5 || m["unit"] != "s" {
		t.Errorf("metric encoding: %v", m)
	}

	for name, r := range map[string]*result{
		"failed operations": {attempted: 10, failed: 2, e2e: []metric{{"wall_s", "s", 1}}},
		"gate problem":      {attempted: 10, problems: []string{"ledger"}},
		"non-finite metric": {attempted: 10, e2e: []metric{{"wall_s", "s", math.NaN()}}},
		"nothing attempted": {},
	} {
		out.Reset()
		if code := report(&out, &errb, r, false); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
		if v := decodeLast(t, out.String()); v["correct"] != false || v["attempted"].(float64) < 1 {
			t.Errorf("%s: %v", name, v)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "torus16-load0.5", "--trace", "2"},
		{"--workload", "torus16-load0.5", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestCheckSimsFlagsNonIdenticalRepeats(t *testing.T) {
	a := simResult{fingerprint: "aa", p99: 10}
	b := a
	b.p99 = 11
	r := &result{}
	checkSims(r, []simResult{a, a, b})
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "repeat 2") {
		t.Errorf("problems = %v, want one naming repeat 2", r.problems)
	}
}

// TestTracerConcurrentSpans records spans from several goroutines at once,
// as the engine's workers do through the sweep's PointRunner.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "harness.RunWith", "")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.end(tr.begin(root, "harness.point", "k"))
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	points := tr.named("harness.point")
	if len(points) != 400 {
		t.Fatalf("%d point spans, want 400", len(points))
	}
	for _, p := range points {
		if p.Parent != root || p.End < p.Start {
			t.Fatalf("bad span %+v", p)
		}
	}
}
