package harness

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func tinySpec() *Spec {
	return &Spec{
		Name:    "tiny",
		Topo:    func() topology.Graph { return topology.MustTorus(4, 4) },
		Pattern: uniformPattern,
		Algs: []AlgSpec{
			{Algorithm: routing.Disha(0), Recovery: true, Timeout: 8},
			{Algorithm: routing.DOR()},
		},
		Loads:   []float64{0.2, 0.5},
		MsgLen:  8,
		Warmup:  300,
		Measure: 800,
		Seed:    42,
	}
}

func TestRunProducesSeries(t *testing.T) {
	spec := tinySpec()
	var lines []string
	res, err := spec.Run(func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if len(lines) != 4 {
		t.Fatalf("progress lines = %d, want 4", len(lines))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Latency <= 0 {
				t.Fatalf("%s: non-positive latency at load %v", s.Label, p.X)
			}
			if p.Throughput <= 0 || p.Throughput > 1.2 {
				t.Fatalf("%s: implausible throughput %v", s.Label, p.Throughput)
			}
		}
	}
	for label, pts := range res.Points {
		for _, p := range pts {
			if p.Delivered == 0 {
				t.Fatalf("%s delivered nothing at load %v", label, p.Load)
			}
			if p.MeanNetLatency > p.MeanLatency+1e-9 {
				t.Fatalf("%s: network latency exceeds age", label)
			}
		}
	}
}

func TestThroughputTracksLoadBelowSaturation(t *testing.T) {
	spec := tinySpec()
	spec.Algs = spec.Algs[:1] // Disha only
	// 0.4 offered load already grazes saturation on the tiny 4x4 torus
	// (acceptance ~0.75x offered); stay clearly below it.
	spec.Loads = []float64{0.2, 0.35}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points[spec.Algs[0].label()]
	// Below saturation accepted ~= offered: throughput within 25% of load.
	for _, p := range pts {
		if p.Throughput < p.Load*0.75 || p.Throughput > p.Load*1.25 {
			t.Fatalf("throughput %v at load %v diverges from offered", p.Throughput, p.Load)
		}
	}
	if pts[1].Throughput <= pts[0].Throughput {
		t.Fatal("throughput must grow with load below saturation")
	}
}

func TestRecoveryFlagControlsRouterConfig(t *testing.T) {
	spec := tinySpec()
	spec.Loads = []float64{0.3}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	dor := res.Points["dor"][0]
	if dor.TokenSeizures != 0 || dor.TimeoutEvents != 0 {
		t.Fatal("avoidance curve must run without detection/recovery")
	}
}

func TestWFGSampling(t *testing.T) {
	spec := tinySpec()
	spec.Algs = []AlgSpec{{Algorithm: routing.Disha(0), Recovery: true, Timeout: 8}}
	spec.Loads = []float64{0.3}
	spec.WFGSampleEvery = 200
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points["disha-m0"][0]
	if p.WFGSamples != 4 { // 800 / 200
		t.Fatalf("WFG samples = %d, want 4", p.WFGSamples)
	}
}

func TestIncompleteSpecFails(t *testing.T) {
	if _, err := (&Spec{Name: "broken"}).Run(nil); err == nil {
		t.Fatal("incomplete spec must fail")
	}
}

func TestTablesAndCSV(t *testing.T) {
	spec := tinySpec()
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := res.LatencyTable()
	if !strings.Contains(lat, "disha-m0") || !strings.Contains(lat, "dor") || !strings.Contains(lat, "0.50") {
		t.Fatalf("latency table malformed:\n%s", lat)
	}
	if !strings.Contains(res.ThroughputTable(), "throughput") {
		t.Fatal("throughput table malformed")
	}
	if !strings.Contains(res.SeizureTable(), "seizures") {
		t.Fatal("seizure table malformed")
	}
	csv := res.CSV()
	if !strings.Contains(csv, "series,load,latency,throughput") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
	if !strings.Contains(res.SaturationSummary(), "saturation") {
		t.Fatal("saturation summary malformed")
	}
}

func TestFigureSpecsConstruct(t *testing.T) {
	sc := SmallScale()
	figs := Figures(sc)
	for _, name := range []string{"3a", "3b", "4", "5", "6", "7"} {
		spec, ok := figs[name]
		if !ok {
			t.Fatalf("figure %s missing", name)
		}
		if err := spec.normalize(); err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		topo := spec.Topo()
		if _, err := spec.Pattern(topo); err != nil {
			t.Fatalf("figure %s pattern: %v", name, err)
		}
	}
	if len(figs["3b"].Algs) != 4 {
		t.Fatal("fig3b must sweep 4 time-outs")
	}
	if len(figs["4"].Algs) != 6 {
		t.Fatal("fig4 must compare 6 schemes")
	}
	// Dally & Aoki must use min-congestion, everything else random.
	for _, a := range figs["4"].Algs {
		if a.Algorithm.Name() == "dally-aoki" {
			if a.Selection == nil || a.Selection.Name() != "min-congestion" {
				t.Fatal("dally-aoki must use min-congestion selection")
			}
		} else if a.Selection != nil {
			t.Fatalf("%s should default to random selection", a.Algorithm.Name())
		}
	}
}

// TestFigureSmoke runs a miniature Figure 4 end to end: at the modest load
// the adaptive Disha schemes must deliver packets, and every scheme's
// latency must be at least the no-contention minimum.
func TestFigureSmoke(t *testing.T) {
	sc := Scale{Radix: 4, MsgLen: 8, Warmup: 200, Measure: 600, Loads: []float64{0.3}, Seed: 7}
	res, err := Fig4(sc).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for label, pts := range res.Points {
		if pts[0].Delivered == 0 {
			t.Fatalf("%s delivered nothing", label)
		}
		if pts[0].MeanLatency < float64(sc.MsgLen) {
			t.Fatalf("%s latency %v below message serialization time", label, pts[0].MeanLatency)
		}
	}
}

func TestHotspotPatternFixedSpot(t *testing.T) {
	sc := SmallScale()
	spec := Fig7(sc)
	topo := spec.Topo()
	p1, err := spec.Pattern(topo)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := spec.Pattern(topo)
	if p1.Name() != p2.Name() {
		t.Fatal("hotspot pattern must be reproducible")
	}
	if !strings.Contains(p1.Name(), "hotspot-5%") {
		t.Fatalf("pattern name %q", p1.Name())
	}
}

func TestScaleDefaults(t *testing.T) {
	p := PaperScale()
	if p.Radix != 16 || p.MsgLen != 32 {
		t.Fatal("paper scale must match Section 4.1")
	}
	s := SmallScale()
	if s.Radix >= p.Radix {
		t.Fatal("small scale must be smaller than paper scale")
	}
	// Uniform capacity sanity at paper scale: full load equals one packet
	// per node every 64 cycles.
	topo := topology.MustTorus(16, 16)
	prob, err := traffic.InjectionProbability(topo, traffic.Uniform(topo), 32, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if prob < 0.014 || prob > 0.017 {
		t.Fatalf("full-load probability %v out of expected band", prob)
	}
}

func TestBatchMeansCI(t *testing.T) {
	spec := tinySpec()
	spec.Algs = spec.Algs[:1]
	spec.Loads = []float64{0.3}
	res, err := spec.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[spec.Algs[0].label()][0]
	if p.LatencyCI95 <= 0 {
		t.Fatalf("expected a positive CI, got %v", p.LatencyCI95)
	}
	// The CI must be a plausible fraction of the mean at moderate load.
	if p.LatencyCI95 > p.MeanLatency {
		t.Fatalf("CI %v wider than the mean %v", p.LatencyCI95, p.MeanLatency)
	}
}

// TestEngineParallelDeterminism is the subsystem's core guarantee: a sweep
// run on one worker and on eight renders byte-identical tables and CSV.
func TestEngineParallelDeterminism(t *testing.T) {
	serialSpec, parallelSpec := tinySpec(), tinySpec()
	serialSpec.Replicas, parallelSpec.Replicas = 2, 2
	serial, _, err := serialSpec.RunWith(RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := parallelSpec.RunWith(RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSV() != parallel.CSV() {
		t.Fatalf("parallel CSV diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.CSV(), parallel.CSV())
	}
	if serial.LatencyTable() != parallel.LatencyTable() ||
		serial.ThroughputTable() != parallel.ThroughputTable() ||
		serial.SaturationSummary() != parallel.SaturationSummary() {
		t.Fatal("parallel tables diverged from serial")
	}
}

// TestResumeFromJournalEqualsUninterrupted checks the checkpoint/resume path
// end to end at the harness level: a resumed sweep renders the same bytes as
// an uninterrupted one and actually restores points from the journal.
func TestResumeFromJournalEqualsUninterrupted(t *testing.T) {
	journal := t.TempDir() + "/sweep.journal.jsonl"
	full, _, err := tinySpec().RunWith(RunOptions{Parallel: 4, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	resumed, rep, err := tinySpec().RunWith(RunOptions{Parallel: 4, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromJournal != rep.Total {
		t.Fatalf("restored %d/%d points from journal", rep.FromJournal, rep.Total)
	}
	if full.CSV() != resumed.CSV() {
		t.Fatalf("resumed CSV diverged:\n--- full ---\n%s--- resumed ---\n%s", full.CSV(), resumed.CSV())
	}
}

func TestReplicasAggregateMeanCI(t *testing.T) {
	spec := tinySpec()
	spec.Algs = spec.Algs[:1]
	spec.Loads = []float64{0.3}
	res, _, err := spec.RunWith(RunOptions{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[spec.Algs[0].label()][0]
	if p.Replicas != 3 {
		t.Fatalf("replicas = %d, want 3", p.Replicas)
	}
	if p.LatencyCI95 <= 0 || p.ThroughputCI95 <= 0 {
		t.Fatalf("across-replica CIs must be positive, got lat=%v thpt=%v", p.LatencyCI95, p.ThroughputCI95)
	}
	if p.Delivered == 0 || p.Throughput <= 0 {
		t.Fatal("aggregate lost the measurements")
	}
	// The replica mean must stay in the band the single runs occupy.
	single, _, err := spec.RunWith(RunOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := single.Points[spec.Algs[0].label()][0]
	if p.MeanLatency < sp.MeanLatency*0.5 || p.MeanLatency > sp.MeanLatency*2 {
		t.Fatalf("replica mean %v implausibly far from single run %v", p.MeanLatency, sp.MeanLatency)
	}
}

// TestFailedPointsSurfaceInReport forces one curve to fail and checks the
// partial-results contract: completed curves survive, the report names the
// failures, and RunWith returns a non-nil error.
func TestFailedPointsSurfaceInReport(t *testing.T) {
	spec := tinySpec()
	spec.Algs = append(spec.Algs, AlgSpec{
		Label:     "broken",
		Algorithm: routing.Disha(0),
		Recovery:  true,
		Timeout:   -1, // invalid: router config rejects negative timeouts
	})
	res, rep, err := spec.RunWith(RunOptions{Parallel: 2})
	if err == nil {
		t.Fatal("expected an error for the broken curve")
	}
	if rep == nil || rep.Failed() != len(spec.Loads) {
		t.Fatalf("report = %+v, want %d failures", rep, len(spec.Loads))
	}
	if res == nil || len(res.Points["disha-m0"]) != len(spec.Loads) {
		t.Fatal("healthy curves must survive as partial results")
	}
	if len(res.Points["broken"]) != 0 {
		t.Fatal("broken curve must have no points")
	}
}

// TestParallelPointsOverlap is the structural half of the engine's
// parallelism claim: with two workers the engine must have two sweep points
// in flight at once. It asserts no wall-clock speedup, so it holds on a
// loaded machine; the timed comparison is the BenchmarkSweepSerial /
// BenchmarkSweepParallel pair, which CI gates with benchgate in a job of its
// own. Every point waits at a rendezvous until a second point has started,
// so an engine that ran points one at a time would stall there; the
// rendezvous gives up after a minute to turn that stall into a failure
// rather than a hang.
func TestParallelPointsOverlap(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	overlapped := make(chan struct{})
	runner := func(_ PointTask, local func() (PointResult, error)) (PointResult, error) {
		mu.Lock()
		inFlight++
		if inFlight == 2 && peak < 2 {
			close(overlapped)
		}
		peak = max(peak, inFlight)
		mu.Unlock()
		select {
		case <-overlapped:
		case <-time.After(time.Minute):
		}
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		return local()
	}
	if _, _, err := tinySpec().RunWith(RunOptions{Parallel: 2, PointRunner: runner}); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("at most %d point in flight with Parallel=2, want 2", peak)
	}
}

// speedupSpec is the sweep the serial/parallel benchmark pair times: eight
// 8x8-torus points, long enough that per-point work dwarfs engine overhead.
func speedupSpec() *Spec {
	s := tinySpec()
	s.Topo = func() topology.Graph { return topology.MustTorus(8, 8) }
	s.Loads = []float64{0.2, 0.4, 0.6, 0.8}
	s.Warmup, s.Measure = 500, 2000
	return s
}

// BenchmarkSweepSerial runs speedupSpec on one engine worker.
func BenchmarkSweepSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := speedupSpec().RunWith(RunOptions{Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs speedupSpec on one engine worker per CPU. CI's
// engine job requires it to beat BenchmarkSweepSerial (benchgate ratio
// <= 1.0); results are byte-identical either way, only wall time differs.
func BenchmarkSweepParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := speedupSpec().RunWith(RunOptions{Parallel: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}
