package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const (
	// setupRuns is how many extra set-ups a run times before measuring, on
	// top of the one every repeat pays; setup_s is their median.
	setupRuns = 6
	// sweepSetupRuns is how many set-ups of the whole sweep a fig4-sweep run
	// times; setup_s is their median.
	sweepSetupRuns = 5
	// minRepeats is the fewest repeats a run makes, so the determinism
	// self-check always has something to compare.
	minRepeats = 2
)

// spansPath is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
func spansPath(workload string, seed uint64) string {
	return fmt.Sprintf(".bench_build/perfbench/spans/%s-seed%d.jsonl", workload, seed)
}

// --- Single-simulation workloads ----------------------------------------------

// simWorkload is one serial simulation, repeated from scratch until the
// budget is spent.
type simWorkload struct {
	name string
	c    simCase
}

func uniform(g topology.Graph) (traffic.Pattern, error) { return traffic.NewUniform(g) }

func parsed(name string) func() (topology.Graph, error) {
	return func() (topology.Graph, error) { return topology.Parse(name) }
}

// dishaM0 is the paper's Disha with minimal routing and sequential
// Token-based recovery at T_out = 8.
var dishaM0 = harness.AlgSpec{Algorithm: routing.Disha(0), Recovery: true, Timeout: 8}

func torus16() simWorkload {
	return simWorkload{name: "torus16-load0.5", c: simCase{
		topo: parsed("torus-16x16"), pattern: uniform, alg: dishaM0,
		vcs: 4, depth: 2, msgLen: 32, load: 0.5, warmup: 1000, measure: 12000,
	}}
}

func mesh16() simWorkload {
	return simWorkload{name: "mesh16-recovery", c: simCase{
		topo: parsed("mesh-16x16"), pattern: uniform, alg: dishaM0,
		vcs: 2, depth: 2, msgLen: 32, load: 0.3, warmup: 1000, measure: 24000,
	}}
}

func (w simWorkload) run(seed uint64, budget time.Duration, traced bool) (*result, error) {
	c := w.c
	c.seed = seed
	r := &result{}
	if err := laneNote(r, c); err != nil {
		return nil, err
	}
	setups, news, err := simSetups(c, setupRuns)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	untracedBudget := budget
	if traced {
		tr = newTracer()
		untracedBudget = budget / 2
	}
	plain, err := repeatSim(c, untracedBudget, nil, 0)
	if err != nil {
		return nil, err
	}
	all := plain
	var tracedReps []simResult
	var phase span
	if traced {
		ph := tr.begin(0, "bench.phase", "traced")
		tracedReps, err = repeatSim(c, budget-untracedBudget, tr, ph)
		tr.end(ph)
		if err != nil {
			return nil, err
		}
		phase = tr.named("bench.phase")[0]
		all = append(append([]simResult(nil), plain...), tracedReps...)
	}
	for _, rep := range all {
		setups = append(setups, rep.setup.Seconds())
		news = append(news, rep.newDur.Seconds()*1e3)
	}
	checkSims(r, all)
	for _, rep := range all {
		r.attempted += rep.attempted
		r.failed += rep.failed
	}

	first := all[0]
	walls := mapSims(plain, func(s simResult) float64 { return s.wall.Seconds() })
	cps := func(reps []simResult) float64 {
		return median(mapSims(reps, func(s simResult) float64 { return float64(c.measure) / s.wall.Seconds() }))
	}
	r.e2e = []metric{
		{"cycles_per_s", "cycles/s", cps(plain)},
		{"points_per_s", "points/s", median(mapSims(plain, func(s simResult) float64 { return 1 / s.total.Seconds() }))},
		{"wall_s", "s", median(walls)},
		{"cpu_s", "s", median(mapSims(plain, func(s simResult) float64 { return s.cpu.Seconds() }))},
		{"setup_s", "s", median(setups)},
		{"max_rss_mb", "MiB", float64(first.rssKB) / 1024},
		{"sim_throughput", "fraction", first.throughput},
		{"sim_latency_p50_cycles", "cycles", first.p50},
		{"sim_latency_p99_cycles", "cycles", first.p99},
	}
	n99 := beyond(first.latencies, first.p99)
	r.notef("window warmup=%d measure=%d cycles; %d untraced repeats, wall_s each %.4g; latency samples n=%d, %d beyond p99",
		c.warmup, c.measure, len(plain), walls, len(first.latencies), n99)
	if n99 < minBeyond {
		r.problemf("p99 latency has %d samples beyond it, want >= %d", n99, minBeyond)
	}
	r.notef("fingerprint %s (compared across %d repeats)", first.fingerprint, len(all))

	if traced {
		r.layers = simLayers(r, c, plain, tracedReps, news, tr)
		r.layers = append(r.layers, pointLayers(r, tr.named("bench.point"), phase, 1)...)
		r.layers = append(r.layers, metric{"telemetry.tracing_overhead_ratio", "ratio", cps(plain) / cps(tracedReps)})
		if err := finishTrace(r, tr, w.name, seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// laneNote records whether the case's Deadlock Buffer lane has an acyclic
// channel dependency graph (the condition token-free recovery relies on).
func laneNote(r *result, c simCase) error {
	g, err := c.topo()
	if err != nil {
		return err
	}
	if ct, ok := topology.Coordinated(g); ok {
		r.notef("topology %s: Deadlock Buffer lane CDG acyclic=%v", g.Name(), core.BuildLaneCDG(g, core.DORLane(ct)).Acyclic())
	}
	return nil
}

// simSetups times n set-ups of c, returning seconds per set-up and
// milliseconds per network.New.
func simSetups(c simCase, n int) (setups, news []float64, err error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		net, _, _, newDur, err := c.build(nil, 0)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		news = append(news, newDur.Seconds()*1e3)
		net.Close()
	}
	return setups, news, nil
}

// repeatSim runs c from scratch until budget is spent, and at least
// minRepeats times. It stops before a repeat that would overrun the budget,
// judged by the previous repeat's length.
func repeatSim(c simCase, budget time.Duration, tr *tracer, parent int) ([]simResult, error) {
	start := time.Now()
	var out []simResult
	for len(out) < minRepeats || time.Since(start)+out[len(out)-1].total <= budget {
		runtime.GC()
		res, err := runSim(c, tr, parent, fmt.Sprintf("repeat#%d", len(out)))
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// checkSims applies the correctness gate's verdicts and the determinism
// self-check to a run's repeats.
func checkSims(r *result, reps []simResult) {
	for i, rep := range reps {
		if rep.gateErr != nil {
			r.problemf("repeat %d: %v", i, rep.gateErr)
		}
		if rep.simKey() != reps[0].simKey() {
			r.problemf("repeat %d is not identical to repeat 0: fingerprint %s vs %s", i, rep.fingerprint, reps[0].fingerprint)
		}
	}
}

func mapSims(reps []simResult, f func(simResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// simLayers derives the network, router, routing, core and lower-layer
// metrics of a simulation from its untraced repeats (allocations), traced
// repeats (phase profiler and probes) and window counters.
func simLayers(r *result, c simCase, plain, traced []simResult, newMS []float64, tr *tracer) []metric {
	var ph phaseSums
	var pr probeStats
	for _, t := range traced {
		ph.add(t.phases)
		pr.add(t.probe)
	}
	d := plain[0].delta
	cycles := float64(d.Cycles)
	pkts := float64(max(d.PacketsDelivered, 1))
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	routeNS := 0.0
	if pr.routeCalls > 0 {
		routeNS = float64(pr.routeNS) / float64(pr.routeCalls)
	}
	r.notef("probes: %d samples every %d cycles, %d Algorithm.Route calls on live headers, %d wait-for-graph analyses (%d true deadlocks); profiler every %d cycles",
		pr.samples, probeEvery, pr.routeCalls, pr.wfgSamples, pr.wfgTrue, profileEvery)
	ms := []metric{
		{"network.step_ns", "ns", ph.meanNS("step_total")},
		{"network.inject_ns", "ns", ph.meanNS("inject")},
		{"network.recovery_ns", "ns", ph.meanNS("recovery")},
		{"network.active_sweep_ns", "ns", ph.meanNS("active_sweep")},
		{"network.active_router_ratio", "ratio", pr.activeRatio / float64(max(pr.samples, 1))},
		{"network.allocs_per_cycle", "allocs", median(mapSims(plain, func(s simResult) float64 { return float64(s.allocs) / cycles }))},
		{"network.alloc_bytes_per_cycle", "B", median(mapSims(plain, func(s simResult) float64 { return float64(s.allocBytes) / cycles }))},
		{"network.new_ms", "ms", median(newMS)},
		{"network.token_hold_ratio", "ratio", float64(d.TokenHold) / cycles},
		{"network.token_seizures_per_kpkt", "1/kpkt", 1000 * float64(d.TokenSeizures) / pkts},
		{"network.recoveries_per_kpkt", "1/kpkt", 1000 * float64(d.Recoveries) / pkts},
		{"router.switch_allocate_ns", "ns", ph.meanNS("switch_allocate")},
		{"router.commit_ns", "ns", ph.meanNS("commit")},
		{"router.db_resolve_ns", "ns", ph.meanNS("db_resolve")},
		{"router.timers_ns", "ns", ph.meanNS("timers")},
		{"router.blocked_cycles_per_pkt", "cycles", float64(d.BlockedCycles) / pkts},
		{"router.timeouts_per_kpkt", "1/kpkt", 1000 * float64(d.TimeoutEvents) / pkts},
		{"router.false_detection_ratio", "ratio", ratio(d.FalseDetections, d.TimeoutEvents)},
		{"routing.route_compute_ns", "ns", ph.meanNS("route_compute")},
		{"routing.route_ns", "ns", routeNS},
		{"routing.misroute_hops_per_pkt", "hops", float64(d.MisrouteHops) / pkts},
		{"core.true_deadlock_ratio", "ratio", ratio(int64(pr.wfgTrue), int64(pr.wfgSamples))},
	}
	g, _ := c.topo()
	pat, _ := c.pattern(g)
	return append(ms, microbench(g, pat, c.seed, tr)...)
}

// pointLayers derives the harness and engine metrics from the point spans of
// one traced section run by the given number of workers.
func pointLayers(r *result, points []span, section span, workers int) []metric {
	durs := make([]float64, len(points))
	var sum, lastStart int64
	for i, p := range points {
		durs[i] = float64(p.End-p.Start) / 1e9
		sum += p.End - p.Start
		lastStart = max(lastStart, p.Start)
	}
	wall := section.End - section.Start
	// Worker time idle once the last point has been dispatched: workers
	// times the tail interval, less the point time inside it.
	idle := int64(workers) * (section.End - lastStart)
	for _, p := range points {
		idle -= max(0, p.End-max(p.Start, lastStart))
	}
	sorted := append([]float64(nil), durs...)
	sort.Float64s(sorted)
	if q, v, ok := tailPercentile(sorted); ok {
		r.notef("harness.point_s p50=%.4g s p%g=%.4g s (n=%d, %d beyond)", percentile(sorted, 50), q, v, len(sorted), beyond(sorted, v))
	} else {
		r.notef("harness.point_s p50=%.4g s (n=%d: too few for a tail percentile with %d beyond)", percentile(sorted, 50), len(sorted), minBeyond)
	}
	return []metric{
		{"harness.point_s", "s", median(durs)},
		{"engine.parallel_efficiency", "ratio", float64(sum) / float64(wall*int64(workers))},
		{"engine.points_in_flight_mean", "points", float64(sum) / float64(wall)},
		{"engine.tail_idle_s", "s", float64(idle) / 1e9},
	}
}

// finishTrace writes the spans and prints each layer's self time.
func finishTrace(r *result, tr *tracer, workload string, seed uint64) error {
	path := spansPath(workload, seed)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.notef("spans %s (%d spans)", path, len(tr.spans))
	r.notes = append(r.notes, strings.TrimSuffix(selfTimeReport(selfTimes(tr.spans)), "\n"))
	return nil
}

// --- The Fig. 4 sweep ---------------------------------------------------------

// sweepWorkload regenerates Fig. 4 through the harness with shortened
// windows, repeated until the budget is spent.
type sweepWorkload struct {
	warmup, measure int
}

func (w sweepWorkload) spec(seed uint64) (*harness.Spec, error) {
	spec, err := harness.SpecFor("4", "paper", w.warmup, w.measure, seed, nil)
	if err != nil {
		return nil, err
	}
	return spec, spec.Normalize()
}

func label(a harness.AlgSpec) string {
	if a.Label != "" {
		return a.Label
	}
	return a.Algorithm.Name()
}

// pointCase is the simulation the harness runs for one sweep point.
func pointCase(spec *harness.Spec, a harness.AlgSpec, load float64, replica int) simCase {
	return simCase{
		topo:    func() (topology.Graph, error) { return spec.Topo(), nil },
		pattern: spec.Pattern,
		alg:     a,
		vcs:     spec.VCs, depth: spec.BufferDepth, msgLen: spec.MsgLen,
		load: load, warmup: spec.Warmup, measure: spec.Measure,
		seed: engine.SeedFor(spec.Seed, spec.PointKey(label(a), load, replica)),
	}
}

// setup times resolving the spec and building every point's network once,
// and returns each network.New's milliseconds.
func (w sweepWorkload) setup(seed uint64) (time.Duration, []float64, error) {
	t0 := time.Now()
	spec, err := w.spec(seed)
	if err != nil {
		return 0, nil, err
	}
	var news []float64
	for _, a := range spec.Algs {
		for _, load := range spec.Loads {
			net, _, _, newDur, err := pointCase(spec, a, load, 0).build(nil, 0)
			if err != nil {
				return 0, nil, err
			}
			news = append(news, newDur.Seconds()*1e3)
			net.Close()
		}
	}
	return time.Since(t0), news, nil
}

// sweepResult is one full sweep.
type sweepResult struct {
	res         *harness.Result
	wall, cpu   time.Duration
	rssKB       int64 // the process's peak resident set when the sweep ended
	points      int
	failed      int
	fingerprint string // SHA-256 of Result.CSV()
	problems    []string
}

// m3Label names Fig. 4's headline curve, Disha with up to three misroutes.
var m3Label = routing.Disha(3).Name()

func (w sweepWorkload) once(seed uint64, tr *tracer) (sweepResult, error) {
	spec, err := w.spec(seed)
	if err != nil {
		return sweepResult{}, err
	}
	opts := harness.RunOptions{Parallel: runtime.NumCPU()}
	root := tr.begin(0, "harness.RunWith", "")
	if tr != nil {
		opts.PointRunner = func(t harness.PointTask, local func() (harness.PointResult, error)) (harness.PointResult, error) {
			sp := tr.begin(root, "harness.point", t.Key)
			defer tr.end(sp)
			return local()
		}
	}
	runtime.GC()
	u0 := readUsage()
	res, _, err := spec.RunWith(opts)
	u1 := readUsage()
	tr.end(root)
	if res == nil {
		return sweepResult{}, err
	}
	out := sweepResult{res: res, wall: u1.wall.Sub(u0.wall), cpu: u1.cpu - u0.cpu, rssKB: u1.rssKB,
		points: len(spec.Algs) * len(spec.Loads)}
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	// A point that errored is missing from the result, so counting missing
	// points counts the engine's failures.
	for _, a := range spec.Algs {
		pts := res.Points[label(a)]
		out.failed += len(spec.Loads) - len(pts)
		for _, p := range pts {
			if p.Delivered <= 0 || p.PacketsLost != 0 {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("%s load %.2f: delivered %d, lost %d", label(a), p.Load, p.Delivered, p.PacketsLost))
			}
		}
	}
	if len(res.Points[m3Label]) != len(spec.Loads) {
		out.problems = append(out.problems, "no complete "+m3Label+" curve")
	}
	sum := sha256.Sum256([]byte(res.CSV()))
	out.fingerprint = hex.EncodeToString(sum[:])
	return out, nil
}

// sim returns the sweep's simulated figures: the disha-m3 curve's peak
// normalized throughput (Fig. 4's headline), the median over all points of
// their mean latency, and the disha-m3 curve's highest p95 latency (the
// harness records p95, not p99, per point).
func (s sweepResult) sim() (thpt, p50, p99 float64) {
	var lats []float64
	for _, pts := range s.res.Points {
		for _, p := range pts {
			lats = append(lats, p.MeanLatency)
		}
	}
	for _, p := range s.res.Points[m3Label] {
		thpt = max(thpt, p.Throughput)
		p99 = max(p99, p.P95Latency)
	}
	return thpt, median(lats), p99
}

func (w sweepWorkload) run(seed uint64, budget time.Duration, traced bool) (*result, error) {
	r := &result{}
	var setups, news []float64
	for i := 0; i < sweepSetupRuns; i++ {
		d, n, err := w.setup(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		news = append(news, n...)
	}
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	cyclesPerSweep := float64(len(spec.Algs)*len(spec.Loads)) * float64(spec.Warmup+spec.Measure)

	// A traced run makes one untraced sweep (the overhead baseline) and one
	// traced sweep; an untraced run repeats until the budget is spent.
	minSweeps := minRepeats
	if traced {
		minSweeps = 1
	}
	var sweeps []sweepResult
	start := time.Now()
	for len(sweeps) < minSweeps || !traced && time.Since(start)+sweeps[len(sweeps)-1].wall <= budget {
		s, err := w.once(seed, nil)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, s)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		s, err := w.once(seed, tr)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, s)
	}
	plain := sweeps
	if traced {
		plain = sweeps[:len(sweeps)-1]
	}
	thpt, p50, p99 := sweeps[0].sim()
	for i, s := range sweeps {
		r.attempted += int64(s.points)
		r.failed += int64(s.failed)
		for _, p := range s.problems {
			r.problemf("sweep %d: %s", i, p)
		}
		if s.fingerprint != sweeps[0].fingerprint {
			r.problemf("sweep %d CSV is not identical to sweep 0: sha256 %s vs %s", i, s.fingerprint, sweeps[0].fingerprint)
		}
		if a, b, c := s.sim(); a != thpt || b != p50 || c != p99 {
			r.problemf("sweep %d headline figures differ from sweep 0", i)
		}
	}
	walls := make([]float64, len(plain))
	cpus := make([]float64, len(plain))
	for i, s := range plain {
		walls[i], cpus[i] = s.wall.Seconds(), s.cpu.Seconds()
	}
	wall := median(walls)
	r.e2e = []metric{
		{"cycles_per_s", "cycles/s", cyclesPerSweep / wall},
		{"points_per_s", "points/s", float64(plain[0].points) / wall},
		{"wall_s", "s", wall},
		{"cpu_s", "s", median(cpus)},
		{"setup_s", "s", median(setups)},
		{"max_rss_mb", "MiB", float64(sweeps[0].rssKB) / 1024},
		{"sim_throughput", "fraction", thpt},
		{"sim_latency_p50_cycles", "cycles", p50},
		{"sim_latency_p99_cycles", "cycles", p99},
	}
	r.notef("spec %s: %d curves x %d loads, warmup=%d measure=%d cycles, %d engine workers; %d untraced sweeps, wall_s each %.4g",
		spec.Name, len(spec.Algs), len(spec.Loads), spec.Warmup, spec.Measure, runtime.NumCPU(), len(plain), walls)
	r.notef("sim_throughput is the %[1]s curve's peak; sim_latency_p50_cycles the median over all points of mean latency; sim_latency_p99_cycles the %[1]s curve's highest p95 latency", m3Label)
	r.notef("fingerprint sha256(Result.CSV())=%s (compared across %d sweeps)", sweeps[0].fingerprint, len(sweeps))

	if traced {
		if err := w.traceLayers(r, spec, sweeps[len(sweeps)-1], wall, news, tr, seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// traceLayers fills the sweep's per-layer metrics. The harness and engine
// figures come from the traced sweep's point spans, network.new_ms from the
// set-up builds of all its points' networks. The network-and-below
// figures come from re-running the disha-m3 curve's lowest-load point (the
// active-set scheduler's regime) outside the harness, once untraced and once
// traced; that re-run must reproduce the sweep's own measurement of the
// point exactly.
func (w sweepWorkload) traceLayers(r *result, spec *harness.Spec, traced sweepResult, untracedWall float64, newMS []float64, tr *tracer, seed uint64) error {
	var m3 harness.AlgSpec
	for _, a := range spec.Algs {
		if label(a) == m3Label {
			m3 = a
		}
	}
	c := pointCase(spec, m3, spec.Loads[0], 0)
	plain, err := runSim(c, nil, 0, "")
	if err != nil {
		return err
	}
	probe, err := runSim(c, tr, 0, spec.PointKey(m3Label, spec.Loads[0], 0))
	if err != nil {
		return err
	}
	// The re-run's packets are not the sweep's operations (its points are),
	// so it is checked but not counted.
	checkSims(r, []simResult{plain, probe})
	if pts := traced.res.Points[m3Label]; len(pts) > 0 {
		want := pts[0]
		if probe.delta.PacketsDelivered != want.Delivered || probe.throughput != want.Throughput ||
			probe.delta.TokenSeizures != want.TokenSeizures || probe.delta.TimeoutEvents != want.TimeoutEvents {
			r.problemf("re-run of %s load %.2f does not reproduce the sweep's point: delivered %d vs %d, throughput %v vs %v",
				m3Label, want.Load, probe.delta.PacketsDelivered, want.Delivered, probe.throughput, want.Throughput)
		}
	}
	r.notef("network-layer figures: %s at load %.2f re-run outside the harness (seed of its sweep point)", m3Label, spec.Loads[0])

	r.layers = simLayers(r, c, []simResult{plain}, []simResult{probe}, newMS, tr)
	root := tr.named("harness.RunWith")[0]
	r.layers = append(r.layers, pointLayers(r, tr.named("harness.point"), root, runtime.NumCPU())...)
	r.layers = append(r.layers, metric{"telemetry.tracing_overhead_ratio", "ratio", traced.wall.Seconds() / untracedWall})
	return finishTrace(r, tr, "fig4-sweep", seed)
}
