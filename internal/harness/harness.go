// Package harness runs the paper's experiments: it builds networks from
// declarative specs, applies the warm-up / measurement / drain methodology,
// normalizes throughput against network capacity, and renders the resulting
// curves as tables and CSV. The canned specs in figures.go correspond
// one-to-one to the paper's figures.
package harness

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// AlgSpec describes one curve of an experiment: a routing algorithm with
// its selection function and recovery settings.
type AlgSpec struct {
	// Label names the curve; defaults to the algorithm name.
	Label     string
	Algorithm routing.Algorithm
	// Selection defaults to random (the paper simulates Dally & Aoki with
	// minimum-congestion and everything else with random selection).
	Selection routing.Selection
	// Recovery enables time-out detection, the Token and the Deadlock
	// Buffer. It must be true for Disha and false for avoidance schemes.
	Recovery bool
	// Timeout is T_out in cycles when Recovery is on (default 8).
	Timeout sim.Cycle
}

func (a AlgSpec) label() string {
	if a.Label != "" {
		return a.Label
	}
	return a.Algorithm.Name()
}

// Spec is a declarative experiment: a topology, a traffic pattern, a set of
// algorithm curves and a load sweep.
type Spec struct {
	Name string
	// Topo builds the network graph (fresh per run for safety). Any
	// topology.Graph works; coordinate-dependent patterns and algorithms
	// additionally need it to implement topology.Topology.
	Topo func() topology.Graph
	// Pattern builds the workload for the topology.
	Pattern func(topology.Graph) (traffic.Pattern, error)
	Algs    []AlgSpec
	// Loads are the offered load rates swept (fraction of capacity).
	Loads  []float64
	MsgLen int
	// Router parameters shared by all curves (Timeout and
	// DeadlockBufferDepth are controlled per AlgSpec).
	VCs, BufferDepth int
	Alloc            router.AllocPolicy
	// Warmup cycles run before measurement; Measure cycles are observed.
	Warmup, Measure int
	Seed            uint64
	TokenHops       int
	// WFGSampleEvery, when positive, runs the wait-for-graph analyzer every
	// that many cycles during measurement and records true-deadlock
	// statistics (used for the deadlock characterization experiment).
	WFGSampleEvery int
	// Batches splits the measurement window for batch-means confidence
	// intervals on the latency estimate (default 5; 1 disables).
	Batches int
	// Replicas runs every (algorithm, load) point this many times with
	// independent seeds and aggregates the replicas into mean ± 95% CI
	// (default 1). RunOptions.Replicas overrides it.
	Replicas int
	// Chaos, when non-empty, arms this reconfiguration event schedule on
	// every point's network (and re-arms it after a checkpoint resume —
	// already-applied events replay from the snapshot's reconfiguration log
	// and are dropped on arming). Event cycles are global: warm-up plus
	// measurement. The schedule participates in PointKey, so journal and
	// cache entries never leak between chaos and chaos-free sweeps.
	Chaos []network.ReconfigEvent
}

// PointResult is the measurement of one (algorithm, load) pair. With
// replication it is the across-replica aggregate: means ± 95% CI for the
// rate metrics, sums for the event counters.
type PointResult struct {
	Load           float64
	MeanLatency    float64 // creation -> delivery, cycles
	LatencyCI95    float64 // 95% CI halfwidth on MeanLatency: batch-means for a single run, across replicas otherwise
	MeanNetLatency float64 // injection -> delivery, cycles
	P95Latency     float64
	Delivered      int64
	Offered        int64
	Throughput     float64 // normalized accepted traffic, fraction of capacity
	ThroughputCI95 float64 // across-replica 95% CI halfwidth (0 for a single run)
	TokenSeizures  int64   // during measurement
	SeizureRatio   float64 // seizures / delivered (Figure 3a's y-axis)
	TimeoutEvents  int64
	TrueDeadlocks  int64 // WFG-sampled deadlocked configurations (if enabled)
	WFGSamples     int64
	MisrouteHops   int64
	PacketsLost    int64 // dropped by chaos reconfiguration events in-window
	Replicas       int   // independent runs aggregated into this point (>= 1)
}

// Result bundles an experiment's curves.
type Result struct {
	Spec   *Spec
	Series []metrics.Series
	Points map[string][]PointResult // keyed by curve label
}

// RunOptions controls how the experiment engine executes a Spec.
type RunOptions struct {
	// Parallel is the worker count; 0 means GOMAXPROCS, 1 forces a serial
	// run. Thanks to identity-keyed seeding the results are bit-identical
	// for every value.
	Parallel int
	// Replicas overrides Spec.Replicas when positive.
	Replicas int
	// Retries is how many extra attempts a failing point gets.
	Retries int
	// Journal, when non-empty, checkpoints completed points to this JSONL
	// file; Resume replays it so a killed sweep restarts where it left off.
	Journal string
	Resume  bool
	// CheckpointEvery, when positive and CheckpointDir is set, snapshots
	// every in-progress point's complete simulation state each time that
	// many cycles (warm-up plus measurement) elapse. A killed sweep then
	// resumes mid-point from the last checkpoint — not just at point
	// granularity like the journal — and the resumed run's results are
	// byte-identical to an uninterrupted one. Checkpoint files are removed
	// as their points complete.
	CheckpointEvery int
	// CheckpointDir is the directory holding per-point checkpoint files
	// (created if missing). Point identity is embedded in each file, so a
	// directory can safely be shared across different sweeps.
	CheckpointDir string
	// Progress, if non-nil, receives one line per settled point.
	Progress func(string)
	// PointRunner, if non-nil, intercepts every point's execution: instead
	// of simulating in-process the engine hands the task (plus a local
	// fallback closure) to this function, which may execute it anywhere — a
	// remote fleet worker, a shared result cache — as long as it returns the
	// value the local closure would. Determinism is preserved because the
	// task carries the engine-derived seed: any executor computing the same
	// pure function of (spec, alg, load, seed) returns identical bytes.
	PointRunner func(t PointTask, local func() (PointResult, error)) (PointResult, error)
	// Stop, if non-nil, drains the sweep when closed: in-flight points
	// finish (and are journaled), undispatched points are aborted (see
	// engine.Config.Stop).
	Stop <-chan struct{}
	// Status, if non-nil, receives the engine's structured progress
	// (done/total, ETA) after every settled point.
	Status func(engine.Status)
	// Metrics, if non-nil, exports live progress through its telemetry
	// registry (see engine.NewMetrics).
	Metrics *engine.Metrics
}

// Run executes the experiment across all available cores. progress, if
// non-nil, receives one line per completed point (in completion order; the
// results themselves are deterministic regardless of parallelism).
func (s *Spec) Run(progress func(string)) (*Result, error) {
	res, _, err := s.RunWith(RunOptions{Progress: progress})
	return res, err
}

// pointJob identifies one engine job of this spec.
type pointJob struct {
	alg     AlgSpec
	load    float64
	replica int
}

// PointTask is the portable identity of one engine point job, handed to
// RunOptions.PointRunner. Key and Seed pin the result bytes; Alg, Load and
// Replica let a remote executor rebuild the task from the spec.
type PointTask struct {
	Key     string
	Seed    uint64
	Alg     string
	Load    float64
	Replica int
}

// RunWith executes the experiment through the engine. On point failures it
// returns the partial Result (every fully-replicated point that did
// complete), the engine report naming the failed jobs, and a non-nil error.
func (s *Spec) RunWith(opts RunOptions) (*Result, *engine.Report, error) {
	if err := s.normalize(); err != nil {
		return nil, nil, err
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("harness: checkpoint dir: %w", err)
		}
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = s.Replicas
	}
	if replicas <= 0 {
		replicas = 1
	}

	meta := make(map[string]pointJob)
	var jobs []engine.Job[PointResult]
	for _, alg := range s.Algs {
		alg := alg
		for _, load := range s.Loads {
			load := load
			for r := 0; r < replicas; r++ {
				r := r
				key := s.PointKey(alg.label(), load, r)
				meta[key] = pointJob{alg: alg, load: load, replica: r}
				ck := newCheckpointer(opts, key)
				jobs = append(jobs, engine.Job[PointResult]{
					Key: key,
					Run: func(seed uint64) (PointResult, error) {
						local := func() (PointResult, error) {
							return s.runPoint(alg, load, seed, ck)
						}
						if opts.PointRunner != nil {
							return opts.PointRunner(PointTask{
								Key: key, Seed: seed, Alg: alg.label(), Load: load, Replica: r,
							}, local)
						}
						return local()
					},
				})
			}
		}
	}

	results, report, err := engine.Run(engine.Config[PointResult]{
		Workers: opts.Parallel,
		Seed:    s.Seed,
		Retries: opts.Retries,
		Journal: opts.Journal,
		Resume:  opts.Resume,
		Metrics: opts.Metrics,
		Stop:    opts.Stop,
		OnDone: func(st engine.Status, jr engine.JobResult[PointResult]) {
			if opts.Progress != nil {
				pj := meta[jr.Key]
				line := fmt.Sprintf("[%3d/%3d] %-22s load=%.2f", st.Done+st.Failed, st.Total, pj.alg.label(), pj.load)
				if replicas > 1 {
					line += fmt.Sprintf(" rep=%d", pj.replica)
				}
				switch {
				case jr.Err != "":
					line += " FAILED: " + firstLine(jr.Err)
				case jr.FromJournal:
					line += " (from journal)"
				default:
					line += fmt.Sprintf(" latency=%8.1f thpt=%.3f seiz=%d",
						jr.Value.MeanLatency, jr.Value.Throughput, jr.Value.TokenSeizures)
				}
				if st.ETA > 0 {
					line += fmt.Sprintf(" eta=%s", st.ETA.Round(1e9))
				}
				opts.Progress(line)
			}
			if opts.Status != nil {
				opts.Status(st)
			}
		},
	}, jobs)
	if err != nil {
		return nil, nil, err
	}

	// Assemble in spec order — never completion order — so parallel runs
	// render byte-identical tables and CSV.
	res := &Result{Spec: s, Points: make(map[string][]PointResult)}
	for _, alg := range s.Algs {
		series := metrics.Series{Label: alg.label()}
		for _, load := range s.Loads {
			reps := make([]PointResult, 0, replicas)
			complete := true
			for r := 0; r < replicas; r++ {
				key := s.PointKey(alg.label(), load, r)
				pr, ok := results[key]
				if !ok {
					complete = false
					break
				}
				reps = append(reps, pr)
			}
			if !complete {
				continue // failed point: reported via the engine report
			}
			pr := aggregateReplicas(load, reps)
			res.Points[alg.label()] = append(res.Points[alg.label()], pr)
			deadlockRate := 0.0
			if pr.WFGSamples > 0 {
				deadlockRate = float64(pr.TrueDeadlocks) / float64(pr.WFGSamples)
			}
			series.Append(metrics.Point{
				X:          pr.Load,
				Latency:    pr.MeanLatency,
				Throughput: pr.Throughput,
				Extra: map[string]float64{
					"seizure_ratio":      pr.SeizureRatio,
					"net_latency":        pr.MeanNetLatency,
					"p95":                pr.P95Latency,
					"latency_ci95":       pr.LatencyCI95,
					"throughput_ci95":    pr.ThroughputCI95,
					"true_deadlock_rate": deadlockRate,
				},
			})
		}
		res.Series = append(res.Series, series)
	}
	if report.Failed() > 0 {
		f := report.Failures[0]
		return res, report, fmt.Errorf("harness: %d/%d points failed (first: %s: %s)",
			report.Failed(), report.Total, f.Key, firstLine(f.Err))
	}
	return res, report, nil
}

// PointKey derives the engine job key of one (algorithm, load, replica)
// point. The key pins the full identity of the point — spec configuration
// included, so a journal cannot leak results across different scales or
// seeds of the same figure — and via engine.SeedFor it also pins the
// point's random stream. Remote executors use it as the content fingerprint
// input: two points with equal keys (and equal base seeds) are guaranteed
// to produce identical result bytes.
func (s *Spec) PointKey(algLabel string, load float64, replica int) string {
	cfgTag := fmt.Sprintf("%s|seed=%x|w=%d|m=%d|msg=%d|vc=%d|bd=%d",
		s.Name, s.Seed, s.Warmup, s.Measure, s.MsgLen, s.VCs, s.BufferDepth)
	if len(s.Chaos) > 0 {
		h := fnv.New64a()
		for _, ev := range s.Chaos {
			fmt.Fprintf(h, "%d|%d|%d|%d|%s;", ev.Cycle, ev.Kind, ev.Node, ev.Port, ev.Alg)
		}
		cfgTag += fmt.Sprintf("|chaos=%x", h.Sum64())
	}
	return fmt.Sprintf("%s/%s@%.4f#%d", cfgTag, algLabel, load, replica)
}

// PointOptions configures a single RunPoint execution (the fleet worker
// path). All fields are optional; the zero value runs the point without
// checkpointing.
type PointOptions struct {
	// Key is the engine job key of the point (Spec.PointKey). It names and
	// validates the checkpoint file, so it is required when checkpointing.
	Key string
	// CheckpointEvery/CheckpointDir enable mid-point checkpointing exactly
	// as in RunOptions: the point's full simulation state is persisted every
	// CheckpointEvery cycles, and an existing checkpoint for Key is resumed.
	CheckpointEvery int
	CheckpointDir   string
	// OnCheckpoint, if non-nil, receives the sealed checkpoint bytes after
	// every successful save — the hook a fleet worker uses to stream its
	// progress blob to the coordinator. A non-nil return aborts the point.
	OnCheckpoint func(data []byte) error
}

// RunPoint executes one (algorithm, load) point with an explicit seed and
// returns its measurement. It is the remote half of RunOptions.PointRunner:
// a fleet worker receives (alg label, load, seed) from the coordinator and
// computes here exactly what the coordinator's local fallback would, so the
// result bytes are identical wherever the point runs. The algorithm is
// selected by its curve label within this spec.
func (s *Spec) RunPoint(algLabel string, load float64, seed uint64, po PointOptions) (PointResult, error) {
	if err := s.normalize(); err != nil {
		return PointResult{}, err
	}
	var alg *AlgSpec
	for i := range s.Algs {
		if s.Algs[i].label() == algLabel {
			alg = &s.Algs[i]
			break
		}
	}
	if alg == nil {
		return PointResult{}, fmt.Errorf("harness: spec %q has no curve %q", s.Name, algLabel)
	}
	var ck *checkpointer
	if po.CheckpointEvery > 0 && po.CheckpointDir != "" {
		if po.Key == "" {
			return PointResult{}, fmt.Errorf("harness: RunPoint checkpointing requires PointOptions.Key")
		}
		if err := os.MkdirAll(po.CheckpointDir, 0o755); err != nil {
			return PointResult{}, fmt.Errorf("harness: checkpoint dir: %w", err)
		}
		ck = newCheckpointer(RunOptions{CheckpointEvery: po.CheckpointEvery, CheckpointDir: po.CheckpointDir}, po.Key)
		ck.onSave = po.OnCheckpoint
	}
	return s.runPoint(*alg, load, seed, ck)
}

// aggregateReplicas folds N independent runs of one point into means ± 95%
// CI (rates) and sums (event counters).
func aggregateReplicas(load float64, reps []PointResult) PointResult {
	if len(reps) == 1 {
		pr := reps[0]
		pr.Replicas = 1
		return pr
	}
	n := len(reps)
	lat := make([]float64, n)
	netLat := make([]float64, n)
	p95 := make([]float64, n)
	thpt := make([]float64, n)
	agg := PointResult{Load: load, Replicas: n}
	for i, r := range reps {
		lat[i], netLat[i], p95[i], thpt[i] = r.MeanLatency, r.MeanNetLatency, r.P95Latency, r.Throughput
		agg.Delivered += r.Delivered
		agg.Offered += r.Offered
		agg.TokenSeizures += r.TokenSeizures
		agg.TimeoutEvents += r.TimeoutEvents
		agg.TrueDeadlocks += r.TrueDeadlocks
		agg.WFGSamples += r.WFGSamples
		agg.MisrouteHops += r.MisrouteHops
		agg.PacketsLost += r.PacketsLost
	}
	agg.MeanLatency = metrics.Mean(lat)
	agg.LatencyCI95 = metrics.CI95(lat)
	agg.MeanNetLatency = metrics.Mean(netLat)
	agg.P95Latency = metrics.Mean(p95)
	agg.Throughput = metrics.Mean(thpt)
	agg.ThroughputCI95 = metrics.CI95(thpt)
	if agg.Delivered > 0 {
		agg.SeizureRatio = float64(agg.TokenSeizures) / float64(agg.Delivered)
	}
	return agg
}

// firstLine truncates multi-line errors (panic stacks) for progress output.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Normalize fills the spec's defaulted fields (message length, VCs, buffer
// depth, cycle counts, ...) exactly as RunWith does before deriving job
// keys. Remote executors must call it before PointKey so their keys match
// the coordinator's byte for byte.
func (s *Spec) Normalize() error { return s.normalize() }

func (s *Spec) normalize() error {
	if s.Topo == nil || s.Pattern == nil || len(s.Algs) == 0 || len(s.Loads) == 0 {
		return fmt.Errorf("harness: spec %q incomplete", s.Name)
	}
	if s.MsgLen == 0 {
		s.MsgLen = 32
	}
	if s.VCs == 0 {
		s.VCs = 4
	}
	if s.BufferDepth == 0 {
		s.BufferDepth = 2
	}
	if s.Warmup == 0 {
		s.Warmup = 2000
	}
	if s.Measure == 0 {
		s.Measure = 6000
	}
	if s.TokenHops == 0 {
		s.TokenHops = 4
	}
	if s.Batches == 0 {
		s.Batches = 5
	}
	if s.Batches < 1 {
		return fmt.Errorf("harness: batches %d < 1", s.Batches)
	}
	return nil
}

// runPoint measures one (algorithm, load) pair with the given simulation
// seed. It is called concurrently by engine workers: everything it touches
// (topology, pattern, network) is built fresh per call, and the stateless
// algorithm/selection values are safe to share.
//
// A non-nil checkpointer makes the point resumable: progress is persisted
// every CheckpointEvery cycles, a previous checkpoint (if present) is loaded
// before the first step, and because the simulation is deterministic the
// resumed point finishes with results byte-identical to an uninterrupted run
// (TestCheckpointResumeIdenticalCSV).
func (s *Spec) runPoint(alg AlgSpec, load float64, seed uint64, ck *checkpointer) (PointResult, error) {
	topo := s.Topo()
	pattern, err := s.Pattern(topo)
	if err != nil {
		return PointResult{}, err
	}
	rc := router.Default()
	rc.VCs = s.VCs
	rc.BufferDepth = s.BufferDepth
	rc.Alloc = s.Alloc
	if alg.Recovery {
		rc.Timeout = alg.Timeout
		if rc.Timeout == 0 {
			rc.Timeout = 8
		}
		rc.DeadlockBufferDepth = 1
	} else {
		rc.Timeout = 0
		rc.DeadlockBufferDepth = 0
	}
	net, err := network.New(network.Config{
		Topo:              topo,
		Router:            rc,
		Algorithm:         alg.Algorithm,
		Selection:         alg.Selection,
		Pattern:           pattern,
		LoadRate:          load,
		MsgLen:            s.MsgLen,
		Seed:              seed,
		TokenHopsPerCycle: s.TokenHops,
	})
	if err != nil {
		return PointResult{}, err
	}

	// The resumable cursor: a fresh start begins at zero everywhere; with
	// checkpointing enabled, a prior checkpoint reloads the cursor, the
	// collectors and the network, and the loops below continue from it.
	var age, netLat, batch metrics.Collector
	st := pointProgress{nextWFG: s.WFGSampleEvery}
	if ck != nil {
		if _, err := ck.load(&st, &age, &netLat, &batch, net); err != nil {
			return PointResult{}, err
		}
		ck.arm(st.warmupRan + st.ran)
	}
	// Arm the chaos schedule after any restore: events already applied were
	// replayed from the snapshot's reconfiguration log, and ScheduleReconfig
	// drops them as stale, so a resumed point replays the remaining
	// timeline exactly.
	if len(s.Chaos) > 0 {
		if err := net.ScheduleReconfig(s.Chaos); err != nil {
			return PointResult{}, err
		}
	}

	// Warm-up: run without collecting.
	for st.warmupRan < s.Warmup {
		step := s.Warmup - st.warmupRan
		if ck != nil {
			step = ck.clamp(step, st.warmupRan+st.ran)
		}
		net.Run(step)
		st.warmupRan += step
		if ck != nil && ck.due(st.warmupRan+st.ran) {
			if err := ck.save(&st, &age, &netLat, &batch, net); err != nil {
				return PointResult{}, err
			}
		}
	}
	if !st.warmed {
		st.warmed = true
		st.startCounters = net.Counters()
	}

	// Measurement: collect latency of every packet delivered in-window,
	// batched for the confidence interval. (The callback is reattached on
	// every entry — restore does not carry it — so a resumed point collects
	// exactly the deliveries an uninterrupted run would.)
	net.OnDeliver = func(p *packet.Packet) {
		age.Add(float64(p.Age()))
		netLat.Add(float64(p.NetworkLatency()))
		batch.Add(float64(p.Age()))
	}
	pr := PointResult{Load: load}
	for b := st.batch; b < s.Batches; b++ {
		st.batch = b
		target := (b + 1) * s.Measure / s.Batches
		for st.ran < target {
			step := target - st.ran
			if s.WFGSampleEvery > 0 && st.nextWFG-st.ran < step {
				step = st.nextWFG - st.ran
			}
			if ck != nil {
				step = ck.clamp(step, st.warmupRan+st.ran)
			}
			net.Run(step)
			st.ran += step
			if s.WFGSampleEvery > 0 && st.ran >= st.nextWFG {
				w := core.AnalyzeWFG(net.Routers())
				st.wfgSamples++
				if w.TrueDeadlock() {
					st.trueDeadlocks++
				}
				st.nextWFG += s.WFGSampleEvery
			}
			if ck != nil && ck.due(st.warmupRan+st.ran) {
				if err := ck.save(&st, &age, &netLat, &batch, net); err != nil {
					return PointResult{}, err
				}
			}
		}
		if batch.Count() > 0 {
			st.batchMeans = append(st.batchMeans, batch.Mean())
		}
		batch.Reset()
	}
	pr.WFGSamples = st.wfgSamples
	pr.TrueDeadlocks = st.trueDeadlocks
	pr.LatencyCI95 = metrics.CI95(st.batchMeans)
	end := net.Counters()

	if ck != nil {
		ck.finish()
	}
	startCounters := st.startCounters
	delivered := end.PacketsDelivered - startCounters.PacketsDelivered
	flits := end.FlitsDelivered - startCounters.FlitsDelivered
	pr.Delivered = delivered
	pr.Offered = end.PacketsOffered - startCounters.PacketsOffered
	pr.MeanLatency = age.Mean()
	pr.MeanNetLatency = netLat.Mean()
	pr.P95Latency = age.Percentile(95)
	pr.TokenSeizures = end.TokenSeizures - startCounters.TokenSeizures
	pr.TimeoutEvents = end.TimeoutEvents - startCounters.TimeoutEvents
	pr.MisrouteHops = end.MisrouteHops - startCounters.MisrouteHops
	pr.PacketsLost = end.PacketsLost - startCounters.PacketsLost
	if delivered > 0 {
		pr.SeizureRatio = float64(pr.TokenSeizures) / float64(delivered)
	}

	// Normalized accepted traffic: flits/node/cycle over the network's
	// capacity (the load normalization of Section 4.1 in reverse).
	ms := traffic.MeasureMean(topo, pattern, 64)
	capacityFPC := float64(traffic.TotalChannels(topo)) / (float64(topo.Nodes()) * ms.MeanDistance)
	accepted := float64(flits) / (float64(s.Measure) * float64(topo.Nodes()))
	pr.Throughput = accepted / capacityFPC
	return pr, nil
}

// --- Rendering -----------------------------------------------------------------

// LatencyTable renders mean latency vs load, one column per curve.
func (r *Result) LatencyTable() string {
	return r.table("latency (cycles)", func(p PointResult) float64 { return p.MeanLatency }, "%10.1f")
}

// ThroughputTable renders normalized accepted traffic vs load.
func (r *Result) ThroughputTable() string {
	return r.table("throughput (fraction of capacity)", func(p PointResult) float64 { return p.Throughput }, "%10.3f")
}

// SeizureTable renders token seizures normalized by delivered packets.
func (r *Result) SeizureTable() string {
	return r.table("token seizures / delivered packet", func(p PointResult) float64 { return p.SeizureRatio }, "%10.5f")
}

func (r *Result) table(title string, f func(PointResult) float64, cellFmt string) string {
	labels := make([]string, 0, len(r.Points))
	for l := range r.Points {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", r.Spec.Name, title)
	fmt.Fprintf(&sb, "%6s", "load")
	for _, l := range labels {
		fmt.Fprintf(&sb, " %20s", l)
	}
	sb.WriteString("\n")
	for i, load := range r.Spec.Loads {
		fmt.Fprintf(&sb, "%6.2f", load)
		for _, l := range labels {
			pts := r.Points[l]
			if i < len(pts) {
				fmt.Fprintf(&sb, " %20s", fmt.Sprintf(cellFmt, f(pts[i])))
			} else {
				fmt.Fprintf(&sb, " %20s", "-")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders every curve's points as CSV (one block per curve).
func (r *Result) CSV() string {
	var sb strings.Builder
	for _, s := range r.Series {
		sb.WriteString(s.CSV())
	}
	return sb.String()
}

// SaturationSummary reports each curve's saturation load (latency > 3x
// zero-load) and peak throughput — the numbers the paper quotes in prose.
func (r *Result) SaturationSummary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — saturation summary\n", r.Spec.Name)
	fmt.Fprintf(&sb, "%-22s %12s %12s\n", "curve", "saturation", "peak-thpt")
	for _, s := range r.Series {
		fmt.Fprintf(&sb, "%-22s %12.2f %12.3f\n", s.Label, s.SaturationLoad(3), s.PeakThroughput())
	}
	return sb.String()
}
