// Command disha-sim runs a single network simulation and prints a summary
// report: latency statistics, throughput, deadlock detection and recovery
// counters, and (optionally) a live wait-for-graph analysis.
//
// Example — the paper's configuration at moderate load:
//
//	disha-sim -radix 16 -alg disha -misroutes 3 -traffic uniform -load 0.5
//
// Example — a baseline without recovery:
//
//	disha-sim -alg duato -load 0.5 -cycles 20000
//
// Example — a non-cube topology by name (Disha routes on any graph):
//
//	disha-sim -topo dragonfly-4x2 -alg disha -load 0.3
//
// Example — full observability: Prometheus metrics + pprof on :9090 and a
// JSONL telemetry stream for disha-trace:
//
//	disha-sim -load 0.9 -vcs 1 -metrics-addr :9090 -trace-out run.jsonl -hold 60s
//	disha-trace run.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	disha "repro"
	"repro/internal/chaos"
	"repro/internal/telemetry"
)

func main() {
	var (
		radix     = flag.Int("radix", 16, "nodes per dimension")
		dims      = flag.Int("dims", 2, "dimensions")
		mesh      = flag.Bool("mesh", false, "use a mesh instead of a torus")
		topoName  = flag.String("topo", "", `topology by name: "torus-8x8", "mesh-4x4x2", "hypercube-6", "fullmesh-16", "dragonfly-4x2", "fattree-4" (overrides -radix/-dims/-mesh)`)
		algName   = flag.String("alg", "disha", "routing algorithm: disha, dor, turn, dally, duato, duato-strict")
		misroutes = flag.Int("misroutes", 0, "Disha misroute bound M")
		selName   = flag.String("sel", "random", "selection function: random, min-congestion")
		trafName  = flag.String("traffic", "uniform", "pattern: uniform, bit-reversal, transpose, hotspot, complement, tornado")
		hotFrac   = flag.Float64("hotspot-fraction", 0.05, "hot-spot traffic fraction")
		load      = flag.Float64("load", 0.4, "offered load (fraction of capacity)")
		msgLen    = flag.Int("msglen", 32, "message length in flits")
		vcs       = flag.Int("vcs", 4, "virtual channels per physical channel")
		depth     = flag.Int("depth", 2, "per-VC buffer depth in flits")
		timeout   = flag.Int("timeout", 8, "deadlock time-out T_out (recovery algorithms)")
		cycles    = flag.Int("cycles", 10000, "cycles to simulate")
		recovMode = flag.String("recovery", "sequential", "recovery mode for disha: sequential, concurrent, abort-retry")
		throttle  = flag.Int("throttle", 0, "max outstanding packets per node (0 = unthrottled)")
		rx        = flag.Int("rx", 1, "reception channels per node")
		drain     = flag.Int("drain", 0, "extra cycles to drain after stopping injection (0 = no drain)")
		seed      = flag.Uint64("seed", 1, "random seed")
		refScan   = flag.Bool("reference-scan", false, "use the retained reference scan path instead of the optimized struct-of-arrays scans (identical results; exists for conformance testing and benchmarking)")
		wfg       = flag.Bool("wfg", false, "run the wait-for-graph analyzer at the end")

		chaosScript  = flag.String("chaos-script", "", "run a chaos campaign: JSON event-schedule of mid-run kill/heal/swap reconfiguration events (see CHAOS.md)")
		chaosGen     = flag.Int("chaos-gen", 0, "generate a seeded chaos campaign of this many kill/heal events for the current topology, save it to -chaos-script, then run it (seeded by -seed)")
		chaosRouters = flag.Bool("chaos-routers", false, "include router kill/heal events in -chaos-gen campaigns")

		ckptPath    = flag.String("checkpoint", "disha-sim.ckpt", "checkpoint file path (used by -checkpoint-every and -restore)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "atomically save a checkpoint every N cycles (0 = off)")
		restore     = flag.Bool("restore", false, "restore the -checkpoint file before running; -cycles then counts total simulated cycles including the restored progress")
		fingerprint = flag.Bool("fingerprint", false, "print the final full-state SHA-256 fingerprint (restored runs match uninterrupted ones)")

		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus /metrics, /healthz, /buildz and /debug/pprof on this address (e.g. :9090)")
		traceOut     = flag.String("trace-out", "", "write telemetry samples, trace events, recovery-episode spans, flight-recorder snapshots and final counters as JSON Lines to this file")
		sampleEvery  = flag.Int("sample-every", 100, "telemetry sampling period in cycles (negative disables sampling)")
		profileEvery = flag.Int("profile-every", 64, "kernel phase-profiler sampling period in cycles (0 disables phase timing)")
		hold         = flag.Duration("hold", 0, "keep the -metrics-addr endpoint up this long after the run (for scraping/pprof)")
		version      = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}
	fail(checkSizes(*vcs, *depth, *msgLen, *rx, *cycles))

	var topo disha.Graph
	var err error
	if *topoName != "" {
		topo, err = disha.ParseTopology(*topoName)
	} else {
		radices := make([]int, *dims)
		for i := range radices {
			radices[i] = *radix
		}
		if *mesh {
			topo, err = disha.NewMesh(radices...)
		} else {
			topo, err = disha.NewTorus(radices...)
		}
	}
	fail(err)

	var alg disha.Algorithm
	recovery := false
	switch *algName {
	case "disha":
		alg = disha.DishaRouting(*misroutes)
		recovery = true
	case "dor":
		alg = disha.DOR()
	case "turn":
		alg = disha.NegativeFirst()
	case "dally":
		alg = disha.DallyAoki()
	case "duato":
		alg = disha.Duato()
	case "duato-strict":
		alg = disha.DuatoStrict()
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algName))
	}

	var sel disha.Selection
	switch *selName {
	case "random":
		sel = disha.RandomSelection()
	case "min-congestion":
		sel = disha.MinCongestionSelection()
	default:
		fail(fmt.Errorf("unknown selection %q", *selName))
	}

	var pattern disha.Pattern
	switch *trafName {
	case "uniform":
		pattern = disha.Uniform(topo)
	case "bit-reversal":
		pattern, err = disha.BitReversal(topo)
	case "transpose":
		pattern, err = disha.Transpose(coordinated(topo, *trafName))
	case "hotspot":
		pattern, err = disha.NewHotSpot(disha.Uniform(topo), disha.Node(topo.Nodes()/3), *hotFrac)
	case "complement":
		pattern = disha.Complement(coordinated(topo, *trafName))
	case "tornado":
		pattern = disha.Tornado(coordinated(topo, *trafName))
	default:
		err = fmt.Errorf("unknown traffic %q", *trafName)
	}
	fail(err)

	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo:              topo,
		Algorithm:         alg,
		Selection:         sel,
		Pattern:           pattern,
		LoadRate:          *load,
		MsgLen:            *msgLen,
		VCs:               *vcs,
		BufferDepth:       *depth,
		Timeout:           disha.Cycle(*timeout),
		DisableRecovery:   !recovery,
		Recovery:          parseRecovery(*recovMode),
		ReceptionChannels: *rx,
		InjectionThrottle: *throttle,
		Seed:              *seed,
		ReferenceScan:     *refScan,
	})
	fail(err)

	// Restore must happen while the simulator is still fresh: the snapshot
	// carries a configuration guard, so mismatched flags fail loudly here.
	if *restore {
		fail(sim.LoadCheckpoint(*ckptPath))
		fmt.Fprintf(os.Stderr, "disha-sim: restored %s at cycle %d\n", *ckptPath, sim.Now())
	}

	// Observability: attach the telemetry hub when either output is wanted.
	var (
		tel       *disha.Telemetry
		tw        *disha.TelemetryWriter
		traceFile *os.File
	)
	if *metricsAddr != "" || *traceOut != "" {
		opts := disha.TelemetryOptions{SampleEvery: *sampleEvery, ProfileEvery: *profileEvery}
		if *traceOut != "" {
			traceFile, err = os.Create(*traceOut)
			fail(err)
			tw = disha.NewTelemetryWriter(traceFile)
			tw.Meta(map[string]string{
				"topology":  topo.Name(),
				"algorithm": alg.Name(),
				"traffic":   pattern.Name(),
				"load":      fmt.Sprintf("%g", *load),
				"msglen":    strconv.Itoa(*msgLen),
				"vcs":       strconv.Itoa(*vcs),
				"timeout":   strconv.Itoa(*timeout),
				"recovery":  *recovMode,
				"cycles":    strconv.Itoa(*cycles),
				"seed":      strconv.FormatUint(*seed, 10),
			})
			opts.Writer = tw
		}
		tel = sim.EnableTelemetry(opts)
		if *metricsAddr != "" {
			bound, shutdown, err := sim.ServeMetrics(*metricsAddr)
			fail(err)
			defer shutdown()
			fmt.Fprintf(os.Stderr, "disha-sim: serving /metrics and /debug/pprof on http://%s\n", bound)
		}
	}

	// Chaos campaigns arm after any restore (events before the restored
	// cycle were replayed from the checkpoint's reconfiguration log and are
	// dropped on arming, so a resumed run replays the remaining timeline
	// exactly — see CHAOS.md) and after telemetry, so the runner's
	// recovery/reconverge histograms register on the hub.
	if *chaosGen > 0 {
		if *chaosScript == "" {
			fail(fmt.Errorf("-chaos-gen requires -chaos-script (the file to write)"))
		}
		sched, err := chaos.Generate(chaos.CampaignConfig{
			Topo: topo, Seed: *seed, Events: *chaosGen, RouterKills: *chaosRouters,
		})
		fail(err)
		fail(sched.Save(*chaosScript))
		fmt.Fprintf(os.Stderr, "disha-sim: generated chaos campaign %q -> %s\n", sched.Name, *chaosScript)
	}
	var chaosRun *chaos.Runner
	if *chaosScript != "" {
		sched, err := chaos.Load(*chaosScript)
		fail(err)
		chaosRun, err = chaos.NewRunner(sim.Network(), sched)
		fail(err)
		fmt.Fprintf(os.Stderr, "disha-sim: chaos campaign %q armed: %d events\n", sched.Name, len(sched.Events))
	}

	var lat disha.LatencyCollector
	sim.OnDeliver(func(p *disha.Packet) { lat.Add(float64(p.Age())) })
	// -cycles is the absolute target, so a restored run stops at the same
	// cycle as the uninterrupted one it resumes. Checkpoints land exactly on
	// multiples of -checkpoint-every, making saves cycle-deterministic too.
	for int64(sim.Now()) < int64(*cycles) {
		step := int64(*cycles) - int64(sim.Now())
		if *ckptEvery > 0 {
			next := (int64(sim.Now())/int64(*ckptEvery) + 1) * int64(*ckptEvery)
			if next-int64(sim.Now()) < step {
				step = next - int64(sim.Now())
			}
		}
		if chaosRun != nil {
			chaosRun.Run(step)
		} else {
			sim.Run(int(step))
		}
		if *ckptEvery > 0 && int64(sim.Now())%int64(*ckptEvery) == 0 {
			fail(sim.SaveCheckpoint(*ckptPath))
		}
	}
	drained := false
	if *drain > 0 {
		drained = sim.Drain(*drain)
		if chaosRun != nil {
			chaosRun.Sync()
		}
	}
	if tel != nil {
		tel.Registry.Publish() // final state for late scrapes
	}
	if tw != nil {
		// Episodes still unresolved at end of run are flushed as "open"
		// spans so disha-trace sees every presumption.
		tel.Episodes.FlushOpen(int64(sim.Now()))
		tw.WriteCounters(int64(sim.Now()), sim.CountersMap())
		fail(tw.Flush())
		fail(traceFile.Close())
		fmt.Fprintf(os.Stderr, "disha-sim: telemetry written to %s\n", *traceOut)
	}

	fmt.Printf("%s | %s | %s | load %.2f | %d-flit messages | %d VCs x depth %d\n",
		topo.Name(), alg.Name(), pattern.Name(), *load, *msgLen, *vcs, *depth)
	fmt.Println(strings.Repeat("-", 72))
	fmt.Print(sim.Report())
	fmt.Printf("latency:           %v\n", lat.Summarize())
	if chaosRun != nil {
		s := chaosRun.Summary()
		fmt.Println(strings.Repeat("-", 72))
		fmt.Print(chaos.FormatReports(chaosRun.Reports()))
		fmt.Printf("chaos: %d events (%d applied, %d skipped, %d unreconverged) | lost %d pkts / %d flits | worst recovery %d cy, reconverge %d cy\n",
			s.Events, s.Applied, s.Skipped, s.Open, s.PacketsLost, s.FlitsLost, s.MaxRecovery, s.MaxReconverge)
	}
	if *drain > 0 {
		fmt.Printf("drained:           %v\n", drained)
	}
	if *wfg {
		res := sim.AnalyzeDeadlock()
		fmt.Printf("wfg blocked:       %d headers\n", len(res.Blocked))
		fmt.Printf("wfg true deadlock: %v (%d members)\n", res.TrueDeadlock(), len(res.Deadlocked))
	}
	if *fingerprint {
		fmt.Printf("fingerprint:       %s\n", sim.Fingerprint())
	}
	if *metricsAddr != "" && *hold > 0 {
		fmt.Fprintf(os.Stderr, "disha-sim: holding metrics endpoint for %v\n", *hold)
		time.Sleep(*hold)
	}
}

// coordinated unwraps the cube-coordinate layer of a topology, failing with
// a usable message when the selected traffic pattern needs coordinates that
// the chosen graph (full-mesh, dragonfly, fat-tree) does not have.
func coordinated(g disha.Graph, traffic string) disha.Topology {
	t, ok := g.(disha.Topology)
	if !ok {
		fail(fmt.Errorf("%s traffic needs cube coordinates, which %s does not have (try uniform or bit-reversal)", traffic, g.Name()))
	}
	return t
}

// checkSizes rejects sizing flags the simulator would not run as given:
// SimConfig replaces a zero VC count, buffer depth, message length or
// reception-channel count with its default, which the report banner and the
// -trace-out meta would then misstate, and negative -cycles would silently
// run nothing.
func checkSizes(vcs, depth, msgLen, rx, cycles int) error {
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"vcs", vcs, 1}, {"depth", depth, 1}, {"msglen", msgLen, 1}, {"rx", rx, 1}, {"cycles", cycles, 0},
	} {
		if f.v < f.min {
			return fmt.Errorf("-%s %d: must be at least %d", f.name, f.v, f.min)
		}
	}
	return nil
}

func parseRecovery(s string) disha.RecoveryMode {
	switch s {
	case "sequential":
		return disha.RecoverySequential
	case "concurrent":
		return disha.RecoveryConcurrent
	case "abort-retry":
		return disha.RecoveryAbortRetry
	default:
		fail(fmt.Errorf("unknown recovery mode %q", s))
		return disha.RecoverySequential
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-sim:", err)
		os.Exit(1)
	}
}
