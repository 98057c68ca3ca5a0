// Command disha-sweep regenerates the paper's figures: it runs the canned
// load sweeps (Figures 3a, 3b, 4, 5, 6, 7) through the deterministic
// parallel experiment engine and prints latency, throughput and
// token-seizure tables plus a saturation summary, optionally writing CSV
// files for plotting.
//
// Points fan out across -parallel workers (default: all cores) with
// identity-keyed seeds, so the results are bit-identical to a serial run.
// -journal checkpoints completed points to a JSONL file and -resume replays
// it, so a killed sweep restarts where it left off. Adding -checkpoint-dir
// with -checkpoint-every additionally snapshots in-flight points every N
// cycles, so even the point that was running when the process died resumes
// mid-flight — with byte-identical CSV output. If any point fails the
// command prints the partial results plus a failure summary and exits
// non-zero.
//
// Examples:
//
//	disha-sweep -fig 4                                  # Figure 4, all cores
//	disha-sweep -fig all -scale small -parallel 2       # everything, 2 workers
//	disha-sweep -fig 3a -csv out/                       # write out/fig3a-....csv
//	disha-sweep -fig 4 -replicas 5                      # mean ± 95% CI over 5 seeds
//	disha-sweep -fig all -journal sweep.journal.jsonl   # checkpoint...
//	disha-sweep -fig all -journal sweep.journal.jsonl -resume   # ...and resume
//	disha-sweep -fig 4 -journal s.jsonl -checkpoint-dir ckpt -checkpoint-every 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	disha "repro"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

func main() {
	var (
		fig       = flag.String("fig", "4", "figure to reproduce: 3a, 3b, 4, 5, 6, 7, fullmesh, or all")
		scale     = flag.String("scale", "paper", "scale: paper (16x16, 32 flits) or small (8x8, 16 flits)")
		csvDir    = flag.String("csv", "", "directory to write CSV results into (optional)")
		warmup    = flag.Int("warmup", 0, "override warm-up cycles")
		measure   = flag.Int("measure", 0, "override measurement cycles")
		seed      = flag.Uint64("seed", 0, "override seed")
		quiet     = flag.Bool("quiet", false, "suppress per-point progress")
		charts    = flag.Bool("plot", true, "render ASCII charts of each figure")
		parallel  = flag.Int("parallel", 0, "engine workers (0 = all cores, 1 = serial; results are identical either way)")
		replicas  = flag.Int("replicas", 1, "independent runs per point, aggregated into mean ± 95% CI")
		retries   = flag.Int("retries", 1, "extra attempts for a failing point")
		journal   = flag.String("journal", "", "JSONL checkpoint file for completed points (optional)")
		resume    = flag.Bool("resume", false, "resume from -journal instead of starting fresh")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for mid-point checkpoints; killed points resume mid-flight with byte-identical results (requires -checkpoint-every)")
		ckptN     = flag.Int("checkpoint-every", 0, "cycles between mid-point checkpoints (0 = off; requires -checkpoint-dir)")
		metrics   = flag.String("metrics-addr", "", "serve engine progress on this address at /metrics (optional, e.g. :9090)")
		chaosFile = flag.String("chaos", "", "arm this JSON chaos event-schedule on every point's network (cycles are warm-up + measurement; see CHAOS.md)")
		version   = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}

	if *resume && *journal == "" {
		fail(fmt.Errorf("-resume requires -journal"))
	}
	if (*ckptDir == "") != (*ckptN == 0) {
		fail(fmt.Errorf("-checkpoint-dir and -checkpoint-every must be set together"))
	}

	var sc disha.ExperimentScale
	switch *scale {
	case "paper":
		sc = disha.PaperScale()
	case "small":
		sc = disha.SmallScale()
	default:
		fail(fmt.Errorf("unknown scale %q", *scale))
	}
	if *warmup > 0 {
		sc.Warmup = *warmup
	}
	if *measure > 0 {
		sc.Measure = *measure
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	var chaosEvents []disha.ReconfigEvent
	if *chaosFile != "" {
		sched, err := chaos.Load(*chaosFile)
		fail(err)
		chaosEvents, err = sched.Reconfig()
		fail(err)
		fmt.Fprintf(os.Stderr, "disha-sweep: chaos campaign %q armed on every point: %d events\n",
			sched.Name, len(sched.Events))
	}

	var engineMetrics *engine.Metrics
	if *metrics != "" {
		reg := telemetry.NewRegistry()
		engineMetrics = engine.NewMetrics(reg)
		addr, shutdown, err := telemetry.Serve(*metrics, reg)
		fail(err)
		defer shutdown()
		fmt.Fprintf(os.Stderr, "serving engine progress on http://%s/metrics\n", addr)
	}

	names := []string{*fig}
	if *fig == "all" {
		names = []string{"3a", "3b", "4", "5", "6", "7"}
	}
	sort.Strings(names)

	var failedFigures []string
	totalFailed, totalPoints := 0, 0
	for _, name := range names {
		spec := disha.Figure(name, sc)
		if spec == nil {
			fail(fmt.Errorf("unknown figure %q", name))
		}
		if *warmup > 0 {
			spec.Warmup = *warmup
		}
		if *measure > 0 {
			spec.Measure = *measure
		}
		spec.Chaos = chaosEvents
		fmt.Printf("== figure %s: %s ==\n", name, spec.Name)
		progress := func(s string) { fmt.Println("  " + s) }
		if *quiet {
			progress = nil
		}
		res, report, err := spec.RunWith(disha.SweepOptions{
			Parallel:        *parallel,
			Replicas:        *replicas,
			Retries:         *retries,
			Journal:         *journal,
			Resume:          *resume || *journal != "", // a shared journal accumulates across figures
			CheckpointEvery: *ckptN,
			CheckpointDir:   *ckptDir,
			Progress:        progress,
			Metrics:         engineMetrics,
		})
		if report != nil {
			totalPoints += report.Total
			totalFailed += report.Failed()
		}
		if err != nil && res == nil {
			fail(err) // setup error: nothing to salvage
		}
		fmt.Println()
		fmt.Println(res.LatencyTable())
		fmt.Println(res.ThroughputTable())
		if *charts {
			fmt.Println(disha.PlotLatency(spec.Name+" — latency vs load", res))
			fmt.Println(disha.PlotThroughput(spec.Name+" — throughput vs load", res))
		}
		if name == "3a" {
			fmt.Println(res.SeizureTable())
		}
		fmt.Println(res.SaturationSummary())
		fmt.Printf("(%s: %s)\n\n", spec.Name, report)

		if err != nil {
			failedFigures = append(failedFigures, name)
			fmt.Fprintf(os.Stderr, "disha-sweep: figure %s incomplete: %v\n", name, err)
			for _, f := range report.Failures {
				fmt.Fprintf(os.Stderr, "  FAILED %s (attempts=%d): %s\n", f.Key, f.Attempts, firstLine(f.Err))
			}
		}

		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fail(err)
			}
			path := filepath.Join(*csvDir, strings.ReplaceAll(spec.Name, "/", "-")+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fail(err)
			}
			fmt.Println("wrote", path)
		}
	}

	if len(failedFigures) > 0 {
		fmt.Fprintf(os.Stderr, "disha-sweep: PARTIAL RESULTS: %d/%d points failed across figure(s) %s",
			totalFailed, totalPoints, strings.Join(failedFigures, ", "))
		if *journal != "" {
			fmt.Fprintf(os.Stderr, "; rerun with -resume -journal %s to retry only the failures", *journal)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-sweep:", err)
		os.Exit(1)
	}
}
