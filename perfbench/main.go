// Command perfbench is the repository benchmark. It runs one named workload
// against the simulator's public packages, checks that the simulated output
// is correct and deterministic, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload torus16-load0.5 --seed 1 --seconds 20 --trace 0
//
// Workloads (all open-loop Bernoulli sources at a fixed offered load, the
// paper's injection model; latency is timed from packet creation, so time
// waiting in the source queue counts):
//
//   - fig4-sweep: the paper's Fig. 4 spec (16x16 torus, 32-flit packets,
//     4 VCs, 6 schemes x 9 loads) with shortened windows, run through
//     harness.Spec.RunWith with one engine worker per CPU. The only workload
//     on the engine/harness per-point path, the avoidance routing functions
//     and the active-set scheduler's low-load regime.
//   - torus16-load0.5: one serial Disha M=0 simulation of the paper's router
//     on a 16x16 torus at load 0.5. Every router is active, so host time is
//     the kernel's switch allocation, route compute and timers.
//   - mesh16-recovery: one serial Disha M=0 simulation on a 16x16 mesh with
//     2 VCs at load 0.3: below saturation yet thousands of time-outs and
//     hundreds of Token seizures, so recovery policy decides the outcome.
//     Its Deadlock Buffer lane is acyclic (printed), unlike the torus's, so
//     acyclic-lane recovery changes show here with torus16 as the control.
//
// The simulator is deterministic: equal seeds give byte-identical runs, so
// every sim_* metric and the final fingerprint must repeat exactly across the
// repeats of one invocation, and only the host-time metrics carry noise. The
// model has not been validated against a reference simulator, so no accuracy
// error is reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed when --seed is not given; heldOutSeed is
// the second seed every claim is rechecked on.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one workload run reports.
type result struct {
	attempted int64
	failed    int64
	e2e       []metric
	layers    []metric
	notes     []string // printed above the metrics
	problems  []string // correctness failures; any makes the run incorrect
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark input. run measures for about budget and fills
// the end-to-end metrics, or the per-layer ones when traced.
type workload interface {
	run(seed uint64, budget time.Duration, traced bool) (*result, error)
}

var workloads = map[string]workload{
	"fig4-sweep":      sweepWorkload{warmup: 300, measure: 600},
	"torus16-load0.5": torus16(),
	"mesh16-recovery": mesh16(),
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --trace 0 or 1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintln(stdout, environment())
	res, err := w.run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return report(stdout, stderr, res, *trace == 1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// jsonMetric is one metric in the final JSON line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the notes and metrics, then the JSON line, and returns the
// exit code: 0 when every correctness check passed, 1 otherwise.
func report(stdout, stderr io.Writer, r *result, traced bool) int {
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	ms := r.e2e
	if traced {
		ms = r.layers
	}
	out := map[string]jsonMetric{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problemf("metric %s is %v", m.name, v)
			v = 0
		}
		fmt.Fprintf(stdout, "metric %-32s %16.6g %s\n", m.name, v, m.unit)
		out[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	failedRatio := 0.0
	if r.attempted > 0 {
		failedRatio = float64(r.failed) / float64(r.attempted)
	}
	if r.attempted < 1 {
		r.problemf("no operation attempted")
	}
	fmt.Fprintf(stdout, "metric %-32s %16.6g ratio (%d failed of %d attempted; carried as failed/attempted below)\n",
		"failed_ratio", failedRatio, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "FAIL", p)
		fmt.Fprintln(stderr, "perfbench: FAIL", p)
	}
	correct := len(r.problems) == 0 && r.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}
