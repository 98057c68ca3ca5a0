// Command benchgate is a dependency-free benchstat-style gate for CI: it
// parses `go test -bench` output, summarizes benchmarks as medians of their
// ns/op samples, evaluates every gate, prints one per-gate summary table,
// and exits non-zero when any candidate's median exceeds its baseline's by
// more than the allowed ratio.
//
// Gates are given with the repeatable -gate flag as
// "candidate:baseline:max-ratio" triples:
//
//	go test -bench 'BenchmarkStep' -count 5 . | tee bench.txt
//	go run ./internal/tools/benchgate \
//	    -gate 'BenchmarkStepProfiled/on:BenchmarkStepProfiled/off:1.111' \
//	    -gate 'BenchmarkStepSerial/torus16/load0.5:BenchmarkStepReference/torus16/load0.5:0.87' \
//	    bench.txt
//
// The first gate above keeps the phase profiler within 11% of an unprofiled
// run; the second requires the optimized struct-of-arrays scan path to
// clear 1.15x the reference scan's cycles/sec (ns/op ratio <= 0.87). All
// gates are always evaluated — a failing gate never hides the state of the
// others — and the table marks each row PASS, FAIL, or MISSING (a renamed
// benchmark must not silently disarm its gate). Medians over the -count
// repetitions absorb scheduler noise the way benchstat's summary statistics
// do.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// gate is one candidate-vs-baseline comparison: fail when the candidate's
// median ns/op exceeds baseline median * maxRatio.
type gate struct {
	candidate string
	baseline  string
	maxRatio  float64
}

// gateList collects repeated -gate flags.
type gateList []gate

func (g *gateList) String() string {
	parts := make([]string, len(*g))
	for i, gt := range *g {
		parts[i] = fmt.Sprintf("%s:%s:%g", gt.candidate, gt.baseline, gt.maxRatio)
	}
	return strings.Join(parts, ",")
}

func (g *gateList) Set(s string) error {
	gt, err := parseGate(s)
	if err != nil {
		return err
	}
	*g = append(*g, gt)
	return nil
}

// parseGate splits a "candidate:baseline:max-ratio" triple. Benchmark names
// never contain ':', so a plain 3-way split is unambiguous.
func parseGate(s string) (gate, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return gate{}, fmt.Errorf("gate %q: want candidate:baseline:max-ratio", s)
	}
	ratio, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || ratio <= 0 {
		return gate{}, fmt.Errorf("gate %q: bad max-ratio %q", s, parts[2])
	}
	if parts[0] == "" || parts[1] == "" {
		return gate{}, fmt.Errorf("gate %q: empty benchmark name", s)
	}
	return gate{candidate: parts[0], baseline: parts[1], maxRatio: ratio}, nil
}

func main() {
	var gates gateList
	flag.Var(&gates, "gate", "repeatable candidate:baseline:max-ratio comparison (e.g. BenchmarkStepSerial/torus16/load0.5:BenchmarkStepReference/torus16/load0.5:0.87)")
	flag.Parse()
	if flag.NArg() != 1 || len(gates) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -gate candidate:baseline:max-ratio [-gate ...] bench-output.txt")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()

	samples := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, nsPerOp, ok := parseBenchLine(sc.Text())
		if ok {
			samples[name] = append(samples[name], nsPerOp)
		}
	}
	if err := sc.Err(); err != nil {
		fail(err.Error())
	}

	results := make([]gateResult, len(gates))
	failed := false
	for i, gt := range gates {
		results[i] = evalGate(gt, samples)
		if !results[i].ok() {
			failed = true
		}
	}
	fmt.Print(renderTable(results))
	if failed {
		fail("one or more gates failed")
	}
}

// gateResult is one evaluated gate: the medians, their ratio, and — when a
// benchmark produced no samples — which name was missing.
type gateResult struct {
	gate
	base, cand   float64
	baseN, candN int
	ratio        float64
	missing      string
}

func (r gateResult) ok() bool { return r.missing == "" && r.ratio <= r.maxRatio }

// evalGate evaluates one gate against the parsed samples. A missing
// benchmark is a failure: a renamed benchmark must not silently disarm its
// gate.
func evalGate(gt gate, samples map[string][]float64) gateResult {
	r := gateResult{
		gate:  gt,
		base:  median(samples[gt.baseline]),
		cand:  median(samples[gt.candidate]),
		baseN: len(samples[gt.baseline]),
		candN: len(samples[gt.candidate]),
	}
	switch {
	case r.base == 0:
		r.missing = gt.baseline
	case r.cand == 0:
		r.missing = gt.candidate
	default:
		r.ratio = r.cand / r.base
	}
	return r
}

// renderTable formats every gate as one row of an aligned table, so a CI
// log shows the complete picture — every comparison, every margin — in one
// glance even when only a single gate failed.
func renderTable(results []gateResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "CANDIDATE\tBASELINE\tCAND ns/op\tBASE ns/op\tRATIO\tLIMIT\tRESULT")
	for _, r := range results {
		switch {
		case r.missing != "":
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%.3f\tMISSING %s\n",
				r.candidate, r.baseline,
				sampleCell(r.cand, r.candN), sampleCell(r.base, r.baseN),
				"-", r.maxRatio, r.missing)
		case r.ratio > r.maxRatio:
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.3f\t%.3f\tFAIL\n",
				r.candidate, r.baseline,
				sampleCell(r.cand, r.candN), sampleCell(r.base, r.baseN),
				r.ratio, r.maxRatio)
		default:
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.3f\t%.3f\tPASS\n",
				r.candidate, r.baseline,
				sampleCell(r.cand, r.candN), sampleCell(r.base, r.baseN),
				r.ratio, r.maxRatio)
		}
	}
	w.Flush()
	return b.String()
}

// sampleCell formats a median with its sample count, or "-" when absent.
func sampleCell(med float64, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f (n=%d)", med, n)
}

// parseBenchLine extracts the benchmark name (GOMAXPROCS suffix stripped)
// and ns/op from one `go test -bench` result line.
func parseBenchLine(line string) (name string, nsPerOp float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	name = fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip -<GOMAXPROCS>
		}
	}
	for i := 2; i+1 < len(fields); i++ {
		if fields[i+1] == "ns/op" {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return "", 0, false
			}
			return name, v, true
		}
	}
	return "", 0, false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "benchgate:", msg)
	os.Exit(1)
}
