package main

import (
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// microBatches is how many timed batches each per-call figure is the median
// of.
const microBatches = 5

// perCall times fn(i) for i in [0, calls) microBatches times and returns the
// median nanoseconds per call.
func perCall(tr *tracer, name string, calls int, fn func(i int)) float64 {
	sp := tr.begin(0, name, "")
	defer tr.end(sp)
	var ts []float64
	for b := 0; b < microBatches; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(ts)
}

// microbench times single calls into the topology, traffic and sim layers on
// the workload's own graph and pattern, from pairs drawn with the workload
// seed.
func microbench(g topology.Graph, pat traffic.Pattern, seed uint64, tr *tracer) []metric {
	const pairs = 1024
	rng := sim.NewRNG(seed ^ 0x6d6963726f)
	src := make([]topology.Node, pairs)
	dst := make([]topology.Node, pairs)
	for i := range src {
		src[i] = topology.Node(rng.Intn(g.Nodes()))
		dst[i] = topology.Node(rng.Intn(g.Nodes()))
	}
	var acc int
	distance := perCall(tr, "topology.Distance", 1<<18, func(i int) {
		acc += g.Distance(src[i&(pairs-1)], dst[i&(pairs-1)])
	})
	isMinimal := perCall(tr, "topology.IsMinimal", 1<<18, func(i int) {
		if g.IsMinimal(src[i&(pairs-1)], dst[i&(pairs-1)], i%g.Degree()) {
			acc++
		}
	})
	name := g.Name()
	parse := perCall(tr, "topology.Parse", 20, func(int) {
		if _, err := topology.Parse(name); err == nil {
			acc++
		}
	})
	dest := perCall(tr, "traffic.Dest", 1<<18, func(i int) {
		acc += int(pat.Dest(src[i&(pairs-1)], rng))
	})
	measureMean := perCall(tr, "traffic.MeasureMean", 4, func(int) {
		acc += int(traffic.MeasureMean(g, pat, 64).MeanDistance)
	})
	var x uint64
	rngNS := perCall(tr, "sim.RNG", 1<<20, func(int) { x += rng.Uint64() })
	sink += x + uint64(acc)
	return []metric{
		{"topology.distance_ns", "ns", distance},
		{"topology.is_minimal_ns", "ns", isMinimal},
		{"topology.parse_us", "us", parse / 1e3},
		{"traffic.dest_ns", "ns", dest},
		{"traffic.measure_mean_ms", "ms", measureMean / 1e6},
		{"sim.rng_ns", "ns", rngNS},
	}
}
