package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// simCase is one serial simulation run the way the harness runs a sweep
// point: build, warm up, then measure a window. The benchmark adds a bounded
// drain and the correctness gate after the window.
type simCase struct {
	topo    func() (topology.Graph, error)
	pattern func(topology.Graph) (traffic.Pattern, error)
	alg     harness.AlgSpec
	vcs     int
	depth   int
	msgLen  int
	load    float64
	warmup  int
	measure int
	seed    uint64
}

const (
	// drainLimit bounds the post-window drain. Disha guarantees delivery, so
	// a network still holding packets after this many cycles is a failure.
	drainLimit = 50000
	// profileEvery is the phase profiler's cycle sampling period in traced
	// runs.
	profileEvery = 4
	// probeEvery is how often, in cycles, a traced run samples router
	// activity, live-header routing and the wait-for graph.
	probeEvery = 50
	// routeSamplesPerProbe caps the live headers re-routed per probe.
	routeSamplesPerProbe = 64
)

// config derives the network configuration exactly as the harness derives a
// sweep point's (see harness.Spec.RunWith): the paper's router with the
// case's VCs and depth, and the Deadlock Buffer only for recovery schemes.
func (c simCase) config(g topology.Graph, pat traffic.Pattern) network.Config {
	rc := router.Default()
	rc.VCs = c.vcs
	rc.BufferDepth = c.depth
	if c.alg.Recovery {
		rc.Timeout = c.alg.Timeout
		if rc.Timeout == 0 {
			rc.Timeout = 8
		}
		rc.DeadlockBufferDepth = 1
	} else {
		rc.Timeout = 0
		rc.DeadlockBufferDepth = 0
	}
	return network.Config{
		Topo: g, Router: rc, Algorithm: c.alg.Algorithm, Selection: c.alg.Selection,
		Pattern: pat, LoadRate: c.load, MsgLen: c.msgLen, Seed: c.seed,
	}
}

// build constructs the case's network. newDur is the time network.New alone
// took (it includes the Deadlock Buffer lane proof).
func (c simCase) build(tr *tracer, parent int) (net *network.Network, g topology.Graph, pat traffic.Pattern, newDur time.Duration, err error) {
	sp := tr.begin(parent, "topology.build", "")
	g, err = c.topo()
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("topology: %w", err)
	}
	sp = tr.begin(parent, "traffic.pattern", "")
	pat, err = c.pattern(g)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("pattern: %w", err)
	}
	sp = tr.begin(parent, "network.New", "")
	t0 := time.Now()
	net, err = network.New(c.config(g, pat))
	newDur = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("network.New: %w", err)
	}
	return net, g, pat, newDur, nil
}

// simResult is one repeat of a simCase.
type simResult struct {
	setup  time.Duration // topology + pattern + network.New
	newDur time.Duration // network.New alone
	total  time.Duration // the whole repeat: set-up, warm-up, window, drain and gate
	rssKB  int64         // the process's peak resident set when the repeat ended

	// The measured window, host side.
	wall       time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64

	// The measured window, simulated side (identical for equal seeds).
	delta      network.Counters
	throughput float64
	latencies  []float64 // creation-to-delivery, ascending
	p50, p99   float64

	attempted   int64 // packets offered in the window
	failed      int64 // refused or lost in the window, or undelivered after the drain
	fingerprint string
	gateErr     error // the correctness gate's verdict

	phases phaseSums // traced repeats only
	probe  probeStats
}

// simKey is everything about a repeat that must be identical across repeats
// of one seed: the final-state fingerprint and every simulated metric.
func (r simResult) simKey() string {
	return fmt.Sprintf("%s|%v|%v|%v|%+v", r.fingerprint, r.throughput, r.p50, r.p99, r.delta)
}

// runSim executes one repeat of c. A non-nil tracer attaches the kernel
// phase profiler, probes the network from outside every probeEvery cycles
// and records spans; the simulation itself is unchanged either way.
func runSim(c simCase, tr *tracer, parent int, key string) (simResult, error) {
	var res simResult
	start := time.Now()
	root := tr.begin(parent, "bench.point", key)
	net, g, pat, newDur, err := c.build(tr, root)
	if err != nil {
		tr.end(root)
		return res, err
	}
	defer net.Close()
	res.setup, res.newDur = time.Since(start), newDur

	var hub *telemetry.Hub
	if tr != nil {
		hub = net.EnableTelemetry(telemetry.Options{
			SampleEvery: -1, FlightDepth: -1, EpisodeDepth: -1, ProfileEvery: profileEvery,
		})
	}
	sp := tr.begin(root, "network.Run/warmup", "")
	net.Run(c.warmup)
	tr.end(sp)

	// Every node ejects at most one flit per cycle, which bounds the window's
	// deliveries; sizing the sample buffer up front keeps the collector from
	// allocating inside the window.
	lat := make([]float64, 0, c.measure*g.Nodes()/c.msgLen+1)
	net.OnDeliver = func(p *packet.Packet) { lat = append(lat, float64(p.Age())) }
	c0 := net.Counters()
	var ph0 phaseSums
	if hub != nil {
		ph0 = readPhases(hub)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0 := readUsage()
	sp = tr.begin(root, "network.Run/measure", "")
	if tr == nil {
		net.Run(c.measure)
	} else {
		for done := 0; done < c.measure; {
			step := min(probeEvery, c.measure-done)
			net.Run(step)
			done += step
			res.probe.sample(net, tr, sp)
		}
	}
	tr.end(sp)
	u1 := readUsage()
	runtime.ReadMemStats(&m1)
	c1 := net.Counters()
	if hub != nil {
		res.phases = readPhases(hub).minus(ph0)
	}
	net.OnDeliver = nil

	res.wall, res.cpu = u1.wall.Sub(u0.wall), u1.cpu-u0.cpu
	res.allocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.delta = counterDelta(c1, c0)
	sort.Float64s(lat)
	res.latencies = lat
	res.p50, res.p99 = percentile(lat, 50), percentile(lat, 99)

	sp = tr.begin(root, "traffic.MeasureMean", "")
	ms := traffic.MeasureMean(g, pat, 64)
	tr.end(sp)
	// Normalized accepted traffic, computed as the harness computes it.
	capacityFPC := float64(traffic.TotalChannels(g)) / (float64(g.Nodes()) * ms.MeanDistance)
	accepted := float64(res.delta.FlitsDelivered) / (float64(c.measure) * float64(g.Nodes()))
	res.throughput = accepted / capacityFPC

	sp = tr.begin(root, "network.gate", "")
	res.gateErr = gate(net)
	tr.end(sp)
	end := net.Counters()
	res.attempted = res.delta.PacketsOffered
	res.failed = res.delta.PacketsRefused + res.delta.PacketsLost +
		max(0, end.PacketsInjected-end.PacketsDelivered-end.PacketsLost) + net.QueuedPackets()
	sp = tr.begin(root, "network.Fingerprint", "")
	res.fingerprint = net.FingerprintHex()
	tr.end(sp)
	tr.end(root)
	res.total = time.Since(start)
	res.rssKB = readUsage().rssKB
	return res, nil
}

// gate is the output-correctness check run after every measured window: the
// state is structurally sound, the network drains completely once injection
// stops (Disha guarantees delivery), the drained state is still sound, and
// every injected packet is accounted for as delivered or lost. It always
// drains, so the caller can count what stayed undelivered.
func gate(net *network.Network) error {
	var errs []error
	if err := net.CheckInvariants(); err != nil {
		errs = append(errs, fmt.Errorf("after the window: %w", err))
	}
	if !net.RunUntilDrained(drainLimit) {
		errs = append(errs, fmt.Errorf("network not drained %d cycles after injection stopped: %d in flight, %d queued",
			drainLimit, net.InFlight(), net.QueuedPackets()))
	}
	if err := net.CheckInvariants(); err != nil {
		errs = append(errs, fmt.Errorf("after the drain: %w", err))
	}
	if c := net.Counters(); c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		errs = append(errs, fmt.Errorf("ledger: injected %d != delivered %d + lost %d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost))
	}
	return errors.Join(errs...)
}

// counterDelta returns a - b for every event counter.
func counterDelta(a, b network.Counters) network.Counters {
	return network.Counters{
		Cycles:            a.Cycles - b.Cycles,
		PacketsOffered:    a.PacketsOffered - b.PacketsOffered,
		PacketsRefused:    a.PacketsRefused - b.PacketsRefused,
		PacketsInjected:   a.PacketsInjected - b.PacketsInjected,
		PacketsDelivered:  a.PacketsDelivered - b.PacketsDelivered,
		FlitsDelivered:    a.FlitsDelivered - b.FlitsDelivered,
		PacketsKilled:     a.PacketsKilled - b.PacketsKilled,
		PacketsLost:       a.PacketsLost - b.PacketsLost,
		FlitsLost:         a.FlitsLost - b.FlitsLost,
		PacketsUnroutable: a.PacketsUnroutable - b.PacketsUnroutable,
		TokenSeizures:     a.TokenSeizures - b.TokenSeizures,
		Recoveries:        a.Recoveries - b.Recoveries,
		TimeoutEvents:     a.TimeoutEvents - b.TimeoutEvents,
		FalseDetections:   a.FalseDetections - b.FalseDetections,
		MisrouteHops:      a.MisrouteHops - b.MisrouteHops,
		Preemptions:       a.Preemptions - b.Preemptions,
		BlockedCycles:     a.BlockedCycles - b.BlockedCycles,
		TokenTransit:      a.TokenTransit - b.TokenTransit,
		TokenHold:         a.TokenHold - b.TokenHold,
	}
}

// phaseSums holds the profiler's per-phase observation counts and summed
// seconds.
type phaseSums struct {
	count map[string]float64
	sum   map[string]float64
}

// readPhases reads the phase profiler's histograms through the hub's
// registry.
func readPhases(h *telemetry.Hub) phaseSums {
	ps := phaseSums{count: map[string]float64{}, sum: map[string]float64{}}
	for _, s := range h.Registry.Gather() {
		phase := s.Labels.Map()["phase"]
		switch s.Name {
		case "disha_step_phase_seconds_count":
			ps.count[phase] = s.Value
		case "disha_step_phase_seconds_sum":
			ps.sum[phase] = s.Value
		}
	}
	return ps
}

func (p phaseSums) minus(q phaseSums) phaseSums {
	out := phaseSums{count: map[string]float64{}, sum: map[string]float64{}}
	for k, v := range p.count {
		out.count[k] = v - q.count[k]
		out.sum[k] = p.sum[k] - q.sum[k]
	}
	return out
}

func (p *phaseSums) add(q phaseSums) {
	if p.count == nil {
		p.count, p.sum = map[string]float64{}, map[string]float64{}
	}
	for k, v := range q.count {
		p.count[k] += v
		p.sum[k] += q.sum[k]
	}
}

// meanNS is the phase's mean nanoseconds per profiled cycle.
func (p phaseSums) meanNS(phase string) float64 {
	if p.count[phase] == 0 {
		return 0
	}
	return p.sum[phase] / p.count[phase] * 1e9
}

// probeStats accumulates what a traced run samples from outside the kernel.
type probeStats struct {
	samples      int     // probes taken
	activeRatio  float64 // summed fraction of routers holding flits or crossbar state
	routeCalls   int
	routeNS      int64
	wfgSamples   int // probes that found at least one presumed-deadlocked header
	wfgTrue      int // of those, how many the wait-for-graph analysis called a true deadlock
	routeBuf     []routing.Candidate
	routeRouters []*router.Router
	routePackets []*packet.Packet
}

// sample probes the network between cycles through its public surface:
// router activity, Algorithm.Route on live waiting headers, and the
// wait-for-graph verdict whenever a header is presumed deadlocked. None of
// these calls mutate simulation state, which the fingerprint check across
// traced and untraced repeats confirms.
func (p *probeStats) sample(net *network.Network, tr *tracer, parent int) {
	sp := tr.begin(parent, "router.activity", "")
	routers := net.Routers()
	active, presumed := 0, false
	p.routeRouters, p.routePackets = p.routeRouters[:0], p.routePackets[:0]
	for _, r := range routers {
		if r.FlitCount() > 0 || !r.CrossbarIdle() {
			active++
		}
		if r.PresumedHeaders() > 0 {
			presumed = true
		}
		for port := 0; port < r.InputPorts() && len(p.routePackets) < routeSamplesPerProbe; port++ {
			for vc := 0; vc < r.InputVCCount(port) && len(p.routePackets) < routeSamplesPerProbe; vc++ {
				fl, ok := r.InputHead(port, vc)
				if ok && fl.IsHeader() && !fl.Pkt.OnDB && fl.Pkt.Dst != r.NodeID() {
					p.routeRouters = append(p.routeRouters, r)
					p.routePackets = append(p.routePackets, fl.Pkt)
				}
			}
		}
	}
	tr.end(sp)
	p.samples++
	p.activeRatio += float64(active) / float64(len(routers))

	sp = tr.begin(parent, "routing.Route", "")
	t0 := time.Now()
	for i, r := range p.routeRouters {
		p.routeBuf = r.Algorithm().Route(r, p.routePackets[i], p.routeBuf[:0])
	}
	p.routeNS += time.Since(t0).Nanoseconds()
	p.routeCalls += len(p.routeRouters)
	tr.end(sp)

	if presumed {
		sp = tr.begin(parent, "core.AnalyzeWFG", "")
		p.wfgSamples++
		if core.AnalyzeWFG(routers).TrueDeadlock() {
			p.wfgTrue++
		}
		tr.end(sp)
	}
}

func (p *probeStats) add(q probeStats) {
	p.samples += q.samples
	p.activeRatio += q.activeRatio
	p.routeCalls += q.routeCalls
	p.routeNS += q.routeNS
	p.wfgSamples += q.wfgSamples
	p.wfgTrue += q.wfgTrue
}
