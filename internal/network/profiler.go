package network

import (
	"time"

	"repro/internal/telemetry"
)

// stepPhase indexes one timed region of Network.Step.
type stepPhase int

const (
	phaseInject stepPhase = iota
	phaseRouteCompute
	phaseSwitchAlloc
	phaseDBResolve
	phaseCommit
	phaseTimers
	phaseFlush
	phaseRecovery
	phaseStepTotal
	numPhases
)

// phaseNames are the `phase` label values, index-aligned with the constants.
var phaseNames = [numPhases]string{
	"inject", "route_compute", "switch_allocate", "db_resolve", "commit",
	"timers", "flush", "recovery", "step_total",
}

// phaseProfiler times Step's phases into per-phase wall-clock histograms.
// It activates on every Nth cycle (cycle-sampled, so steady-state overhead
// is bounded by 1/N) and is strictly off the digest path: it reads
// time.Now() and writes histograms, never simulation state, so profiled
// and unprofiled runs are bit-identical (the golden-digest suite runs with
// it on).
//
// The fused route-compute + switch-allocate phase interleaves its two stages
// router by router, so Step sums each stage's nanoseconds across routers
// into routeNS and switchNS, and flushStage folds the totals into the two
// histograms.
type phaseProfiler struct {
	every  int64
	active bool
	hists  [numPhases]*telemetry.Histogram

	routeNS  int64 // StageRouting nanos this profiled cycle
	switchNS int64 // StageSwitch nanos this profiled cycle
}

// newPhaseProfiler registers the per-phase histograms (one
// disha_step_phase_seconds family, labeled by phase) and returns a
// profiler sampling every `every` cycles.
func newPhaseProfiler(reg *telemetry.Registry, every int) *phaseProfiler {
	if every < 1 {
		every = 1
	}
	p := &phaseProfiler{every: int64(every)}
	bounds := telemetry.ExponentialBuckets(1e-7, 2, 20) // 100ns .. ~52ms
	for ph := stepPhase(0); ph < numPhases; ph++ {
		p.hists[ph] = reg.Histogram("disha_step_phase_seconds",
			"Wall-clock seconds one Step phase took on a profiled cycle.",
			telemetry.Labels{{Key: "phase", Value: phaseNames[ph]}}, bounds)
	}
	return p
}

// begin decides whether this cycle is profiled and, if so, clears the
// stage accumulators. Call at the top of Step.
func (p *phaseProfiler) begin(cycle int64) bool {
	p.active = cycle%p.every == 0
	if p.active {
		p.routeNS, p.switchNS = 0, 0
	}
	return p.active
}

// lap records the time since t0 into the phase's histogram and returns the
// new phase start.
func (p *phaseProfiler) lap(ph stepPhase, t0 time.Time) time.Time {
	now := time.Now()
	p.hists[ph].Observe(now.Sub(t0).Seconds())
	return now
}

// observe records one explicit duration.
func (p *phaseProfiler) observe(ph stepPhase, d time.Duration) {
	p.hists[ph].Observe(d.Seconds())
}

// flushStage folds the route/switch nanosecond totals into the
// route-compute and switch-allocate histograms (one observation each per
// profiled cycle: the summed across-routers time, comparable with the
// other phases). Call after the stage loop.
func (p *phaseProfiler) flushStage() {
	p.hists[phaseRouteCompute].Observe(float64(p.routeNS) / 1e9)
	p.hists[phaseSwitchAlloc].Observe(float64(p.switchNS) / 1e9)
}
