package network

import "repro/internal/router"

// KernelConfig tunes how Step scans routers each cycle. Step runs its
// phases serially in fixed router order, so a run is a pure function of its
// Config and seed; the golden-digest suite enforces this contract.
type KernelConfig struct {
	// ReferenceScan runs the router-local phases through the retained
	// reference scan path (router.StageRoutingRef and friends — the faithful
	// port of the pre-SoA per-slot walks) instead of the optimized
	// struct-of-arrays scans. The two paths make identical decisions in
	// identical order, so this knob is digest-invariant and may differ
	// freely between a snapshot and its restore; it exists as the baseline
	// for the differential conformance suite and the benchgate speed gates.
	ReferenceScan bool
}

// stageRoute, stageSwitch and tickTimers dispatch one router's scan phases
// to the optimized SoA path or, under KernelConfig.ReferenceScan, to the
// retained reference path. The branch is per router per phase — noise next
// to the scan itself — and keeps the profiled and unprofiled Step loops on
// one dispatch point.
func (n *Network) stageRoute(r *router.Router) {
	if n.refScan {
		r.StageRoutingRef()
		return
	}
	r.StageRouting()
}

func (n *Network) stageSwitch(r *router.Router, buf []router.Transfer) []router.Transfer {
	if n.refScan {
		return r.StageSwitchRef(buf)
	}
	return r.StageSwitch(buf)
}

func (n *Network) tickTimers(r *router.Router) int {
	if n.refScan {
		return r.TickTimersRef()
	}
	return r.TickTimers()
}
