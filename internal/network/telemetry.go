package network

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EnableTelemetry attaches an instrumentation hub to the network: per-router
// and per-virtual-channel counters/gauges in the Prometheus registry, Go
// runtime gauges, a set of default sampler probes, the recovery-episode
// tracker, the deadlock flight recorder, and (when ProfileEvery > 0 in
// opts) the kernel phase profiler. It must be called before the first
// Step; calling it again replaces the previous hub.
//
// Everything registered here is pull-based — callbacks into state the
// routers already maintain — so the simulation hot path is untouched and
// results are bit-identical with telemetry on or off (see
// TestTelemetryDeterminism). The phase profiler and episode tracker add
// bounded push-side work, but only wall-clock reads and span bookkeeping:
// neither touches simulation state, so the golden digests hold with both
// enabled (TestGoldenDigestsWithObservability).
func (n *Network) EnableTelemetry(opts telemetry.Options) *telemetry.Hub {
	h := telemetry.NewHub(opts)
	n.tel = h
	n.registerMetrics(h.Registry)
	telemetry.RegisterRuntimeMetrics(h.Registry)
	if h.Sampler != nil {
		n.registerProbes(h.Sampler)
		telemetry.AddRuntimeProbes(h.Sampler)
	}
	n.prof = nil
	if opts.ProfileEvery > 0 {
		n.prof = newPhaseProfiler(h.Registry, opts.ProfileEvery)
	}
	return h
}

// Telemetry returns the attached hub, or nil.
func (n *Network) Telemetry() *telemetry.Hub { return n.tel }

// registerMetrics registers the exposition metrics: network-wide totals,
// the recovery Token's counters, and per-router (plus per-router-per-VC)
// instrumentation.
func (n *Network) registerMetrics(reg *telemetry.Registry) {
	// Network-wide counters.
	reg.CounterFunc("disha_cycles_total", "Simulation cycles executed.", nil,
		func() int64 { return int64(n.clock.Now()) })
	reg.CounterFunc("disha_packets_offered_total", "Packets generated by traffic sources.", nil,
		func() int64 { return n.Counters().PacketsOffered })
	reg.CounterFunc("disha_packets_injected_total", "Packet headers accepted into the network.", nil,
		func() int64 { return n.counters.PacketsInjected })
	reg.CounterFunc("disha_packets_delivered_total", "Packet tails consumed at destinations.", nil,
		func() int64 { return n.counters.PacketsDelivered })
	reg.CounterFunc("disha_packets_refused_total", "Packets dropped at full source queues.", nil,
		func() int64 { return n.counters.PacketsRefused })
	reg.CounterFunc("disha_packets_killed_total", "Packets killed by abort-retry recovery.", nil,
		func() int64 { return n.counters.PacketsKilled })
	reg.CounterFunc("disha_flits_delivered_total", "Flits consumed at destinations.", nil,
		func() int64 { return n.counters.FlitsDelivered })
	reg.CounterFunc("disha_packets_lost_total", "In-flight packets dropped by reconfiguration events.", nil,
		func() int64 { return n.counters.PacketsLost })
	reg.CounterFunc("disha_flits_lost_total", "Buffered flits discarded by reconfiguration events.", nil,
		func() int64 { return n.counters.FlitsLost })
	reg.CounterFunc("disha_packets_unroutable_total", "Packets dropped before injection because their destination router was dead.", nil,
		func() int64 { return n.counters.PacketsUnroutable })
	reg.CounterFunc("disha_reconfig_events_total", "Reconfiguration events applied (kills, heals, routing swaps).", nil,
		func() int64 {
			applied := int64(0)
			for i := range n.reconfigLog {
				if n.reconfigLog[i].Applied {
					applied++
				}
			}
			return applied
		})
	reg.GaugeFunc("disha_links_down", "Links currently failed or killed (healed links excluded).", nil,
		func() float64 { return float64(n.failedLinks) })
	reg.GaugeFunc("disha_routers_dead", "Routers currently killed.", nil,
		func() float64 { return float64(n.deadCount) })
	reg.GaugeFunc("disha_packets_in_flight", "Packets injected but not yet delivered.", nil,
		func() float64 { return float64(n.InFlight()) })
	reg.GaugeFunc("disha_source_queued_packets", "Packets waiting in source queues.", nil,
		func() float64 { return float64(n.QueuedPackets()) })

	// Recovery Token (sequential recovery only).
	if n.token != nil {
		reg.CounterFunc("disha_token_seizures_total", "Recovery Token captures.", nil,
			func() int64 { return n.token.Seizures() })
		reg.CounterFunc("disha_token_transit_cycles", "Cycles the recovery Token spent circulating free.", nil,
			func() int64 { return n.token.TransitCycles() })
		reg.CounterFunc("disha_token_hold_cycles", "Cycles the recovery Token spent held by recovering packets.", nil,
			func() int64 { return n.token.HoldCycles() })
		reg.GaugeFunc("disha_token_held", "1 while a recovering packet holds the Token.", nil,
			func() float64 {
				if n.token.Held() {
					return 1
				}
				return 0
			})
	}

	// Per-router metrics. Label cardinality is nodes (+ nodes x VCs for the
	// blocked-cycle counters): fine for the network sizes the paper uses.
	for _, r := range n.routers {
		r := r
		node := telemetry.Labels{{Key: "node", Value: strconv.Itoa(int(r.NodeID()))}}
		reg.CounterFunc("disha_flits_forwarded_total", "Flits sent on network output ports.", node,
			func() int64 { return r.Stats().FlitsSwitched })
		reg.CounterFunc("disha_flits_ejected_total", "Flits consumed by the local reception channel(s).", node,
			func() int64 { return r.Stats().FlitsEjected })
		reg.CounterFunc("disha_db_flits_total", "Flits that transited this router's Deadlock Buffer.", node,
			func() int64 { return r.Stats().DBFlitsCarried })
		reg.CounterFunc("disha_timeouts_total", "Headers whose T_elapsed first crossed T_out here.", node,
			func() int64 { return r.Stats().TimeoutEvents })
		reg.CounterFunc("disha_recoveries_total", "Packets switched onto the Deadlock Buffer lane here.", node,
			func() int64 { return r.Stats().Recoveries })
		reg.CounterFunc("disha_misroute_hops_total", "Non-profitable hops taken out of this router.", node,
			func() int64 { return r.Stats().MisrouteHops })
		reg.CounterFunc("disha_blocked_cycles_total", "Header-cycles spent blocked at this router.", node,
			func() int64 { return r.Stats().BlockedCycles })
		reg.GaugeFunc("disha_blocked_headers", "Headers that failed to advance last cycle.", node,
			func() float64 { return float64(r.BlockedHeaders()) })
		reg.GaugeFunc("disha_presumed_headers", "Headers currently past T_out (presumed deadlocked).", node,
			func() float64 { return float64(r.PresumedHeaders()) })
		reg.GaugeFunc("disha_db_occupancy", "Flits currently in the Deadlock Buffer lane(s).", node,
			func() float64 { return float64(r.DBOccupancy()) })
		for v := 0; v < n.cfg.Router.VCs; v++ {
			v := v
			lbl := telemetry.Labels{
				{Key: "node", Value: strconv.Itoa(int(r.NodeID()))},
				{Key: "vc", Value: strconv.Itoa(v)},
			}
			reg.CounterFunc("disha_vc_blocked_cycles_total",
				"Header-cycles spent blocked on this VC index (summed over input ports).", lbl,
				func() int64 { return r.BlockedCyclesVC(v) })
		}
	}
}

// registerProbes installs the default sampled time series: network-level
// congestion and recovery signals cheap enough to evaluate every tick.
func (n *Network) registerProbes(s *telemetry.Sampler) {
	s.AddProbe(telemetry.Probe{Name: "disha_packets_in_flight", Fn: func() float64 {
		return float64(n.InFlight())
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_source_queued_packets", Fn: func() float64 {
		return float64(n.QueuedPackets())
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_blocked_headers", Fn: func() float64 {
		total := 0
		for _, r := range n.routers {
			total += r.BlockedHeaders()
		}
		return float64(total)
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_presumed_headers", Fn: func() float64 {
		total := 0
		for _, r := range n.routers {
			total += r.PresumedHeaders()
		}
		return float64(total)
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_db_occupancy", Fn: func() float64 {
		total := 0
		for _, r := range n.routers {
			total += r.DBOccupancy()
		}
		return float64(total)
	}})
	s.AddProbe(telemetry.Probe{Name: "disha_recoveries_total", Fn: func() float64 {
		total := int64(0)
		for _, r := range n.routers {
			total += r.Stats().Recoveries
		}
		return float64(total)
	}})
	if n.token != nil {
		s.AddProbe(telemetry.Probe{Name: "disha_token_hold_cycles", Fn: func() float64 {
			return float64(n.token.HoldCycles())
		}})
	}
}

// telemetryTick runs at the end of every Step while telemetry is attached:
// it captures a sparse flight-recorder frame, dumps a snapshot if this
// cycle presumed a new deadlock (throttled by the recorder's cooldown), and
// fires the sampler on its period.
func (n *Network) telemetryTick(now sim.Cycle) {
	h := n.tel
	if rec := h.Recorder; rec != nil {
		fr := rec.BeginFrame(int64(now))
		for i, r := range n.routers {
			b, p, d := r.BlockedHeaders(), r.PresumedHeaders(), r.DBOccupancy()
			if b == 0 && p == 0 && d == 0 {
				continue
			}
			fr.Routers = append(fr.Routers, telemetry.RouterFrame{
				Node: int32(i), Blocked: int32(b), Presumed: int32(p), DBOcc: int32(d),
			})
		}
		if node, pkt, ok := h.TakeTrigger(); ok && rec.ShouldSnapshot(int64(now)) {
			snap := n.buildSnapshot(now, node, pkt)
			rec.AddSnapshot(snap)
			if h.Writer != nil {
				h.Writer.WriteSnapshot(snap)
			}
		}
	} else {
		h.TakeTrigger() // keep the trigger from going stale
	}
	if s := h.Sampler; s != nil && s.Due(int64(now)) {
		s.Sample(int64(now))
		h.Registry.Publish()
	}
}

// labelEpisodes applies the WFG verdict to every recovery episode opened
// this cycle. It runs right after the timeout flush — before recovery
// mutates the wait-for graph — so the analysis sees the deadlock the
// presumption fired on. The result is cached on the network: the
// flight-recorder snapshot built later the same cycle (whose trigger was
// armed by the same presumption) reuses it, which both saves the second
// analysis and makes the episode labels agree with the snapshot's
// TrueDeadlock verdict by construction.
func (n *Network) labelEpisodes(now sim.Cycle) {
	ep := n.tel.Episodes
	if !ep.HasPending() {
		return
	}
	w := core.AnalyzeWFG(n.routers)
	n.wfgCache, n.wfgCacheAt, n.wfgCacheOK = w, now, true
	ep.LabelPending(w.TrueDeadlock(), w.DeadlockedIDs())
}

// buildSnapshot assembles a flight-recorder dump: the retained frames plus
// the instantaneous wait-for-graph (who waits on whom, and whether the
// blocked set contains a true deadlocked configuration). The graph is
// reused from this cycle's episode labeling when available (recovery runs
// between the two, but it only moves already-presumed packets onto the
// Deadlock Buffer — the pre-recovery graph is the one worth recording).
func (n *Network) buildSnapshot(now sim.Cycle, trigNode int, trigPkt int64) *telemetry.Snapshot {
	snap := &telemetry.Snapshot{
		Cycle:       int64(now),
		TriggerNode: trigNode,
		TriggerPkt:  trigPkt,
		Frames:      n.tel.Recorder.Frames(),
	}
	var w core.WFGResult
	if n.wfgCacheOK && n.wfgCacheAt == now {
		w = n.wfgCache
	} else {
		w = core.AnalyzeWFG(n.routers)
	}
	deadlocked := w.DeadlockedIDs()
	for _, bh := range w.Blocked {
		node := telemetry.WFGNode{
			Node:       int(bh.Router.NodeID()),
			Pkt:        int64(bh.Pkt.ID),
			Deadlocked: deadlocked[int64(bh.Pkt.ID)],
		}
		for _, wp := range bh.WaitsOn {
			node.WaitsOn = append(node.WaitsOn, int64(wp.ID))
		}
		snap.WFG = append(snap.WFG, node)
	}
	snap.TrueDeadlock = w.TrueDeadlock()
	return snap
}

// CountersMap flattens the Counters snapshot for JSONL export.
func (n *Network) CountersMap() map[string]int64 {
	c := n.Counters()
	return map[string]int64{
		"cycles":             int64(c.Cycles),
		"packets_offered":    c.PacketsOffered,
		"packets_refused":    c.PacketsRefused,
		"packets_injected":   c.PacketsInjected,
		"packets_delivered":  c.PacketsDelivered,
		"flits_delivered":    c.FlitsDelivered,
		"packets_killed":     c.PacketsKilled,
		"token_seizures":     c.TokenSeizures,
		"token_transit":      c.TokenTransit,
		"token_hold":         c.TokenHold,
		"recoveries":         c.Recoveries,
		"timeout_events":     c.TimeoutEvents,
		"false_detections":   c.FalseDetections,
		"misroute_hops":      c.MisrouteHops,
		"preemptions":        c.Preemptions,
		"blocked_cycles":     c.BlockedCycles,
		"packets_lost":       c.PacketsLost,
		"flits_lost":         c.FlitsLost,
		"packets_unroutable": c.PacketsUnroutable,
	}
}
