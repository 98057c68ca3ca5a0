package network

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// runCaseObserved is runCase with the full observability stack attached:
// telemetry hub, episode tracker (on by default) and the phase profiler at
// an awkward prime period so profiled and unprofiled cycles interleave.
func runCaseObserved(t *testing.T, gc goldenCase) string {
	t.Helper()
	n := mustNet(t, gc.build())
	n.EnableTelemetry(telemetry.Options{SampleEvery: 25, ProfileEvery: 7})
	for i := 0; i < gc.cycles; i++ {
		n.Step()
	}
	return n.FingerprintHex()
}

// TestGoldenDigestsWithObservability proves the observability stack is
// digest-invariant: with the phase profiler and episode tracer enabled the
// committed golden digests must still hold. The profiler reads the wall
// clock and the tracer bookkeeps spans, but neither may touch simulation
// state.
func TestGoldenDigestsWithObservability(t *testing.T) {
	want := readGolden(t)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			if got := runCaseObserved(t, gc); got != want[gc.name] {
				t.Errorf("digest %s differs from golden %s with profiler+tracer on", got, want[gc.name])
			}
		})
	}
}

// TestProfilerPopulatesHistograms checks the phase profiler actually
// observes every phase: each phase family member must have a nonzero
// observation count after a profiled run.
func TestProfilerPopulatesHistograms(t *testing.T) {
	n := mustNet(t, testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.4, 7))
	hub := n.EnableTelemetry(telemetry.Options{ProfileEvery: 1})
	n.Run(50)

	counts := map[string]float64{}
	for _, s := range hub.Registry.Gather() {
		if s.Name != "disha_step_phase_seconds_count" {
			continue
		}
		counts[s.Labels.Map()["phase"]] = s.Value
	}
	for _, phase := range []string{
		"inject", "route_compute", "switch_allocate", "db_resolve",
		"commit", "timers", "flush", "recovery", "step_total",
	} {
		if counts[phase] < 1 {
			t.Errorf("phase %q observation count = %g, want >= 1", phase, counts[phase])
		}
	}
	if counts["step_total"] != 50 {
		t.Errorf("step_total count = %g, want 50 (ProfileEvery=1)", counts["step_total"])
	}
}

// TestEpisodeSnapshotAgreement runs the deadlock-prone golden DISHA case
// and cross-checks the two true-deadlock verdict paths: every
// flight-recorder snapshot's TrueDeadlock must agree with the TrueCycle
// label of the episode span opened by the same presumption (matched on
// cycle and trigger packet). Both derive from one WFG analysis per cycle,
// so disagreement means the cache wiring broke.
func TestEpisodeSnapshotAgreement(t *testing.T) {
	var disha goldenCase
	for _, gc := range goldenCases() {
		if gc.name == "disha" {
			disha = gc
		}
	}
	cfg := disha.build()
	n := mustNet(t, cfg)
	// Deep episode ring: the deadlock-prone case opens thousands of
	// episodes and the matching spans must survive to the end of the run.
	hub := n.EnableTelemetry(telemetry.Options{SnapshotCooldown: 50, EpisodeDepth: 1 << 16})
	n.Run(disha.cycles)
	hub.Episodes.FlushOpen(int64(n.Now()))

	if hub.Episodes.Total() == 0 {
		t.Fatal("deadlock-prone case opened no recovery episodes")
	}
	snaps := hub.Recorder.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("deadlock-prone case recorded no snapshots")
	}

	spansByStart := map[int64][]*telemetry.EpisodeSpan{}
	for _, s := range hub.Episodes.Spans() {
		spansByStart[s.Start] = append(spansByStart[s.Start], s)
	}
	matched := 0
	for _, snap := range snaps {
		// Every span opened in the snapshot's cycle was labeled by the same
		// WFG analysis the snapshot reused, so their verdicts must be equal.
		// (The trigger packet itself may have re-crossed T_out on an episode
		// opened earlier, so we match on cycle, not on the trigger packet.)
		for _, s := range spansByStart[snap.Cycle] {
			matched++
			if s.TrueCycle != snap.TrueDeadlock {
				t.Errorf("cycle %d pkt %d: span TrueCycle=%v, snapshot TrueDeadlock=%v — verdicts must agree",
					snap.Cycle, s.Pkt, s.TrueCycle, snap.TrueDeadlock)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no snapshot cycle matched any episode span")
	}
}

// TestEpisodeSpansWellFormed checks the span stream a real run produces:
// phase cycles must be ordered (start <= capture <= recover <= end when
// present) and every closed span carries a terminal outcome.
func TestEpisodeSpansWellFormed(t *testing.T) {
	var disha goldenCase
	for _, gc := range goldenCases() {
		if gc.name == "disha" {
			disha = gc
		}
	}
	cfg := disha.build()
	n := mustNet(t, cfg)
	hub := n.EnableTelemetry(telemetry.Options{})
	n.Run(disha.cycles)
	hub.Episodes.FlushOpen(int64(n.Now()))

	for _, s := range hub.Episodes.Spans() {
		if s.Outcome != "delivered" && s.Outcome != "killed" && s.Outcome != "open" {
			t.Errorf("span pkt %d: bad outcome %q", s.Pkt, s.Outcome)
		}
		if s.End < s.Start {
			t.Errorf("span pkt %d: end %d before start %d", s.Pkt, s.End, s.Start)
		}
		if s.Capture >= 0 && s.Capture < s.Start {
			t.Errorf("span pkt %d: capture %d before start %d", s.Pkt, s.Capture, s.Start)
		}
		if s.Recover >= 0 && s.Capture >= 0 && s.Recover < s.Capture {
			t.Errorf("span pkt %d: recover %d before capture %d", s.Pkt, s.Recover, s.Capture)
		}
		if s.Recover >= 0 && s.End < s.Recover {
			t.Errorf("span pkt %d: end %d before recover %d", s.Pkt, s.End, s.Recover)
		}
	}
}
