package chaos

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func testConfig(topo topology.Graph, load float64, seed uint64) network.Config {
	rc := router.Default()
	rc.Timeout = 8
	rc.DeadlockBufferDepth = 1
	return network.Config{
		Topo:      topo,
		Router:    rc,
		Algorithm: routing.Disha(2),
		Pattern:   traffic.Uniform(topo),
		LoadRate:  load,
		MsgLen:    8,
		Seed:      seed,
	}
}

func mustNet(t *testing.T, cfg network.Config) *network.Network {
	t.Helper()
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestGenerateDeterministic: the same (topology, seed, knobs) must yield a
// byte-identical schedule, and a different seed a different one.
func TestGenerateDeterministic(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	cfg := CampaignConfig{Topo: topo, Seed: 42, Events: 30, RouterKills: true,
		Algorithms: []string{"disha-m1", "disha-m3"}}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(a.Events) != 30 {
		t.Fatalf("wanted 30 events, got %d", len(a.Events))
	}
}

// TestScheduleJSONRoundTrip: Save → Load preserves the schedule exactly.
func TestScheduleJSONRoundTrip(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	s, err := Generate(CampaignConfig{Topo: topo, Seed: 7, Events: 10})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, loaded) {
		t.Fatalf("round trip changed the schedule:\n%+v\n%+v", s, loaded)
	}
}

// TestScheduleValidation rejects malformed schedules.
func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{Events: []Event{{Cycle: 10, Kind: "explode"}}},
		{Events: []Event{{Cycle: -1, Kind: "kill-link"}}},
		{Events: []Event{{Cycle: 20, Kind: "kill-link"}, {Cycle: 10, Kind: "heal-link"}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("schedule %d accepted", i)
		}
	}
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

// TestCampaignAcceptance is the PR's acceptance criterion: a seeded chaos
// campaign with at least 20 kill/heal events on a 16x16 torus runs to
// completion with zero undelivered non-dropped packets, reports per-event
// recovery latency and time-to-reconverge, and replays byte-identically
// from a mid-campaign checkpoint.
func TestCampaignAcceptance(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("16x16 campaign is slow; CI runs it in a dedicated non-race step")
	}
	topo := topology.MustTorus(16, 16)
	sched, err := Generate(CampaignConfig{
		Topo: topo, Seed: 11, Events: 24, Start: 200, Spacing: 150, RouterKills: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) < 20 {
		t.Fatalf("campaign too small: %d events", len(sched.Events))
	}

	cfg := testConfig(topo, 0.35, 11)
	net := mustNet(t, cfg)
	run, err := NewRunner(net, sched)
	if err != nil {
		t.Fatal(err)
	}
	run.RunTo(3500)

	// Mid-campaign checkpoint for the replay half below.
	var ckpt bytes.Buffer
	if err := net.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}

	run.RunTo(5500)
	net.StopInjection()
	if !net.RunUntilDrained(120000) {
		t.Fatalf("campaign did not drain: in-flight=%d", net.InFlight())
	}
	run.Sync()

	c := net.Counters()
	if c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		t.Fatalf("undelivered non-dropped packets: injected=%d delivered=%d lost=%d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	}
	sum := run.Summary()
	applied := 0
	for _, rep := range run.Reports() {
		if !rep.Applied {
			continue
		}
		applied++
		if rep.RecoveryCycles < 0 || rep.ReconvergeCycles < 0 {
			t.Errorf("event %v never reconverged (recovery=%d reconverge=%d)",
				rep.ReconfigEvent, rep.RecoveryCycles, rep.ReconvergeCycles)
		}
	}
	if applied < 20 {
		t.Fatalf("fewer than 20 events applied: %d (skipped %d)", applied, sum.Skipped)
	}
	if sum.Open != 0 {
		t.Fatalf("%d events still open after drain", sum.Open)
	}
	finalDigest := net.FingerprintHex()
	finalLog := net.ReconfigLog()

	// Replay: fresh network, restore the checkpoint, re-arm the same
	// schedule, drive to the same point — byte-identical state and log.
	net2 := mustNet(t, cfg)
	if err := net2.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	run2, err := NewRunner(net2, sched)
	if err != nil {
		t.Fatal(err)
	}
	run2.RunTo(5500)
	net2.StopInjection()
	if !net2.RunUntilDrained(120000) {
		t.Fatal("replay did not drain")
	}
	if got := net2.FingerprintHex(); got != finalDigest {
		t.Fatalf("replay diverged: %s vs %s", got, finalDigest)
	}
	log2 := net2.ReconfigLog()
	if !reflect.DeepEqual(finalLog, log2) {
		t.Fatalf("replayed reconfiguration log differs:\n%v\n%v", finalLog, log2)
	}
}

// TestCampaignScanPathsAgree runs a moderate campaign, router kills
// included, on the optimized and the reference scan paths and demands the
// same final fingerprint: reconfiguration mutates the struct-of-arrays state
// both paths scan, so a mutation that one path's bitsets miss shows up here.
func TestCampaignScanPathsAgree(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	sched, err := Generate(CampaignConfig{
		Topo: topo, Seed: 5, Events: 12, Start: 150, Spacing: 200, RouterKills: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(refScan bool) string {
		cfg := testConfig(topo, 0.4, 5)
		cfg.Kernel.ReferenceScan = refScan
		net := mustNet(t, cfg)
		r, err := NewRunner(net, sched)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(4000)
		return net.FingerprintHex()
	}
	if optimized, reference := run(false), run(true); optimized != reference {
		t.Fatalf("reference-scan campaign diverged: %s vs %s", optimized, reference)
	}
}

// TestRunnerPresenceInvisible: driving a network through a Runner must not
// perturb it — fingerprints match arming the schedule and stepping raw.
func TestRunnerPresenceInvisible(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	sched, err := Generate(CampaignConfig{Topo: topo, Seed: 3, Events: 6, Start: 100, Spacing: 150})
	if err != nil {
		t.Fatal(err)
	}

	raw := mustNet(t, testConfig(topo, 0.4, 5))
	events, err := sched.Reconfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.ScheduleReconfig(events); err != nil {
		t.Fatal(err)
	}
	raw.Run(1500)

	observed := mustNet(t, testConfig(topo, 0.4, 5))
	run, err := NewRunner(observed, sched)
	if err != nil {
		t.Fatal(err)
	}
	run.Run(1500)

	if a, b := raw.FingerprintHex(), observed.FingerprintHex(); a != b {
		t.Fatalf("runner observation perturbed the simulation: %s vs %s", a, b)
	}
}

// TestInfeasibleEventsSkippedDeterministically: a schedule naming a
// disconnecting kill is not an error — the network logs it as skipped, and
// both kernel variants agree on the outcome.
func TestInfeasibleEventsSkippedDeterministically(t *testing.T) {
	topo := topology.MustMesh(2, 2)
	s := &Schedule{Events: []Event{
		{Cycle: 50, Kind: "kill-link", Node: 0, Port: topology.PortFor(0, 1)},
		// This second cut would isolate corner 0: it must be skipped.
		{Cycle: 100, Kind: "kill-link", Node: 0, Port: topology.PortFor(1, 1)},
	}}
	net := mustNet(t, testConfig(topo, 0.0, 1))
	run, err := NewRunner(net, s)
	if err != nil {
		t.Fatal(err)
	}
	run.Run(200)
	reps := run.Reports()
	if len(reps) != 2 {
		t.Fatalf("wanted 2 reports, got %d", len(reps))
	}
	if !reps[0].Applied || reps[1].Applied {
		t.Fatalf("wanted applied+skipped, got %v / %v", reps[0].ReconfigOutcome, reps[1].ReconfigOutcome)
	}
	if reps[1].Reason == "" {
		t.Fatal("skipped event has no reason")
	}
}

// TestCampaignAcceptanceFullMesh re-validates the campaign acceptance
// criterion on a non-cube topology class: a seeded kill/heal campaign on a
// 16-node full mesh runs to completion with a balanced loss ledger
// (injected = delivered + lost), every applied event reconverges, and the
// final state is reproducible from the same seed. The full mesh exercises
// the digraph path end-to-end: BFS Deadlock Buffer lane tables, their
// rebuild after reconfiguration, and canonical link keying without cube
// port conventions.
func TestCampaignAcceptanceFullMesh(t *testing.T) {
	topo := topology.MustFullMesh(16)
	sched, err := Generate(CampaignConfig{
		Topo: topo, Seed: 9, Events: 16, Start: 150, Spacing: 120, RouterKills: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func() (string, *network.Network, *Runner) {
		cfg := testConfig(topo, 0.25, 9)
		net := mustNet(t, cfg)
		r, err := NewRunner(net, sched)
		if err != nil {
			t.Fatal(err)
		}
		r.RunTo(2600)
		net.StopInjection()
		if !net.RunUntilDrained(60000) {
			t.Fatalf("campaign did not drain: in-flight=%d", net.InFlight())
		}
		r.Sync()
		return net.FingerprintHex(), net, r
	}

	digest, net, runner := run()

	c := net.Counters()
	if c.PacketsInjected != c.PacketsDelivered+c.PacketsLost {
		t.Fatalf("loss ledger unbalanced: injected=%d delivered=%d lost=%d",
			c.PacketsInjected, c.PacketsDelivered, c.PacketsLost)
	}
	if c.PacketsDelivered == 0 {
		t.Fatal("campaign delivered nothing")
	}
	sum := runner.Summary()
	if sum.Applied == 0 {
		t.Fatalf("no events applied (skipped %d)", sum.Skipped)
	}
	if sum.Open != 0 {
		t.Fatalf("%d events still open after drain", sum.Open)
	}
	for _, rep := range runner.Reports() {
		if rep.Applied && (rep.RecoveryCycles < 0 || rep.ReconvergeCycles < 0) {
			t.Errorf("event %v never reconverged (recovery=%d reconverge=%d)",
				rep.ReconfigEvent, rep.RecoveryCycles, rep.ReconvergeCycles)
		}
	}

	// Same seed, same schedule: the rerun must land on the same digest.
	digest2, _, _ := run()
	if digest2 != digest {
		t.Fatalf("rerun diverged: %s vs %s", digest2, digest)
	}
}
