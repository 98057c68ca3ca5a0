package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	disha "repro"
	"repro/internal/telemetry"
)

// wedgeDump runs the deadlock-prone 8x8 torus configuration
// (disha-sim -radix 8 -load 0.9 -vcs 1 -msglen 8 -cycles 3000) under the
// given recovery mode and returns its JSONL dump, written the way
// disha-sim -trace-out writes it.
func wedgeDump(t *testing.T, mode disha.RecoveryMode) *dump {
	t.Helper()
	topo := disha.Torus(8, 8)
	sim, err := disha.NewSimulator(disha.SimConfig{
		Topo: topo, Algorithm: disha.DishaRouting(0), Pattern: disha.Uniform(topo),
		LoadRate: 0.9, MsgLen: 8, VCs: 1, BufferDepth: 2, Timeout: 8,
		Recovery: mode, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := disha.NewTelemetryWriter(&buf)
	tel := sim.EnableTelemetry(disha.TelemetryOptions{Writer: tw})
	sim.Run(3000)
	tel.Episodes.FlushOpen(int64(sim.Now()))
	tw.WriteCounters(int64(sim.Now()), sim.CountersMap())
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return split(lines)
}

var episodeHeader = regexp.MustCompile(`recovery-episode spans \((\d+)\)`)

// episodeCount reads the episode count a report announces.
func episodeCount(t *testing.T, report string) int {
	t.Helper()
	m := episodeHeader.FindAllStringSubmatch(report, -1)
	if len(m) != 1 {
		t.Fatalf("report has %d episode headers, want 1:\n%s", len(m), report)
	}
	n, _ := strconv.Atoi(m[0][1])
	return n
}

// TestEpisodeCountsAgree checks that the default post-mortem and the
// episodes subcommand count exactly the dump's span lines. Under
// abort-and-retry a killed packet is requeued under its own ID and can be
// presumed again, so one packet owns several episodes; a model keyed by
// packet ID would merge them.
func TestEpisodeCountsAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode disha.RecoveryMode
	}{
		{"sequential", disha.RecoverySequential},
		{"abort-retry", disha.RecoveryAbortRetry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := wedgeDump(t, tc.mode)
			if len(d.spans) == 0 {
				t.Fatal("no spans; the wedge presumed no deadlock")
			}
			var post, eps bytes.Buffer
			postMortem(&post, d, 10, 4)
			printEpisodes(&eps, d, 20, "-limit")
			if got := episodeCount(t, post.String()); got != len(d.spans) {
				t.Errorf("post-mortem reports %d episodes, dump has %d spans", got, len(d.spans))
			}
			if got := episodeCount(t, eps.String()); got != len(d.spans) {
				t.Errorf("episodes reports %d episodes, dump has %d spans", got, len(d.spans))
			}
			perPkt := map[int64]int{}
			retried := false
			for _, s := range d.spans {
				perPkt[s.Pkt]++
				retried = retried || perPkt[s.Pkt] > 1
			}
			if tc.mode == disha.RecoveryAbortRetry && !retried {
				t.Error("no packet was presumed twice; the abort-retry case is vacuous")
			}
		})
	}
}
