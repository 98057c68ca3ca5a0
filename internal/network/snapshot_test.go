package network

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// Regenerate the committed snapshot-format fixture after an intentional
// format change (remember to bump snapshotVersion) with:
//
//	go test ./internal/network -run TestSnapshotGoldenFixture -update-snapshot
var updateSnapshot = flag.Bool("update-snapshot", false, "rewrite testdata/snapshot_v2.bin from the current encoder")

const snapshotFixture = "testdata/snapshot_v2.bin"

// takeSnapshot runs a fresh network for warm cycles and returns the network
// plus its serialized state.
func takeSnapshot(t *testing.T, cfg Config, warm int) (*Network, []byte) {
	t.Helper()
	n := mustNet(t, cfg)
	n.Run(warm)
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return n, buf.Bytes()
}

// restoreFresh builds a fresh network with cfg and loads the snapshot.
func restoreFresh(t *testing.T, cfg Config, data []byte) *Network {
	t.Helper()
	n := mustNet(t, cfg)
	if err := n.Restore(bytes.NewReader(data)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return n
}

// checkLockstep steps both networks together and insists their full-state
// fingerprints agree at every cycle — the core restore-equivalence property.
func checkLockstep(t *testing.T, orig, restored *Network, cycles int) {
	t.Helper()
	if got, want := restored.FingerprintHex(), orig.FingerprintHex(); got != want {
		t.Fatalf("digest differs immediately after restore: %s vs %s", got, want)
	}
	for i := 0; i < cycles; i++ {
		orig.Step()
		restored.Step()
		if got, want := restored.FingerprintHex(), orig.FingerprintHex(); got != want {
			t.Fatalf("digest diverges %d cycles after restore: %s vs %s", i+1, got, want)
		}
	}
}

// TestSnapshotRoundTripDigest is the acceptance property from the issue: for
// every routing algorithm, a network restored from a mid-run snapshot
// produces the same per-cycle fingerprint as the uninterrupted original —
// on the optimized scan path, and across scan paths (a snapshot restored
// into a network running the reference scan).
func TestSnapshotRoundTripDigest(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			for _, tc := range []struct {
				name       string
				restoreRef bool
			}{
				{"serial", false},
				{"serial-to-reference", true},
			} {
				t.Run(tc.name, func(t *testing.T) {
					cfg := gc.build()
					orig, data := takeSnapshot(t, cfg, 300)
					cfg.Kernel.ReferenceScan = tc.restoreRef
					restored := restoreFresh(t, cfg, data)
					checkLockstep(t, orig, restored, 150)
				})
			}
		})
	}
}

// TestSnapshotRecoveryModes round-trips the two non-default recovery modes,
// whose state machines (Hamiltonian DB lanes, abort-retry kill lists) put
// packets in places sequential recovery never does.
func TestSnapshotRecoveryModes(t *testing.T) {
	base := func(recovery router.RecoveryMode) Config {
		cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.9, 12)
		cfg.Router.VCs = 2
		cfg.Router.BufferDepth = 1
		cfg.Router.Timeout = 4
		cfg.Router.Recovery = recovery
		return cfg
	}
	for _, tc := range []struct {
		name string
		mode router.RecoveryMode
	}{
		{"concurrent", router.RecoveryConcurrent},
		{"abort-retry", router.RecoveryAbortRetry},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := base(tc.mode)
			orig, data := takeSnapshot(t, cfg, 400)
			restored := restoreFresh(t, cfg, data)
			checkLockstep(t, orig, restored, 150)
		})
	}
}

// TestSnapshotFaultReplay verifies the fault-injection replay list: a
// snapshot of a degraded network restores the same failed links (and the
// rebuilt DB routing tables they imply) before applying state.
func TestSnapshotFaultReplay(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.4, 9)
	n := mustNet(t, cfg)
	if err := n.FailLink(10, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(35, 1); err != nil {
		t.Fatal(err)
	}
	n.Run(300)
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := restoreFresh(t, cfg, buf.Bytes())
	if restored.FailedLinks() != 2 {
		t.Fatalf("restored network has %d failed links, want 2", restored.FailedLinks())
	}
	checkLockstep(t, n, restored, 150)
}

// TestSnapshotDrainedStateResumes checks that stopped injection survives a
// round trip: a drained-and-stopped network stays drained after restore.
func TestSnapshotDrainedStateResumes(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 5)
	n := mustNet(t, cfg)
	n.Run(500)
	n.StopInjection()
	if !n.RunUntilDrained(5000) {
		t.Fatal("network did not drain")
	}
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := restoreFresh(t, cfg, buf.Bytes())
	checkLockstep(t, n, restored, 50)
	if !restored.Drained() {
		t.Fatal("restored network resumed injection after drain")
	}
}

// TestSnapshotConfigGuard tries to load a snapshot into structurally
// different networks; every mismatch must be rejected with an error.
func TestSnapshotConfigGuard(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 1)
	_, data := takeSnapshot(t, cfg, 100)

	mutations := map[string]func(*Config){
		"topology":  func(c *Config) { c.Topo = topology.MustMesh(4, 4) },
		"size":      func(c *Config) { c.Topo = topology.MustTorus(8, 8) },
		"algorithm": func(c *Config) { c.Algorithm = routing.DOR() },
		"seed":      func(c *Config) { c.Seed = 2 },
		"load":      func(c *Config) { c.LoadRate = 0.31 },
		"msglen":    func(c *Config) { c.MsgLen = 4 },
		"vcs":       func(c *Config) { c.Router.VCs = 6 },
		"depth":     func(c *Config) { c.Router.BufferDepth = 4 },
		"timeout":   func(c *Config) { c.Router.Timeout = 99 },
		"recovery":  func(c *Config) { c.Router.Recovery = router.RecoveryAbortRetry },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			bad := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 1)
			mutate(&bad)
			n := mustNet(t, bad)
			if err := n.Restore(bytes.NewReader(data)); err == nil {
				t.Fatal("restore into a mismatched configuration succeeded")
			}
		})
	}

	t.Run("reference-scan-may-differ", func(t *testing.T) {
		ok := cfg
		ok.Kernel.ReferenceScan = true
		n := mustNet(t, ok)
		if err := n.Restore(bytes.NewReader(data)); err != nil {
			t.Fatalf("restore onto the other scan path must succeed: %v", err)
		}
	})
}

// TestSnapshotFreshnessGuard insists Restore refuses a network that has
// already been stepped — partial overwrite would corrupt state silently.
func TestSnapshotFreshnessGuard(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.3, 1)
	_, data := takeSnapshot(t, cfg, 50)
	stale := mustNet(t, cfg)
	stale.Run(10)
	if err := stale.Restore(bytes.NewReader(data)); err == nil {
		t.Fatal("restore into a stepped network succeeded")
	}
}

// TestSnapshotCorruption flips bytes and truncates a valid snapshot at every
// prefix length; decoding must always fail cleanly, never panic, and never
// silently succeed.
func TestSnapshotCorruption(t *testing.T) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	cfg.Router.Timeout = 4
	_, data := takeSnapshot(t, cfg, 200)

	t.Run("truncation", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			n := mustNet(t, cfg)
			if err := n.Restore(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(data))
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		// Any flipped bit breaks the SHA-256 trailer, so Open must reject it.
		for pos := 0; pos < len(data); pos += 97 {
			mut := bytes.Clone(data)
			mut[pos] ^= 0x40
			n := mustNet(t, cfg)
			if err := n.Restore(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at %d decoded without error", pos)
			}
		}
	})
}

// TestSnapshotDeterministicBytes pins that the encoder itself is
// deterministic: two snapshots of the same state are byte-identical, whichever
// scan path produced the state (the harness relies on this when comparing
// checkpoints).
func TestSnapshotDeterministicBytes(t *testing.T) {
	cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.6, 42)
	cfg.Router.VCs = 2
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4

	run := func(refScan bool) []byte {
		c := cfg
		c.Kernel.ReferenceScan = refScan
		n := mustNet(t, c)
		n.Run(300)
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	optimized := run(false)
	if again := run(false); !bytes.Equal(optimized, again) {
		t.Fatal("two snapshots of identical runs differ")
	}
	if reference := run(true); !bytes.Equal(optimized, reference) {
		t.Fatal("reference-scan snapshot differs from optimized-scan snapshot of the same state")
	}
}

// snapshotFixtureConfig is the pinned configuration for the committed
// format fixture. Changing it invalidates testdata/snapshot_v2.bin.
func snapshotFixtureConfig() Config {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.6, 2026)
	cfg.Router.VCs = 2
	cfg.Router.BufferDepth = 1
	cfg.Router.Timeout = 4
	return cfg
}

// TestSnapshotGoldenFixture decodes a snapshot file committed to testdata,
// pinning the on-disk format: if the encoding changes in any way, this test
// fails until the format version is bumped and the fixture regenerated.
func TestSnapshotGoldenFixture(t *testing.T) {
	cfg := snapshotFixtureConfig()
	if *updateSnapshot {
		_, data := takeSnapshot(t, cfg, 250)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotFixture, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", snapshotFixture, len(data))
		return
	}

	data, err := os.ReadFile(snapshotFixture)
	if err != nil {
		t.Fatalf("missing snapshot fixture (regenerate with -update-snapshot): %v", err)
	}
	restored := restoreFresh(t, cfg, data)

	// The fixture must decode to the exact state the encoder produces today.
	orig, fresh := takeSnapshot(t, cfg, 250)
	if !bytes.Equal(data, fresh) {
		t.Fatal("current encoder no longer reproduces the committed fixture; bump snapshotVersion and regenerate with -update-snapshot")
	}
	checkLockstep(t, orig, restored, 50)
}

// FuzzSnapshotRestore throws arbitrary bytes at Restore. Raw mutations are
// usually stopped by the checksum trailer, so the fuzz body also re-seals the
// input as a valid container to reach the payload decoder: either way the
// requirement is an error, never a panic.
func FuzzSnapshotRestore(f *testing.F) {
	cfg := testConfig(topology.MustTorus(4, 4), routing.Disha(0), 0.5, 3)
	cfg.Router.Timeout = 4
	n, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	n.Run(150)
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	payload, err := snapshot.Open(valid, snapshotMagic, snapshotVersion)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot.Seal(snapshotMagic, snapshotVersion, payload[:len(payload)/3]))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := func() *Network {
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		n := fresh()
		_ = n.Restore(bytes.NewReader(data)) // must not panic

		// Re-seal so the checksum passes and the payload decoder runs.
		n = fresh()
		_ = n.Restore(bytes.NewReader(snapshot.Seal(snapshotMagic, snapshotVersion, data)))
	})
}
