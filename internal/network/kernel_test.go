package network

import (
	"runtime"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestKernelConfigValidation pins the kernel's construction contract: both
// scan paths build, stepping starts no goroutines, and Close is a no-op that
// is safe to call repeatedly.
func TestKernelConfigValidation(t *testing.T) {
	for _, refScan := range []bool{false, true} {
		cfg := testConfig(topology.MustTorus(4, 4), routing.DOR(), 0.1, 1)
		cfg.Kernel.ReferenceScan = refScan
		before := runtime.NumGoroutine()
		n := mustNet(t, cfg)
		n.Run(50)
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("refScan=%v: %d goroutines after building and stepping, %d before", refScan, after, before)
		}
		n.Run(10)
	}
}

// TestKernelStepZeroAllocs asserts the steady-state hot path allocates
// nothing per cycle — on the optimized struct-of-arrays scans and on the
// retained reference scan path: injection stopped, in-flight traffic still
// moving through routing, switching, commit, timers and recovery phases.
func TestKernelStepZeroAllocs(t *testing.T) {
	for _, refScan := range []bool{false, true} {
		cfg := testConfig(topology.MustTorus(8, 8), routing.Disha(0), 0.6, 11)
		cfg.Router.VCs = 2
		cfg.Router.BufferDepth = 1
		cfg.Router.Timeout = 4
		cfg.Kernel.ReferenceScan = refScan
		n := mustNet(t, cfg)
		// Warm up with live injection (growing scratch buffers to their
		// steady-state capacity), then stop sources so packet generation —
		// which inherently allocates — is out of the measured path.
		n.Run(400)
		n.StopInjection()
		n.Run(50)
		if allocs := testing.AllocsPerRun(100, n.Step); allocs != 0 {
			t.Errorf("refScan=%v: %v allocs per Step in steady state, want 0", refScan, allocs)
		}
	}
}
