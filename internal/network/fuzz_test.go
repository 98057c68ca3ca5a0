package network

import (
	"testing"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// FuzzConfigNormalize drives Config validation (and the constructors behind
// it) with arbitrary parameters: New must either reject the configuration
// with an error or return a network that survives a short run with sound
// invariants — never panic. The algorithm/recovery/allocation selectors are
// decoded modulo their domains so the fuzzer reaches every combination,
// including degenerate VC/buffer settings.
func FuzzConfigNormalize(f *testing.F) {
	f.Add(int8(4), int8(4), uint8(0), int8(4), int8(2), int8(1), int8(1), int16(8), uint8(0), uint8(0), int16(8), uint16(100))
	f.Add(int8(8), int8(8), uint8(1), int8(1), int8(1), int8(0), int8(1), int16(4), uint8(1), uint8(0), int16(32), uint16(300))
	f.Add(int8(3), int8(5), uint8(2), int8(2), int8(1), int8(1), int8(2), int16(1), uint8(2), uint8(1), int16(1), uint16(50))
	f.Add(int8(2), int8(0), uint8(3), int8(0), int8(0), int8(0), int8(0), int16(0), uint8(0), uint8(1), int16(0), uint16(10))
	f.Add(int8(4), int8(4), uint8(4), int8(-2), int8(-1), int8(-1), int8(-1), int16(-8), uint8(2), uint8(0), int16(-1), uint16(120))
	f.Fuzz(func(t *testing.T, kx, ky int8, algSel uint8, vcs, depth, dbDepth, injVCs int8,
		timeout int16, recovery, alloc uint8, msgLen int16, cycles uint16) {
		// Fold the numeric knobs into small ranges that still include
		// invalid values (negatives, zeros): rejection paths stay reachable
		// while valid configurations remain cheap enough to actually step.
		fold := func(v int8, span int) int { return int(v)%span - 1 }
		topo, err := topology.NewTorus(fold(kx, 10), fold(ky, 10))
		if err != nil {
			return
		}
		vcs = int8(fold(vcs, 10))
		depth = int8(fold(depth, 7))
		dbDepth = int8(fold(dbDepth, 5))
		injVCs = int8(fold(injVCs, 5))
		msgLen = int16(fold(int8(msgLen%64), 34))
		algs := []routing.Algorithm{
			routing.Disha(0), routing.Disha(3), routing.DOR(),
			routing.NegativeFirst(), routing.DallyAoki(), routing.Duato(),
		}
		cfg := Config{
			Topo:      topo,
			Algorithm: algs[int(algSel)%len(algs)],
			Pattern:   traffic.Uniform(topo),
			LoadRate:  0.4,
			MsgLen:    int(msgLen),
			Seed:      1,
			Router: router.Config{
				VCs:                 int(vcs),
				BufferDepth:         int(depth),
				DeadlockBufferDepth: int(dbDepth),
				InjectionVCs:        int(injVCs),
				Timeout:             sim.Cycle(timeout),
				Recovery:            router.RecoveryMode(int(recovery) % 4),
				Alloc:               router.AllocPolicy(int(alloc) % 3),
			},
		}
		n, err := New(cfg)
		if err != nil {
			return
		}
		steps := int(cycles) % 200
		for i := 0; i < steps; i++ {
			n.Step()
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", steps, err)
		}
		c := n.Counters()
		if c.PacketsDelivered > c.PacketsInjected {
			t.Fatalf("delivered %d > injected %d", c.PacketsDelivered, c.PacketsInjected)
		}
	})
}

// FuzzSoALayout drives the struct-of-arrays layout through arbitrary
// geometries — radix, VC count, injection VCs, buffer depth, load, seed —
// and insists the optimized scan path stays digest-locked to the retained
// reference path over a short run, with CheckInvariants (which includes the
// per-router SoA CheckState cross-check) clean on both sides. The committed
// corpus pins the shapes most likely to break slot arithmetic: 2-ary tori
// (every port a wraparound), odd radices, and 1-VC configurations where the
// injection-slot block starts immediately after a single-VC port block.
func FuzzSoALayout(f *testing.F) {
	// 2-ary torus, 1 VC, minimal depth.
	f.Add(uint8(2), uint8(2), uint8(0), uint8(1), uint8(1), uint8(1), uint8(40), uint64(1), uint8(80))
	// Odd × odd mesh under NegativeFirst.
	f.Add(uint8(3), uint8(5), uint8(3), uint8(2), uint8(2), uint8(2), uint8(50), uint64(7), uint8(100))
	// Odd-radix torus, deadlock-prone DISHA settings.
	f.Add(uint8(5), uint8(5), uint8(0), uint8(2), uint8(1), uint8(1), uint8(60), uint64(42), uint8(120))
	// Duato needs 3 VCs on a torus; more injection VCs than network VCs.
	f.Add(uint8(4), uint8(4), uint8(5), uint8(3), uint8(2), uint8(4), uint8(50), uint64(9), uint8(90))
	f.Fuzz(func(t *testing.T, kx, ky, algSel, vcs, depth, injVCs, loadPct uint8, seed uint64, cycles uint8) {
		algs := []routing.Algorithm{
			routing.Disha(0), routing.Disha(3), routing.DOR(),
			routing.NegativeFirst(), routing.DallyAoki(), routing.Duato(),
		}
		build := func(ref bool) (*Network, error) {
			topo, err := topology.NewTorus(int(kx)%9, int(ky)%9)
			if err != nil {
				return nil, err
			}
			return New(Config{
				Topo:      topo,
				Algorithm: algs[int(algSel)%len(algs)],
				Pattern:   traffic.Uniform(topo),
				LoadRate:  float64(loadPct%100) / 100,
				MsgLen:    4,
				Seed:      seed,
				Router: router.Config{
					VCs:          int(vcs)%5 + 1,
					BufferDepth:  int(depth)%4 + 1,
					InjectionVCs: int(injVCs) % 6,
					Timeout:      16,
				},
				Kernel: KernelConfig{ReferenceScan: ref},
			})
		}
		soa, err := build(false)
		if err != nil {
			return // invalid geometry/algorithm combination; rejection is fine
		}
		ref, err := build(true)
		if err != nil {
			t.Fatalf("reference build failed where SoA build succeeded: %v", err)
		}
		steps := int(cycles) % 150
		for i := 0; i < steps; i++ {
			soa.Step()
			ref.Step()
			if soa.Fingerprint() != ref.Fingerprint() {
				reportDivergence(t, i+1, soa, ref)
			}
		}
		if err := soa.CheckInvariants(); err != nil {
			t.Fatalf("SoA path after %d cycles: %v", steps, err)
		}
		if err := ref.CheckInvariants(); err != nil {
			t.Fatalf("reference path after %d cycles: %v", steps, err)
		}
	})
}
