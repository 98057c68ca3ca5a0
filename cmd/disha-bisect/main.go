// Command disha-bisect finds the first cycle at which two simulator
// configurations diverge. It runs both configurations in lockstep at a
// coarse granularity, comparing full-state SHA-256 digests at each
// boundary and snapshotting the last state the two sides agreed on; when
// a boundary digest differs, it restores both sides from the last-equal
// snapshot and single-steps to isolate the exact divergent cycle.
//
// The two sides share the base flags; -a and -b apply comma-separated
// key=value overrides on top:
//
//	# when does misrouting first change global state?
//	disha-bisect -radix 8 -load 0.7 -cycles 5000 -a misroutes=0 -b misroutes=3
//
//	# does the selection function matter before saturation?
//	disha-bisect -load 0.3 -cycles 2000 -a sel=random -b sel=min-congestion
//
//	# recovery-mode comparison at a fine granularity
//	disha-bisect -load 0.9 -a recovery=sequential -b recovery=abort-retry -granularity 64
//
// Override keys: topo, alg, misroutes, sel, traffic, load, msglen, vcs,
// depth, timeout, recovery, throttle, rx, seed.
//
// Exit status: 0 if the runs are digest-identical for the full -cycles
// window, 1 if they diverge (the first divergent cycle is printed), 2 on
// usage or simulation errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	disha "repro"
	"repro/internal/chaos"
	"repro/internal/telemetry"
)

// sideConfig is one bisection side: the shared base configuration with
// that side's overrides applied.
type sideConfig struct {
	radix, dims int
	mesh        bool
	topo        string
	alg         string
	misroutes   int
	sel         string
	traffic     string
	hotFrac     float64
	load        float64
	msgLen      int
	vcs         int
	depth       int
	timeout     int
	recovery    string
	throttle    int
	rx          int
	seed        uint64
}

func main() {
	var (
		radix       = flag.Int("radix", 8, "nodes per dimension")
		dims        = flag.Int("dims", 2, "dimensions")
		mesh        = flag.Bool("mesh", false, "use a mesh instead of a torus")
		topoName    = flag.String("topo", "", `topology by name, e.g. "fullmesh-16" or "fattree-4" (overrides -radix/-dims/-mesh)`)
		algName     = flag.String("alg", "disha", "routing algorithm: disha, dor, turn, dally, duato, duato-strict")
		misroutes   = flag.Int("misroutes", 0, "Disha misroute bound M")
		selName     = flag.String("sel", "random", "selection function: random, min-congestion")
		trafName    = flag.String("traffic", "uniform", "pattern: uniform, bit-reversal, transpose, hotspot, complement, tornado")
		hotFrac     = flag.Float64("hotspot-fraction", 0.05, "hot-spot traffic fraction")
		load        = flag.Float64("load", 0.6, "offered load (fraction of capacity)")
		msgLen      = flag.Int("msglen", 16, "message length in flits")
		vcs         = flag.Int("vcs", 2, "virtual channels per physical channel")
		depth       = flag.Int("depth", 2, "per-VC buffer depth in flits")
		timeout     = flag.Int("timeout", 8, "deadlock time-out T_out")
		recovMode   = flag.String("recovery", "sequential", "recovery mode: sequential, concurrent, abort-retry")
		throttle    = flag.Int("throttle", 0, "max outstanding packets per node (0 = unthrottled)")
		rx          = flag.Int("rx", 1, "reception channels per node")
		seed        = flag.Uint64("seed", 1, "random seed")
		cycles      = flag.Int("cycles", 10000, "cycles to search")
		granularity = flag.Int("granularity", 256, "coarse comparison stride in cycles")
		overridesA  = flag.String("a", "", "side A overrides, e.g. alg=disha,misroutes=0")
		overridesB  = flag.String("b", "", "side B overrides, e.g. alg=disha,misroutes=3")
		chaosScript = flag.String("chaos-script", "", "arm this JSON chaos event-schedule on BOTH sides (replayed deterministically; see CHAOS.md)")
		version     = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}

	base := sideConfig{
		radix: *radix, dims: *dims, mesh: *mesh, topo: *topoName,
		alg: *algName, misroutes: *misroutes, sel: *selName,
		traffic: *trafName, hotFrac: *hotFrac, load: *load,
		msgLen: *msgLen, vcs: *vcs, depth: *depth, timeout: *timeout,
		recovery: *recovMode, throttle: *throttle, rx: *rx,
		seed: *seed,
	}
	if *granularity < 1 {
		fail(fmt.Errorf("-granularity must be at least 1"))
	}

	cfgA, err := applyOverrides(base, *overridesA)
	fail(err)
	cfgB, err := applyOverrides(base, *overridesB)
	fail(err)

	// A chaos schedule is armed identically on both sides — and re-armed
	// after every restore, since checkpoints deliberately do not carry the
	// pending schedule (already-applied events replay from the snapshot's
	// reconfiguration log; arming drops them as stale).
	var chaosEvents []disha.ReconfigEvent
	if *chaosScript != "" {
		sched, err := chaos.Load(*chaosScript)
		fail(err)
		chaosEvents, err = sched.Reconfig()
		fail(err)
	}
	arm := func(s *disha.Simulator) {
		if chaosEvents != nil {
			fail(s.ScheduleReconfig(chaosEvents))
		}
	}

	simA, err := buildSim(cfgA)
	fail(err)
	simB, err := buildSim(cfgB)
	fail(err)
	arm(simA)
	arm(simB)

	fmt.Printf("side A: %s\nside B: %s\n", describe(cfgA), describe(cfgB))

	if simA.Fingerprint() != simB.Fingerprint() {
		fmt.Println("divergence: cycle 0 (the configs already produce different initial state digests)")
		os.Exit(1)
	}

	// Coarse phase: march both sides in -granularity strides, keeping a
	// snapshot of the last boundary where the digests agreed.
	var lastEqualA, lastEqualB bytes.Buffer
	lastEqual := 0
	fail(simA.Snapshot(&lastEqualA))
	fail(simB.Snapshot(&lastEqualB))
	diverged := false
	for int(simA.Now()) < *cycles {
		step := *granularity
		if rest := *cycles - int(simA.Now()); rest < step {
			step = rest
		}
		simA.Run(step)
		simB.Run(step)
		if simA.Fingerprint() != simB.Fingerprint() {
			diverged = true
			break
		}
		lastEqual = int(simA.Now())
		lastEqualA.Reset()
		lastEqualB.Reset()
		fail(simA.Snapshot(&lastEqualA))
		fail(simB.Snapshot(&lastEqualB))
	}
	if !diverged {
		fmt.Printf("identical: digests agree through cycle %d\n", *cycles)
		return
	}
	fmt.Printf("coarse divergence inside (%d, %d]; restoring cycle-%d snapshots\n",
		lastEqual, int(simA.Now()), lastEqual)

	// Fine phase: rebuild both sides fresh, restore the last-equal
	// snapshots, and single-step to the first cycle whose digests differ.
	simA2, err := buildSim(cfgA)
	fail(err)
	simB2, err := buildSim(cfgB)
	fail(err)
	fail(simA2.Restore(bytes.NewReader(lastEqualA.Bytes())))
	fail(simB2.Restore(bytes.NewReader(lastEqualB.Bytes())))
	arm(simA2)
	arm(simB2)

	for {
		simA2.Run(1)
		simB2.Run(1)
		da, db := simA2.Fingerprint(), simB2.Fingerprint()
		if da != db {
			fmt.Printf("first divergent cycle: %d\n", int(simA2.Now()))
			fmt.Printf("  A %s\n  B %s\n", da, db)
			os.Exit(1)
		}
		if int(simA2.Now()) >= *cycles {
			// Should not happen: the coarse phase saw a divergence here.
			fail(fmt.Errorf("fine phase found no divergence before cycle %d", *cycles))
		}
	}
}

// applyOverrides parses "k=v,k=v" and lays the values over base.
func applyOverrides(base sideConfig, s string) (sideConfig, error) {
	cfg := base
	if s == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("override %q is not key=value", kv)
		}
		var err error
		switch k {
		case "topo":
			cfg.topo = v
		case "alg":
			cfg.alg = v
		case "misroutes":
			cfg.misroutes, err = strconv.Atoi(v)
		case "sel":
			cfg.sel = v
		case "traffic":
			cfg.traffic = v
		case "load":
			cfg.load, err = strconv.ParseFloat(v, 64)
		case "msglen":
			cfg.msgLen, err = strconv.Atoi(v)
		case "vcs":
			cfg.vcs, err = strconv.Atoi(v)
		case "depth":
			cfg.depth, err = strconv.Atoi(v)
		case "timeout":
			cfg.timeout, err = strconv.Atoi(v)
		case "recovery":
			cfg.recovery = v
		case "throttle":
			cfg.throttle, err = strconv.Atoi(v)
		case "rx":
			cfg.rx, err = strconv.Atoi(v)
		case "seed":
			cfg.seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return cfg, fmt.Errorf("unknown override key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("override %q: %v", kv, err)
		}
	}
	return cfg, nil
}

func describe(c sideConfig) string {
	shape := "torus"
	if c.mesh {
		shape = "mesh"
	}
	if c.topo != "" {
		return fmt.Sprintf("%s | %s(M=%d) sel=%s | %s load=%.2f msg=%d | vc=%d depth=%d T=%d %s | seed=%d",
			c.topo, c.alg, c.misroutes, c.sel,
			c.traffic, c.load, c.msgLen, c.vcs, c.depth, c.timeout, c.recovery, c.seed)
	}
	return fmt.Sprintf("%s %dx%d | %s(M=%d) sel=%s | %s load=%.2f msg=%d | vc=%d depth=%d T=%d %s | seed=%d",
		shape, c.radix, c.radix, c.alg, c.misroutes, c.sel,
		c.traffic, c.load, c.msgLen, c.vcs, c.depth, c.timeout, c.recovery, c.seed)
}

func buildSim(c sideConfig) (*disha.Simulator, error) {
	var topo disha.Graph
	var err error
	if c.topo != "" {
		topo, err = disha.ParseTopology(c.topo)
	} else {
		radices := make([]int, c.dims)
		for i := range radices {
			radices[i] = c.radix
		}
		if c.mesh {
			topo, err = disha.NewMesh(radices...)
		} else {
			topo, err = disha.NewTorus(radices...)
		}
	}
	if err != nil {
		return nil, err
	}
	// Coordinate-dependent traffic needs the cube layer; fail up front with
	// a pointer at the incompatible pair rather than a type-assertion panic.
	coord := func(name string) (disha.Topology, error) {
		t, ok := topo.(disha.Topology)
		if !ok {
			return nil, fmt.Errorf("%s traffic needs cube coordinates, which %s does not have", name, topo.Name())
		}
		return t, nil
	}

	var alg disha.Algorithm
	recovery := false
	switch c.alg {
	case "disha":
		alg = disha.DishaRouting(c.misroutes)
		recovery = true
	case "dor":
		alg = disha.DOR()
	case "turn":
		alg = disha.NegativeFirst()
	case "dally":
		alg = disha.DallyAoki()
	case "duato":
		alg = disha.Duato()
	case "duato-strict":
		alg = disha.DuatoStrict()
	default:
		return nil, fmt.Errorf("unknown algorithm %q", c.alg)
	}

	var sel disha.Selection
	switch c.sel {
	case "random":
		sel = disha.RandomSelection()
	case "min-congestion":
		sel = disha.MinCongestionSelection()
	default:
		return nil, fmt.Errorf("unknown selection %q", c.sel)
	}

	var pattern disha.Pattern
	switch c.traffic {
	case "uniform":
		pattern = disha.Uniform(topo)
	case "bit-reversal":
		pattern, err = disha.BitReversal(topo)
	case "transpose":
		var t disha.Topology
		if t, err = coord(c.traffic); err == nil {
			pattern, err = disha.Transpose(t)
		}
	case "hotspot":
		pattern = disha.HotSpot(disha.Uniform(topo), disha.Node(topo.Nodes()/3), c.hotFrac)
	case "complement":
		var t disha.Topology
		if t, err = coord(c.traffic); err == nil {
			pattern = disha.Complement(t)
		}
	case "tornado":
		var t disha.Topology
		if t, err = coord(c.traffic); err == nil {
			pattern = disha.Tornado(t)
		}
	default:
		err = fmt.Errorf("unknown traffic %q", c.traffic)
	}
	if err != nil {
		return nil, err
	}

	var mode disha.RecoveryMode
	switch c.recovery {
	case "sequential":
		mode = disha.RecoverySequential
	case "concurrent":
		mode = disha.RecoveryConcurrent
	case "abort-retry":
		mode = disha.RecoveryAbortRetry
	default:
		return nil, fmt.Errorf("unknown recovery mode %q", c.recovery)
	}

	return disha.NewSimulator(disha.SimConfig{
		Topo:              topo,
		Algorithm:         alg,
		Selection:         sel,
		Pattern:           pattern,
		LoadRate:          c.load,
		MsgLen:            c.msgLen,
		VCs:               c.vcs,
		BufferDepth:       c.depth,
		Timeout:           disha.Cycle(c.timeout),
		DisableRecovery:   !recovery,
		Recovery:          mode,
		ReceptionChannels: c.rx,
		InjectionThrottle: c.throttle,
		Seed:              c.seed,
	})
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "disha-bisect:", err)
		os.Exit(2)
	}
}
