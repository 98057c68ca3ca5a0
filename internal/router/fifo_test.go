package router

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// ringRouter builds a normalized router on a 4x4 torus (node 0, so its
// router-local input slots are also the global ones) to exercise the SoA
// flit rings directly.
func ringRouter(t *testing.T, cfg Config) (*Router, *State) {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := New(0, topology.MustTorus(4, 4), cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
	return r, r.st
}

func TestRingBasics(t *testing.T) {
	cfg := Default()
	cfg.BufferDepth = 2
	r, s := ringRouter(t, cfg)
	i := 3 // an arbitrary input VC slot
	if s.inLen[i] != 0 {
		t.Fatal("fresh ring not empty")
	}
	p := packet.New(1, 0, 1, 3, 0)
	r.inPush(i, p.Flit(0))
	r.inPush(i, p.Flit(1))
	if int(s.inLen[i]) != 2 {
		t.Fatal("full ring length wrong")
	}
	if s.inPeek(i).Seq != 0 {
		t.Fatal("peek must see the oldest flit")
	}
	if s.inAt(i, 1).Seq != 1 {
		t.Fatal("inAt must index from the head")
	}
	if r.inPop(i).Seq != 0 || r.inPop(i).Seq != 1 {
		t.Fatal("pop order wrong")
	}
	if s.inLen[i] != 0 {
		t.Fatal("ring should be empty")
	}
}

func TestRingWrapAround(t *testing.T) {
	cfg := Default()
	cfg.BufferDepth = 2
	r, _ := ringRouter(t, cfg)
	p := packet.New(1, 0, 1, 8, 0)
	// Interleave pushes and pops so the ring indices wrap repeatedly.
	i, seq := 5, 0
	for k := 0; k < 8; k++ {
		r.inPush(i, p.Flit(k))
		got := r.inPop(i)
		if got.Seq != seq {
			t.Fatalf("wrap: got seq %d, want %d", got.Seq, seq)
		}
		seq++
	}
}

func TestRingPopZeroesVacatedSlot(t *testing.T) {
	cfg := Default()
	r, s := ringRouter(t, cfg)
	p := packet.New(1, 0, 1, 2, 0)
	r.inPush(0, p.Flit(0))
	r.inPop(0)
	for k := 0; k < s.depth; k++ {
		if s.inFlits[k].Pkt != nil {
			t.Fatal("vacated ring slot retains a stale packet pointer")
		}
	}
}

func TestRingPanics(t *testing.T) {
	cfg := Default()
	cfg.BufferDepth = 1
	r, _ := ringRouter(t, cfg)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pop on empty did not panic")
			}
		}()
		r.inPop(0)
	}()
	p := packet.New(1, 0, 1, 2, 0)
	r.inPush(0, p.Flit(0))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("push on full did not panic")
			}
		}()
		r.inPush(0, p.Flit(1))
	}()
}

func TestPortVCInverse(t *testing.T) {
	cfg := Default()
	cfg.VCs = 3
	cfg.InjectionVCs = 2
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	topo := topology.MustTorus(4, 4)
	r := New(0, topo, cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
	l := 0
	for p := 0; p <= topo.Degree(); p++ {
		for v := 0; v < r.InputVCCount(p); v++ {
			gp, gv := r.portVCOf(l)
			if gp != p || gv != v {
				t.Fatalf("portVCOf(%d) = (%d,%d), want (%d,%d)", l, gp, gv, p, v)
			}
			if got := r.inIdx(p, v); got != r.in0+l {
				t.Fatalf("inIdx(%d,%d) = %d, want %d", p, v, got, r.in0+l)
			}
			l++
		}
	}
	if l != r.st.stride {
		t.Fatalf("walked %d slots, stride is %d", l, r.st.stride)
	}
}

func TestCheckStateCatchesCorruption(t *testing.T) {
	cfg := Default()
	topo := topology.MustTorus(4, 4)
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := New(0, topo, cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
	if err := r.CheckState(); err != nil {
		t.Fatalf("fresh router fails CheckState: %v", err)
	}
	corruptions := []func(s *State){
		func(s *State) { s.inHead[0] = int32(s.depth) },
		func(s *State) { s.inLen[0] = int32(s.depth + 1) },
		func(s *State) { s.inFlits[0] = packet.New(9, 0, 1, 2, 0).Flit(0) },
		func(s *State) { s.inRoute[0] = int32(s.deg) },
		func(s *State) { s.inOutVC[0] = int32(s.vcs) },
		func(s *State) { s.outCredits[0] = int32(s.depth + 1) },
		func(s *State) { s.outCredits[0] = -1 },
		func(s *State) { s.flitCount[0] = 5 },
		func(s *State) { s.cxInPort[0] = int32(s.deg + 1) },
		// Slot bitsets out of step with the arrays they summarize.
		func(s *State) { s.bits[setOcc*s.bitW] |= 1 },              // occupied bit on an empty ring
		func(s *State) { s.bits[setRouted*s.bitW] |= 1 },           // routed bit on an unrouted slot
		func(s *State) { s.bits[(setReq0+1)*s.bitW] |= 1 },         // request bit on an unrouted slot
		func(s *State) { s.inRoute[0] = 1 },                        // route without its bits
		func(s *State) { s.bits[setSent*s.bitW] |= 1 << s.stride }, // bit past the last slot
		// An idle slot (empty, nothing sent) holding timer state, which
		// TickTimers would never visit to clear.
		func(s *State) { s.inWaiting[0] = 3 },
		func(s *State) { s.inPresumed[0] = true },
	}
	for i, corrupt := range corruptions {
		rc := New(0, topo, cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
		corrupt(rc.st)
		if err := rc.CheckState(); err == nil {
			t.Errorf("corruption %d not caught by CheckState", i)
		}
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	var c Config
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := Default()
	// DeadlockBufferDepth and Timeout legitimately stay zero (disabled);
	// everything else fills in.
	if c.VCs != d.VCs || c.BufferDepth != d.BufferDepth || c.InjectionVCs != d.InjectionVCs || c.ReceptionChannels != d.ReceptionChannels {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestConfigNormalizeErrors(t *testing.T) {
	bad := []Config{
		{VCs: -1},
		{BufferDepth: -2},
		{DeadlockBufferDepth: -1},
		{InjectionVCs: -1},
		{ReceptionChannels: -3},
		{Timeout: -1},
		{Alloc: AllocPolicy(9)},
	}
	for i, c := range bad {
		if err := c.Normalize(); err == nil {
			t.Errorf("config %d should fail: %+v", i, c)
		}
	}
}

func TestAllocPolicyString(t *testing.T) {
	if FlitByFlit.String() != "flit-by-flit" || PacketByPacket.String() != "packet-by-packet" {
		t.Fatal("policy names wrong")
	}
	if AllocPolicy(7).String() == "" {
		t.Fatal("unknown policy must still format")
	}
}

// TestDecodeStateRejectsBadSlot feeds DecodeState input slots that no
// EncodeState stream can contain: a route far outside the port range, which
// would index past the request bitsets if stored before validation, and an
// idle slot carrying timer state. Both must be errors, never panics.
func TestDecodeStateRejectsBadSlot(t *testing.T) {
	cfg := Default()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	topo := topology.MustTorus(4, 4)
	cases := []struct {
		name           string
		route, waiting int
		want           string
	}{
		{"route out of range", 1 << 40, 0, "input route"},
		{"negative route", -1 << 40, 0, "input route"},
		{"idle slot with timer", PortUnrouted, 5, "timer state"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := New(3, topo, cfg, routing.DOR(), routing.Random(), sim.NewRNG(1))
			var w snapshot.Writer
			w.I64(3)          // node
			w.I64(-1)         // no owner
			w.Int(c.route)    // route
			w.Int(VCUnrouted) // output VC
			w.Int(0)          // DB lane
			w.I64(int64(c.waiting))
			w.Bool(false) // presumed
			w.Bool(false) // sent
			w.Int(0)      // ring length
			err := r.DecodeState(snapshot.NewReader(w.Bytes()), func(int64) *packet.Packet { return nil })
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			if err := r.CheckState(); err != nil && c.waiting == 0 {
				t.Fatalf("rejected route left the bitsets inconsistent: %v", err)
			}
		})
	}
}
