package router

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
)

// wireHam replicates the network's Hamiltonian wiring for a test bench.
func wireHam(b *testBench) {
	order := b.topo.HamiltonianOrder()
	labels := make([]int, b.topo.Nodes())
	for i, node := range order {
		labels[node] = i
	}
	portToward := func(from, to topology.Node) int {
		for p := 0; p < b.topo.Degree(); p++ {
			if nb, ok := b.topo.Neighbor(from, p); ok && nb == to {
				return p
			}
		}
		panic("not adjacent")
	}
	for i, node := range order {
		next, prev := -1, -1
		if i+1 < len(order) {
			next = portToward(node, order[i+1])
		}
		if i > 0 {
			prev = portToward(node, order[i-1])
		}
		b.routers[node].ConnectHamiltonian(labels, next, prev)
	}
}

func TestConcurrentRecoveryLaneSelection(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Recovery = RecoveryConcurrent
	b := newBench(t, topo, cfg, routing.Disha(0))
	wireHam(b)
	order := topo.HamiltonianOrder()
	mid := b.routers[order[7]] // somewhere in the middle of the path

	if mid.DBLanes() != 2 {
		t.Fatalf("concurrent router has %d DB lanes, want 2", mid.DBLanes())
	}
	// Destination further up the path -> up lane; further down -> down lane.
	up := packet.New(1, order[7], order[12], 2, 0)
	down := packet.New(2, order[7], order[2], 2, 0)
	if lane := mid.recoveryLane(up.Dst); lane != laneUp {
		t.Fatalf("up destination got lane %d", lane)
	}
	if lane := mid.recoveryLane(down.Dst); lane != laneDown {
		t.Fatalf("down destination got lane %d", lane)
	}
	// The lane route is the Hamiltonian successor/predecessor port.
	if got := mid.dbLaneRoute(laneUp, up.Dst); got != mid.hamNextPort {
		t.Fatalf("up lane route %d != next port %d", got, mid.hamNextPort)
	}
	if got := mid.dbLaneRoute(laneDown, down.Dst); got != mid.hamPrevPort {
		t.Fatalf("down lane route %d != prev port %d", got, mid.hamPrevPort)
	}
	if got := mid.dbLaneRoute(laneUp, mid.NodeID()); got != PortEject {
		t.Fatal("at destination the lane must eject")
	}
}

func TestRecoverPresumedAndHamDelivery(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Recovery = RecoveryConcurrent
	b := newBench(t, topo, cfg, routing.DOR())
	wireHam(b)
	order := topo.HamiltonianOrder()
	src := order[3]
	dst := order[8]

	// Park a blocked header at src's network input port 0 by occupying all
	// of its DOR output VCs, then force the timers past T_out.
	r := b.routers[src]
	blocker := packet.New(99, 0, 1, 4, 0)
	port, ok := routing.DORPort(topo, src, dst)
	if !ok {
		t.Fatal("no DOR port")
	}
	for v := 0; v < cfg.VCs; v++ {
		r.st.outOwner[r.outIdx(port, v)] = blocker
	}
	p := packet.New(1, src, dst, 2, 0)
	i00 := r.inIdx(0, 0)
	r.st.inPkt[i00] = p
	r.inPush(i00-r.in0, p.Flit(0))
	r.inPush(i00-r.in0, p.Flit(1))
	r.st.flitCount[r.node] += 2
	for i := 0; i < int(cfg.Timeout)+2; i++ {
		b.step()
	}
	if got := r.RecoverPresumed(b.now, nil); len(got) != 1 {
		t.Fatalf("RecoverPresumed = %d packets, want 1", len(got))
	}
	if !p.OnDB || p.SeizedToken {
		t.Fatalf("concurrent recovery state wrong: onDB=%v seized=%v", p.OnDB, p.SeizedToken)
	}
	for i := 0; i < 60 && !p.Delivered(); i++ {
		b.step()
	}
	if !p.Delivered() {
		t.Fatal("packet did not traverse the Hamiltonian DB lane to its destination")
	}
	// Exactly |label(dst) - label(src)| DB hops plus ejection: hops grow by
	// the Hamiltonian distance.
	if p.Hops != 8-3 {
		t.Fatalf("ham lane hops = %d, want %d", p.Hops, 8-3)
	}
}

func TestPurgePacket(t *testing.T) {
	topo := topology.MustTorus(4, 4)
	cfg := Default()
	cfg.Timeout = 0
	cfg.DeadlockBufferDepth = 0
	b := newBench(t, topo, cfg, routing.DOR())
	r1 := b.routers[topo.NodeAt(topology.Coord{1, 0})]
	r0 := b.routers[topo.NodeAt(topology.Coord{0, 0})]
	q := topology.PortFor(0, 1)

	// Packet spans two routers: body at r0 (input port 0 vc 0, granted
	// toward q), header at r1 on the matching input VC.
	p := packet.New(1, 0, 9, 6, 0)
	i0 := r0.inIdx(0, 0)
	r0.st.inPkt[i0] = p
	r0.setRoute(i0-r0.in0, q)
	r0.st.inOutVC[i0] = 0
	r0.inPush(i0-r0.in0, p.Flit(1))
	r0.inPush(i0-r0.in0, p.Flit(2))
	r0.st.flitCount[r0.node] += 2
	r0.st.outOwner[r0.outIdx(q, 0)] = p
	rev := topology.ReversePort(q)
	i1 := r1.inIdx(rev, 0)
	r1.st.inPkt[i1] = p
	r1.setRoute(i1-r1.in0, PortUnrouted)
	r1.inPush(i1-r1.in0, p.Flit(0))
	r1.st.flitCount[r1.node]++
	r0.st.outCredits[r0.outIdx(q, 0)] = int32(cfg.BufferDepth - 1)

	purged := r0.PurgePacket(p) + r1.PurgePacket(p)
	if purged != 3 {
		t.Fatalf("purged %d flits, want 3", purged)
	}
	if !r0.Quiescent() || !r1.Quiescent() {
		t.Fatal("routers not quiescent after purge")
	}
	if r0.OutputOwner(q, 0) != nil {
		t.Fatal("output VC still owned")
	}
	if r0.Credits(q, 0) != cfg.BufferDepth {
		t.Fatalf("credits %d not restored to %d", r0.Credits(q, 0), cfg.BufferDepth)
	}
	if r0.InputOwner(0, 0) != nil || r1.InputOwner(rev, 0) != nil {
		t.Fatal("input VCs still owned")
	}
	if got := r0.PresumedPackets(nil); len(got) != 0 {
		t.Fatal("purged router still presumes packets")
	}
}

func TestRecoveryModeString(t *testing.T) {
	for m, want := range map[RecoveryMode]string{
		RecoverySequential: "sequential",
		RecoveryConcurrent: "concurrent",
		RecoveryAbortRetry: "abort-retry",
		RecoveryMode(9):    "RecoveryMode(9)",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}
