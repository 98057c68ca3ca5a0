package router

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// State holds the hot per-cycle microarchitectural state of every router in
// one network as flat struct-of-arrays buffers indexed by (router, port, vc).
// The network owns one State and shares it among all of its routers; each
// Router is a view over its slice of the buffers (precomputed base offsets),
// so the public router API is unchanged while route compute, switch
// allocation and the deadlock-timer phase sweep contiguous memory instead of
// chasing per-router pointers. Routers are laid out consecutively, so the
// kernel's fixed-order router loops (internal/network) walk every buffer
// front to back, and each router's slice of a buffer is one contiguous,
// cache-line-friendly range.
//
// Layout (all slices are allocated once, at NewState, and never grow):
//
//	input VCs    stride = deg*VCs + InjectionVCs slots per router,
//	             port-major: slot l = p*VCs + v for network port p < deg,
//	             l = deg*VCs + v for the injection port. Global index of
//	             router r's slot l is r*stride + l. Per-slot fields live in
//	             parallel arrays (inPkt, inRoute, inOutVC, inDBLane,
//	             inWaiting, inPresumed); the fixed-capacity flit rings
//	             live in inFlits (depth flits per slot, contiguous) with
//	             ring cursors in inHead/inLen.
//	slot bitsets bitW = (stride+63)/64 words per set, deg+4 sets per
//	             router, router-major (bitStr = (deg+4)*bitW words per
//	             router): occ (ring non-empty), routed (inRoute !=
//	             PortUnrouted), sent (a flit left this cycle), then one
//	             request set per output port q < deg (inRoute == q) and
//	             one for the reception channel (inRoute == PortEject).
//	             Bit l of a set is router-local slot l. They are derived
//	             state maintained at the only mutation points — inPush,
//	             inPop and setRoute (sent: the staging and timer passes) —
//	             so the scan phases visit only set bits
//	             (bits.TrailingZeros64) instead of every slot. The
//	             request sets make this O(deg*stride) bits per router,
//	             which only matters for very high-degree graphs (a
//	             1024-node full mesh with 4 VCs needs 0.5 MiB/router).
//	output VCs   deg*VCs slots per router (outOwner, outCredits).
//	DB lanes     lanes slots per router (dbPkt, dbRoute) with dbDepth-flit
//	             rings in dbFlits/dbHead/dbLen.
//	crossbar     deg packet-by-packet connections per router (cxInPort,
//	             cxInVC, cxDB, cxSaved, cxSavedPort, cxSavedVC).
//	per router   vcArbOff, swArbOff (deg+1 per router), flitCount, effTout,
//	             decayCount, lastBlocked, lastPresumed.
//
// Aliasing contract: a Router view may only touch slots inside its own base
// ranges, except through another Router's methods (transfer commit writes the
// receiving router's buffers via the receiver view, exactly as the old
// per-router structs did). The layout is a private representation: digests
// (AppendState), snapshots (EncodeState/DecodeState) and all introspection
// walk the same logical (port, vc) order as before, so they are
// layout-invariant by construction.
type State struct {
	nodes   int
	deg     int
	vcs     int // VCs per network port
	injVCs  int // VCs on the injection port
	depth   int // input VC buffer depth in flits
	lanes   int // Deadlock Buffer lanes per router (0, 1 or 2)
	dbDepth int // Deadlock Buffer depth in flits
	stride  int // input VC slots per router: deg*vcs + injVCs
	outStr  int // output VC slots per router: deg*vcs
	bitW    int // words per slot bitset: (stride+63)/64
	bitStr  int // bitset words per router: (deg+setReq0+1)*bitW

	// Input VC state, nodes*stride slots.
	inPkt      []*packet.Packet
	inRoute    []int32 // granted output port, PortEject or PortUnrouted
	inOutVC    []int32 // granted output VC, VCDeadlockBuffer or VCUnrouted
	inDBLane   []int32 // recovery lane when inOutVC == VCDeadlockBuffer
	inWaiting  []sim.Cycle
	inPresumed []bool
	inHead     []int32
	inLen      []int32
	inFlits    []packet.Flit // depth flits per slot

	// Slot bitsets, nodes*bitStr words (see the layout above).
	bits []uint64

	// Output VC state, nodes*outStr slots.
	outOwner   []*packet.Packet
	outCredits []int32

	// Deadlock Buffer lanes, nodes*lanes slots.
	dbPkt   []*packet.Packet
	dbRoute []int32
	dbHead  []int32
	dbLen   []int32
	dbFlits []packet.Flit // dbDepth flits per slot

	// Packet-by-packet crossbar connections, nodes*deg slots.
	cxInPort    []int32
	cxInVC      []int32
	cxDB        []bool
	cxSaved     []bool
	cxSavedPort []int32
	cxSavedVC   []int32

	// Per-router scalars, nodes slots (swArbOff: nodes*(deg+1)).
	vcArbOff     []int32
	swArbOff     []int32
	flitCount    []int32
	effTout      []sim.Cycle
	decayCount   []int32
	lastBlocked  []int32
	lastPresumed []int32
}

// NewState allocates the shared struct-of-arrays buffers for every router of
// a network on topo under cfg. cfg must already be normalized. The network
// constructs one State and passes it to NewWithState for each router.
func NewState(topo topology.Graph, cfg Config) *State {
	nodes, deg := topo.Nodes(), topo.Degree()
	lanes := 0
	if cfg.DeadlockBufferDepth > 0 {
		lanes = 1
		if cfg.Recovery == RecoveryConcurrent {
			lanes = 2
		}
	}
	s := &State{
		nodes:   nodes,
		deg:     deg,
		vcs:     cfg.VCs,
		injVCs:  cfg.InjectionVCs,
		depth:   cfg.BufferDepth,
		lanes:   lanes,
		dbDepth: cfg.DeadlockBufferDepth,
		stride:  deg*cfg.VCs + cfg.InjectionVCs,
		outStr:  deg * cfg.VCs,
	}
	s.bitW = (s.stride + 63) / 64
	s.bitStr = (deg + setReq0 + 1) * s.bitW
	in := nodes * s.stride
	s.inPkt = make([]*packet.Packet, in)
	s.inRoute = make([]int32, in)
	s.inOutVC = make([]int32, in)
	s.inDBLane = make([]int32, in)
	s.inWaiting = make([]sim.Cycle, in)
	s.inPresumed = make([]bool, in)
	s.inHead = make([]int32, in)
	s.inLen = make([]int32, in)
	s.inFlits = make([]packet.Flit, in*s.depth)
	s.bits = make([]uint64, nodes*s.bitStr)
	for i := range s.inRoute {
		s.inRoute[i] = PortUnrouted
		s.inOutVC[i] = VCUnrouted
	}
	out := nodes * s.outStr
	s.outOwner = make([]*packet.Packet, out)
	s.outCredits = make([]int32, out)
	for i := range s.outCredits {
		s.outCredits[i] = int32(cfg.BufferDepth)
	}
	db := nodes * lanes
	s.dbPkt = make([]*packet.Packet, db)
	s.dbRoute = make([]int32, db)
	s.dbHead = make([]int32, db)
	s.dbLen = make([]int32, db)
	s.dbFlits = make([]packet.Flit, db*s.dbDepth)
	for i := range s.dbRoute {
		s.dbRoute[i] = PortUnrouted
	}
	cx := nodes * deg
	s.cxInPort = make([]int32, cx)
	s.cxInVC = make([]int32, cx)
	s.cxDB = make([]bool, cx)
	s.cxSaved = make([]bool, cx)
	s.cxSavedPort = make([]int32, cx)
	s.cxSavedVC = make([]int32, cx)
	for i := range s.cxInPort {
		s.cxInPort[i] = connNone
	}
	s.vcArbOff = make([]int32, nodes)
	s.swArbOff = make([]int32, nodes*(deg+1))
	s.flitCount = make([]int32, nodes)
	s.effTout = make([]sim.Cycle, nodes)
	s.decayCount = make([]int32, nodes)
	s.lastBlocked = make([]int32, nodes)
	s.lastPresumed = make([]int32, nodes)
	for i := range s.effTout {
		s.effTout[i] = cfg.Timeout
	}
	return s
}

// --- Index helpers -----------------------------------------------------------

// inLocal returns the router-local input VC slot of (port, vc).
func (r *Router) inLocal(port, vc int) int {
	if port == r.deg {
		return r.deg*r.st.vcs + vc
	}
	return port*r.st.vcs + vc
}

// inIdx returns the global input VC slot of (port, vc) at router r.
func (r *Router) inIdx(port, vc int) int { return r.in0 + r.inLocal(port, vc) }

// outIdx returns the global output VC slot of (port, vc) at router r.
func (r *Router) outIdx(port, vc int) int { return r.out0 + port*r.st.vcs + vc }

// dbIdx returns the global Deadlock Buffer lane slot of lane at router r.
func (r *Router) dbIdx(lane int) int { return r.db0 + lane }

// cxIdx returns the global crossbar connection slot of output q at router r.
func (r *Router) cxIdx(q int) int { return r.cx0 + q }

// swIdx returns the global switch-arbitration offset slot of output q
// (q == deg is the reception channel) at router r.
func (r *Router) swIdx(q int) int { return r.sw0 + q }

// portVCOf maps a router-local flat input slot l back to its (port, vc):
// the inverse of the port-major layout, O(1) where the old per-router
// slice-of-slices walk was O(ports).
func (r *Router) portVCOf(l int) (port, vc int) {
	if l < r.deg*r.st.vcs {
		return l / r.st.vcs, l % r.st.vcs
	}
	return r.deg, l - r.deg*r.st.vcs
}

// inVCCount returns the number of VCs on input port p.
func (s *State) inVCCount(deg, p int) int {
	if p == deg {
		return s.injVCs
	}
	return s.vcs
}

// --- Slot bitsets ------------------------------------------------------------

// Bitset indices within a router's block; request sets follow at setReq0+q
// for output q < deg and setReq0+deg for the reception channel.
const (
	setOcc = iota
	setRouted
	setSent
	setReq0
)

// bitset returns router r's slot bitset k (setOcc, setRouted, setSent or
// reqSet(route)).
func (r *Router) bitset(k int) []uint64 {
	o := r.b0 + k*r.st.bitW
	return r.st.bits[o : o+r.st.bitW]
}

// reqSet returns the request bitset index of a granted route: output q, or
// the reception channel for PortEject.
func (r *Router) reqSet(route int) int {
	if route == PortEject {
		return setReq0 + r.deg
	}
	return setReq0 + route
}

// bitOn reports whether router-local slot l is set in bitset k.
func (r *Router) bitOn(k, l int) bool {
	return r.st.bits[r.b0+k*r.st.bitW+l>>6]&(1<<(uint(l)&63)) != 0
}

// setBit sets or clears router-local slot l in bitset k.
func (r *Router) setBit(k, l int, on bool) {
	w := &r.st.bits[r.b0+k*r.st.bitW+l>>6]
	if on {
		*w |= 1 << (uint(l) & 63)
	} else {
		*w &^= 1 << (uint(l) & 63)
	}
}

// setRoute stores input slot l's granted route, keeping the routed and
// request bitsets in step. It is the only writer of inRoute.
func (r *Router) setRoute(l, route int) {
	s := r.st
	g := r.in0 + l
	if old := int(s.inRoute[g]); old != PortUnrouted {
		r.setBit(r.reqSet(old), l, false)
	}
	if route != PortUnrouted {
		r.setBit(r.reqSet(route), l, true)
	}
	r.setBit(setRouted, l, route != PortUnrouted)
	s.inRoute[g] = int32(route)
}

// span returns the bits of bitset word w that fall in the slot range
// [lo, hi). The optimized scans visit a range of set bits as
//
//	for w := lo >> 6; w<<6 < hi; w++ {
//		for x := set[w] & span(w, lo, hi); x != 0; x &= x - 1 {
//			l := w<<6 + bits.TrailingZeros64(x)
//
// and a round-robin rotation starting at slot off as the two ranges
// [off, total) and [0, off), in that order.
func span(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if b := lo - w<<6; b > 0 {
		m <<= uint(b)
	}
	if e := hi - w<<6; e < 64 {
		m &= 1<<uint(e) - 1
	}
	return m
}

// --- Input VC flit rings -----------------------------------------------------

// inPush appends a flit to router-local input VC ring l.
func (r *Router) inPush(l int, fl packet.Flit) {
	s := r.st
	i := r.in0 + l
	if int(s.inLen[i]) == s.depth {
		panic("router: push to full fifo")
	}
	k := int(s.inHead[i]) + int(s.inLen[i])
	if k >= s.depth {
		k -= s.depth
	}
	s.inFlits[i*s.depth+k] = fl
	s.inLen[i]++
	r.setBit(setOcc, l, true)
}

// inPeek returns the head flit of input VC ring i.
func (s *State) inPeek(i int) packet.Flit {
	if s.inLen[i] == 0 {
		panic("router: peek on empty fifo")
	}
	return s.inFlits[i*s.depth+int(s.inHead[i])]
}

// inAt returns the k-th buffered flit (0 == head) of input VC ring i.
func (s *State) inAt(i, k int) packet.Flit {
	if k < 0 || k >= int(s.inLen[i]) {
		panic("router: fifo index out of range")
	}
	return s.inFlits[i*s.depth+(int(s.inHead[i])+k)%s.depth]
}

// inPop removes and returns the head flit of router-local input VC ring l,
// zeroing the vacated slot so no stale packet pointer outlives its
// buffered flit.
func (r *Router) inPop(l int) packet.Flit {
	s := r.st
	i := r.in0 + l
	fl := s.inPeek(i)
	s.inFlits[i*s.depth+int(s.inHead[i])] = packet.Flit{}
	s.inHead[i]++
	if int(s.inHead[i]) == s.depth {
		s.inHead[i] = 0
	}
	s.inLen[i]--
	if s.inLen[i] == 0 {
		r.setBit(setOcc, l, false)
	}
	return fl
}

// --- Deadlock Buffer flit rings ----------------------------------------------

// dbPush appends a flit to Deadlock Buffer ring i.
func (s *State) dbPush(i int, fl packet.Flit) {
	if int(s.dbLen[i]) == s.dbDepth {
		panic("router: push to full fifo")
	}
	s.dbFlits[i*s.dbDepth+(int(s.dbHead[i])+int(s.dbLen[i]))%s.dbDepth] = fl
	s.dbLen[i]++
}

// dbPeek returns the head flit of Deadlock Buffer ring i.
func (s *State) dbPeek(i int) packet.Flit {
	if s.dbLen[i] == 0 {
		panic("router: peek on empty fifo")
	}
	return s.dbFlits[i*s.dbDepth+int(s.dbHead[i])]
}

// dbAt returns the k-th buffered flit (0 == head) of Deadlock Buffer ring i.
func (s *State) dbAt(i, k int) packet.Flit {
	if k < 0 || k >= int(s.dbLen[i]) {
		panic("router: fifo index out of range")
	}
	return s.dbFlits[i*s.dbDepth+(int(s.dbHead[i])+k)%s.dbDepth]
}

// dbPop removes and returns the head flit of Deadlock Buffer ring i.
func (s *State) dbPop(i int) packet.Flit {
	fl := s.dbPeek(i)
	s.dbFlits[i*s.dbDepth+int(s.dbHead[i])] = packet.Flit{}
	s.dbHead[i] = int32((int(s.dbHead[i]) + 1) % s.dbDepth)
	s.dbLen[i]--
	return fl
}

// --- Structural cross-checks -------------------------------------------------

// CheckState cross-checks the router's slice of the shared struct-of-arrays
// buffers against what the view API exposes: ring cursors in range, vacated
// ring slots zeroed (no stale packet pointers), route/VC grants within their
// sentinel-extended domains, credits within [0, depth], the maintained
// flit counter consistent with the rings, and the slot bitsets consistent
// with the arrays they summarize (see checkSlotBits). The network's CheckInvariants calls
// it for every router, so a scan-path bug that corrupts the flat layout
// without (yet) changing observable behavior is still caught near its origin.
func (r *Router) CheckState() error {
	s := r.st
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		p, v := r.portVCOf(l)
		if h := int(s.inHead[i]); h < 0 || h >= s.depth {
			return fmt.Errorf("router %d input (%d,%d): ring head %d outside [0,%d)", r.node, p, v, h, s.depth)
		}
		if n := int(s.inLen[i]); n < 0 || n > s.depth {
			return fmt.Errorf("router %d input (%d,%d): ring length %d outside [0,%d]", r.node, p, v, n, s.depth)
		}
		for k := int(s.inLen[i]); k < s.depth; k++ {
			if fl := s.inFlits[i*s.depth+(int(s.inHead[i])+k)%s.depth]; fl.Pkt != nil {
				return fmt.Errorf("router %d input (%d,%d): vacated ring slot %d holds a stale flit of packet %d", r.node, p, v, k, fl.Pkt.ID)
			}
		}
		if rt := int(s.inRoute[i]); rt < PortEject || rt >= s.deg {
			return fmt.Errorf("router %d input (%d,%d): route %d outside [%d,%d)", r.node, p, v, rt, PortEject, s.deg)
		}
		if ov := int(s.inOutVC[i]); ov < VCDeadlockBuffer || ov >= s.vcs {
			return fmt.Errorf("router %d input (%d,%d): output VC grant %d outside [%d,%d)", r.node, p, v, ov, VCDeadlockBuffer, s.vcs)
		}
		if ln := int(s.inDBLane[i]); ln < 0 || (ln > 0 && ln >= s.lanes) {
			return fmt.Errorf("router %d input (%d,%d): DB lane %d outside the router's %d lanes", r.node, p, v, ln, s.lanes)
		}
		if err := r.checkSlotBits(l); err != nil {
			return err
		}
	}
	for k := 0; k < setReq0+s.deg+1; k++ {
		for l := s.stride; l < s.bitW*64; l++ {
			if r.bitOn(k, l) {
				return fmt.Errorf("router %d: bitset %d has bit %d set past the %d slots", r.node, k, l, s.stride)
			}
		}
	}
	for l := 0; l < s.outStr; l++ {
		i := r.out0 + l
		if c := int(s.outCredits[i]); c < 0 || c > s.depth {
			return fmt.Errorf("router %d output slot %d: credits %d outside [0,%d]", r.node, l, c, s.depth)
		}
	}
	total := 0
	for lane := 0; lane < s.lanes; lane++ {
		i := r.db0 + lane
		if h := int(s.dbHead[i]); h < 0 || h >= s.dbDepth {
			return fmt.Errorf("router %d DB lane %d: ring head %d outside [0,%d)", r.node, lane, h, s.dbDepth)
		}
		if n := int(s.dbLen[i]); n < 0 || n > s.dbDepth {
			return fmt.Errorf("router %d DB lane %d: ring length %d outside [0,%d]", r.node, lane, n, s.dbDepth)
		}
		for k := int(s.dbLen[i]); k < s.dbDepth; k++ {
			if fl := s.dbFlits[i*s.dbDepth+(int(s.dbHead[i])+k)%s.dbDepth]; fl.Pkt != nil {
				return fmt.Errorf("router %d DB lane %d: vacated ring slot %d holds a stale flit of packet %d", r.node, lane, k, fl.Pkt.ID)
			}
		}
		total += int(s.dbLen[i])
	}
	for l := 0; l < s.stride; l++ {
		total += int(s.inLen[r.in0+l])
	}
	if got := int(s.flitCount[r.node]); got != total {
		return fmt.Errorf("router %d: maintained flit count %d, rings hold %d", r.node, got, total)
	}
	for q := 0; q < s.deg; q++ {
		i := r.cx0 + q
		if ip := int(s.cxInPort[i]); ip < connNone || ip > s.deg {
			return fmt.Errorf("router %d crossbar %d: input port %d outside [-1,%d]", r.node, q, ip, s.deg)
		}
		if sp := int(s.cxSavedPort[i]); s.cxSaved[i] && (sp < 0 || sp > s.deg) {
			return fmt.Errorf("router %d crossbar %d: saved port %d outside [0,%d]", r.node, q, sp, s.deg)
		}
	}
	return nil
}

// checkSlotBits cross-checks router-local slot l's bitset bits against the
// per-slot arrays: occ ⇔ a non-empty ring, routed and exactly the matching
// request bit ⇔ inRoute, and the invariant TickTimers' skip of idle slots
// relies on — an empty slot that sent nothing this cycle carries no timer
// state (T_elapsed zero, not presumed).
func (r *Router) checkSlotBits(l int) error {
	s := r.st
	i := r.in0 + l
	p, v := r.portVCOf(l)
	if occ := s.inLen[i] > 0; r.bitOn(setOcc, l) != occ {
		return fmt.Errorf("router %d input (%d,%d): occupancy bit %v, ring length %d", r.node, p, v, !occ, s.inLen[i])
	}
	route := int(s.inRoute[i])
	if r.bitOn(setRouted, l) != (route != PortUnrouted) {
		return fmt.Errorf("router %d input (%d,%d): routed bit disagrees with route %d", r.node, p, v, route)
	}
	for q := 0; q <= s.deg; q++ {
		want := route == q || (q == s.deg && route == PortEject)
		if r.bitOn(setReq0+q, l) != want {
			return fmt.Errorf("router %d input (%d,%d): request bit for output %d disagrees with route %d", r.node, p, v, q, route)
		}
	}
	if s.inLen[i] == 0 && !r.bitOn(setSent, l) && (s.inWaiting[i] != 0 || s.inPresumed[i]) {
		return fmt.Errorf("router %d input (%d,%d): idle slot holds timer state (T_elapsed %d, presumed %v)", r.node, p, v, s.inWaiting[i], s.inPresumed[i])
	}
	return nil
}
