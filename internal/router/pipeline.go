package router

import (
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Transfer is one staged flit movement for the current cycle. All transfers
// are staged against start-of-cycle state by StageSwitch and applied together
// by Commit, which keeps the simulation order-independent across routers.
// Staging is router-local (it touches only the staging router's state), so
// no router's staging depends on which routers staged before it; the
// cross-router Deadlock Buffer write-port constraint is enforced afterwards
// by Reservations.Resolve in fixed router order.
type Transfer struct {
	From       *Router
	FromPort   int // source input port; ignored when FromDB
	FromVC     int
	FromDB     bool // source is a Deadlock Buffer lane
	FromDBLane int

	To       *Router // nil for ejection
	OutPort  int     // sender's output port (To != nil)
	ToVC     int     // receiving VC index (== sender's output VC); ignored when ToDB
	ToDB     bool    // flit enters the receiver's Deadlock Buffer (status line asserted)
	ToDBLane int
	Eject    bool // flit is consumed by From's reception channel

	// Dropped marks a Deadlock-Buffer transfer that lost the per-cycle
	// write-port arbitration in Reservations.Resolve; Commit must skip it.
	Dropped bool
}

// dbKey identifies one Deadlock Buffer lane for per-cycle reservations.
type dbKey struct {
	r    *Router
	lane int
}

// Reservations tracks per-cycle Deadlock Buffer admissions. Each DB is a
// central queue with a single write port (as in the Chaos router the paper
// cites), so at most one flit per cycle may enter it, and only for the
// packet currently threading it.
type Reservations struct {
	m map[dbKey]int
}

// NewReservations returns an empty per-cycle reservation table.
func NewReservations() *Reservations {
	return &Reservations{m: make(map[dbKey]int)}
}

// Reset clears the table for the next cycle.
func (res *Reservations) Reset() {
	for k := range res.m {
		delete(res.m, k)
	}
}

// ReserveDB attempts to admit one flit of p into lane of target's Deadlock
// Buffer this cycle.
func (res *Reservations) ReserveDB(target *Router, lane int, p *packet.Packet) bool {
	if !dbStageable(target, lane, p) {
		return false
	}
	i := target.dbIdx(lane)
	k := dbKey{target, lane}
	if res.m[k] >= 1 { // single write port
		return false
	}
	if target.st.dbDepth-int(target.st.dbLen[i])-res.m[k] < 1 {
		return false
	}
	res.m[k]++
	return true
}

// dbStageable reports whether one flit of p could enter lane of target's
// Deadlock Buffer this cycle as far as start-of-cycle state is concerned:
// the lane exists, is idle or already threaded by p, and has a free slot.
// It deliberately ignores the per-cycle single-write-port constraint, which
// depends on what other routers stage: StageSwitch uses this check so that
// staging reads only start-of-cycle state (independent of router visiting
// order) and Reservations.Resolve settles the write port afterwards in
// fixed router order.
func dbStageable(target *Router, lane int, p *packet.Packet) bool {
	if target == nil || lane < 0 || lane >= target.st.lanes {
		return false
	}
	i := target.dbIdx(lane)
	owner := target.st.dbPkt[i]
	return (owner == nil || owner == p) && target.st.dbDepth-int(target.st.dbLen[i]) >= 1
}

// Resolve arbitrates the staged Deadlock Buffer admissions of one cycle: it
// walks the transfers in order and re-checks every DB-bound transfer against
// the single-write-port reservation table, marking losers Dropped and
// un-staging their source (the sent flag is cleared so TickTimers still sees
// the header as blocked). Callers invoke it once per cycle over the
// transfers in fixed router order, between staging and Commit; the surviving transfers
// are exactly those a fully serial stage-with-reservations pass would have
// admitted, except that a port whose optimistically staged DB transfer loses
// arbitration idles for the cycle instead of re-arbitrating.
func (res *Reservations) Resolve(xfers []Transfer) {
	for i := range xfers {
		t := &xfers[i]
		if !t.ToDB {
			continue
		}
		var p *packet.Packet
		if t.FromDB {
			p = t.From.st.dbPkt[t.From.dbIdx(t.FromDBLane)]
		} else {
			p = t.From.st.inPkt[t.From.inIdx(t.FromPort, t.FromVC)]
		}
		if res.ReserveDB(t.To, t.ToDBLane, p) {
			continue
		}
		t.Dropped = true
		if !t.FromDB {
			t.From.setBit(setSent, t.From.inLocal(t.FromPort, t.FromVC), false)
		}
	}
}

// --- Routing / virtual channel allocation ------------------------------------

// StageRoutingRef is the retained reference implementation of the routing /
// VC-allocation phase: a faithful port of the pre-SoA per-router scan,
// recomputing the slot total and mapping each rotating flat index to its
// (port, vc) with the O(ports) nthInputVC walk before visiting the slot. It
// makes exactly the decisions StageRouting makes, in the same order — the
// differential conformance suite and the benchgate speed gates run the two
// against each other. Select it network-wide with KernelConfig.ReferenceScan.
func (r *Router) StageRoutingRef() {
	total := 0
	for p := 0; p <= r.deg; p++ {
		total += r.st.inVCCount(r.deg, p)
	}
	off := int(r.st.vcArbOff[r.node])
	r.st.vcArbOff[r.node] = int32((off + 1) % max(total, 1))
	for i := 0; i < total; i++ {
		port, vc := r.nthInputVC((off + i) % total)
		r.routeSlot(r.inLocal(port, vc))
	}
}

// nthInputVC maps a flat index to an (port, vc) pair by walking the ports —
// the pre-SoA mapping, retained for the reference scan path (the optimized
// scans use the O(1) portVCOf inverse instead).
func (r *Router) nthInputVC(i int) (port, vc int) {
	for p := 0; p <= r.deg; p++ {
		n := r.st.inVCCount(r.deg, p)
		if i < n {
			return p, i
		}
		i -= n
	}
	panic("router: input VC index out of range")
}

// routeSlot performs routing computation and output VC allocation for the
// input VC at router-local slot l, if its head flit is an unrouted header.
// Grants take effect immediately in router-local state (output VC
// ownership), so later slots visited in the same cycle see them.
func (r *Router) routeSlot(l int) {
	s := r.st
	i := r.in0 + l
	if s.inLen[i] == 0 || s.inRoute[i] != PortUnrouted {
		return
	}
	head := s.inPeek(i)
	if !head.IsHeader() {
		return
	}
	p := head.Pkt
	if p.Dst == r.node {
		r.setRoute(l, PortEject)
		return
	}
	if p.OnDB {
		// A recovered packet re-routes onto the DB lane; this occurs only if
		// the recovery grant was made before the header advanced (normally
		// Recover sets the route directly).
		lane := r.recoveryLane(p.Dst)
		s.inDBLane[i] = int32(lane)
		r.setRoute(l, r.dbLaneRoute(lane, p.Dst))
		s.inOutVC[i] = VCDeadlockBuffer
		return
	}

	cands := r.alg.Route(r, p, r.candBuf[:0])
	r.candBuf = cands[:0]
	// Keep only candidates whose link exists and whose output VC is free,
	// then restrict to the best (lowest) preference class present.
	usable := cands[:0]
	bestClass := int(^uint(0) >> 1)
	for _, c := range cands {
		if !r.LinkExists(c.Port) || !r.OutputVCFree(c.Port, c.VC) {
			continue
		}
		if c.Class < bestClass {
			bestClass = c.Class
			usable = usable[:0]
		}
		if c.Class == bestClass {
			usable = append(usable, c)
		}
	}
	if len(usable) == 0 {
		return // blocked; retried next cycle
	}
	choice := usable[0]
	if len(usable) > 1 {
		choice = r.sel.Pick(r, usable, r.rng)
	}
	s.outOwner[r.outIdx(choice.Port, choice.VC)] = p
	r.setRoute(l, choice.Port)
	s.inOutVC[i] = int32(choice.VC)
	if choice.ToDeterministic {
		p.OnDeterministic = true
	}
}

// --- Switch allocation ----------------------------------------------------------

// StageSwitchRef is the retained reference implementation of switch
// allocation, structured like the pre-SoA scan (per-call totals, nthInputVC
// index walks). Byte-identical in effect to StageSwitch; see StageRoutingRef.
func (r *Router) StageSwitchRef(out []Transfer) []Transfer {
	out = r.stageEjectionRef(out)
	if r.cfg.Alloc == PacketByPacket {
		return r.stageSwitchPBP(out, true)
	}
	return r.stageSwitchFBFRef(out)
}

// stageEjectionRef grants the reception channel(s): the Deadlock Buffers
// first (the recovery lane must always drain), then input VCs round-robin.
func (r *Router) stageEjectionRef(out []Transfer) []Transfer {
	s := r.st
	budget := r.cfg.ReceptionChannels
	if budget == 0 {
		return out
	}
	for lane := 0; lane < s.lanes; lane++ {
		if budget == 0 {
			break
		}
		i := r.dbIdx(lane)
		if s.dbLen[i] != 0 && int(s.dbRoute[i]) == PortEject {
			out = append(out, Transfer{From: r, FromDB: true, FromDBLane: lane, Eject: true})
			budget--
		}
	}
	total := 0
	for p := 0; p <= r.deg; p++ {
		total += s.inVCCount(r.deg, p)
	}
	off := int(s.swArbOff[r.swIdx(r.deg)])
	granted := false
	for i := 0; i < total && budget > 0; i++ {
		port, vc := r.nthInputVC((off + i) % total)
		g := r.inIdx(port, vc)
		if int(s.inRoute[g]) != PortEject || s.inLen[g] == 0 || r.bitOn(setSent, r.inLocal(port, vc)) {
			continue
		}
		out = append(out, Transfer{From: r, FromPort: port, FromVC: vc, Eject: true})
		r.setBit(setSent, r.inLocal(port, vc), true)
		budget--
		if !granted {
			s.swArbOff[r.swIdx(r.deg)] = int32((off + i + 1) % total)
			granted = true
		}
	}
	return out
}

// stageSwitchFBFRef implements flit-by-flit crossbar allocation with the
// reference index walks: a greedy matching of input ports to output ports,
// one flit per port per cycle, with the Deadlock Buffer as an extra crossbar
// input that has priority on its output (so the recovery lane always
// progresses).
func (r *Router) stageSwitchFBFRef(out []Transfer) []Transfer {
	s := r.st
	// Ejection grants above already consumed their input ports this cycle.
	inputUsed := r.markSentPorts(true)
	total := 0
	for p := 0; p <= r.deg; p++ {
		total += s.inVCCount(r.deg, p)
	}
	for q := 0; q < r.deg; q++ {
		if r.neighbors[q] == nil {
			continue
		}
		if r.stageDBOutput(q, &out) {
			continue
		}
		out = r.arbitrateInputRef(q, total, inputUsed, out)
	}
	return out
}

// stageDBOutput stages the Deadlock Buffer hop on output q if some lane
// wants it: each lane continues on the same lane index at the next router.
// Shared by the reference and optimized switch scans.
func (r *Router) stageDBOutput(q int, out *[]Transfer) bool {
	s := r.st
	for lane := 0; lane < s.lanes; lane++ {
		i := r.dbIdx(lane)
		if s.dbLen[i] != 0 && int(s.dbRoute[i]) == q && dbStageable(r.neighbors[q], lane, s.dbPkt[i]) {
			*out = append(*out, Transfer{From: r, FromDB: true, FromDBLane: lane,
				To: r.neighbors[q], OutPort: q, ToDB: true, ToDBLane: lane})
			return true
		}
	}
	return false
}

// arbitrateInputRef grants output port q to one sendable input VC this
// cycle, round-robin from the port's rotating offset, using the reference
// nthInputVC index walk. It is the per-flit output arbitration of the
// flit-by-flit policy and the lending fallback of the packet-by-packet
// policy on the reference path.
func (r *Router) arbitrateInputRef(q, total int, inputUsed []bool, out []Transfer) []Transfer {
	s := r.st
	off := int(s.swArbOff[r.swIdx(q)])
	for i := 0; i < total; i++ {
		port, vc := r.nthInputVC((off + i) % total)
		if inputUsed[port] {
			continue
		}
		g := r.inIdx(port, vc)
		if int(s.inRoute[g]) != q || s.inLen[g] == 0 {
			continue
		}
		if int(s.inOutVC[g]) == VCDeadlockBuffer {
			if !dbStageable(r.neighbors[q], int(s.inDBLane[g]), s.inPkt[g]) {
				continue
			}
			out = append(out, Transfer{From: r, FromPort: port, FromVC: vc,
				To: r.neighbors[q], OutPort: q, ToDB: true, ToDBLane: int(s.inDBLane[g])})
		} else {
			if s.outCredits[r.outIdx(q, int(s.inOutVC[g]))] <= 0 {
				continue
			}
			out = append(out, Transfer{From: r, FromPort: port, FromVC: vc, To: r.neighbors[q], OutPort: q, ToVC: int(s.inOutVC[g])})
		}
		inputUsed[port] = true
		r.setBit(setSent, r.inLocal(port, vc), true)
		s.swArbOff[r.swIdx(q)] = int32((off + i + 1) % total)
		break
	}
	return out
}

// --- Commit -----------------------------------------------------------------------

// Sink consumes flits ejected into a node's reception channel. The network
// implements it to record delivery, statistics and Token release.
type Sink interface {
	Deliver(fl packet.Flit, at topology.Node)
}

// Commit applies a staged transfer; ejected flits are passed to sink.
// Transfers marked Dropped by Reservations.Resolve are ignored.
func Commit(t *Transfer, sink Sink) {
	if t.Dropped {
		return
	}
	fl := t.popSource()
	switch {
	case t.Eject:
		t.From.stats.FlitsEjected++
		sink.Deliver(fl, t.From.node)
	case t.ToDB:
		to := t.To
		i := to.dbIdx(t.ToDBLane)
		to.st.dbPush(i, fl)
		to.st.flitCount[to.node]++
		if fl.IsHeader() {
			to.st.dbPkt[i] = fl.Pkt
			to.st.dbRoute[i] = int32(to.dbLaneRoute(t.ToDBLane, fl.Pkt.Dst))
			fl.Pkt.Hops++
		}
		t.From.stats.FlitsSwitched++
	default:
		to := t.To
		inPort := int(t.From.rev[t.OutPort])
		tl := to.inLocal(inPort, t.ToVC)
		to.inPush(tl, fl)
		to.st.flitCount[to.node]++
		if fl.IsHeader() {
			to.st.inPkt[to.in0+tl] = fl.Pkt
		}
		oi := t.From.outIdx(t.OutPort, t.ToVC)
		t.From.st.outCredits[oi]--
		if fl.IsTail() {
			t.From.st.outOwner[oi] = nil
		}
		t.From.stats.FlitsSwitched++
		if fl.IsHeader() {
			t.From.applyHeaderHop(fl.Pkt, t.OutPort)
		}
	}
}

// popSource removes the flit from its source buffer, returning credits to
// the upstream output VC and releasing wormhole state on tails.
func (t *Transfer) popSource() packet.Flit {
	r := t.From
	s := r.st
	if t.FromDB {
		i := r.dbIdx(t.FromDBLane)
		fl := s.dbPop(i)
		s.flitCount[r.node]--
		r.stats.DBFlitsCarried++
		if fl.IsTail() {
			s.dbPkt[i] = nil
			s.dbRoute[i] = PortUnrouted
		}
		return fl
	}
	l := r.inLocal(t.FromPort, t.FromVC)
	i := r.in0 + l
	fl := r.inPop(l)
	s.flitCount[r.node]--
	if t.FromPort < r.deg && r.neighbors[t.FromPort] != nil {
		up := r.neighbors[t.FromPort]
		up.st.outCredits[up.outIdx(int(r.rev[t.FromPort]), t.FromVC)]++
	}
	if fl.IsTail() {
		s.inPkt[i] = nil
		r.setRoute(l, PortUnrouted)
		s.inOutVC[i] = VCUnrouted
		s.inWaiting[i] = 0
		s.inPresumed[i] = false
	}
	return fl
}

// applyHeaderHop updates per-packet routing state when a header crosses a
// normal (edge-buffer) link out of r.
func (r *Router) applyHeaderHop(p *packet.Packet, outPort int) {
	p.Hops++
	if r.ctopo != nil {
		// Dimension-reversal and dateline state only exist on coordinate
		// topologies; the algorithms that consume them reject coordinate-
		// free graphs at configuration time.
		d := topology.PortDim(outPort)
		if p.LastDim >= 0 && d < p.LastDim {
			p.DimReversals++
		}
		p.LastDim = d
		if r.ctopo.CrossesDateline(r.node, outPort) {
			p.DatelineCrossed |= 1 << uint(d)
		}
	}
	nb := r.neighbors[outPort]
	if r.topo.Distance(nb.node, p.Dst) >= r.topo.Distance(r.node, p.Dst) {
		p.Misroutes++
		r.stats.MisrouteHops++
	}
}

// --- Deadlock detection & recovery ---------------------------------------------

// TickTimersRef is the retained reference implementation of the deadlock
// timer phase: the pre-SoA nested (port, vc) walk over the input VCs.
// Byte-identical in effect to TickTimers; see StageRoutingRef.
func (r *Router) TickTimersRef() int {
	s := r.st
	newly := 0
	blocked, presumed := 0, 0
	tout := r.tickDecay()
	r.newlyPresumed = r.newlyPresumed[:0]
	for p := 0; p <= r.deg; p++ {
		for v := 0; v < s.inVCCount(r.deg, p); v++ {
			newly += r.tickSlot(r.inLocal(p, v), p, v, tout, &blocked, &presumed)
		}
	}
	s.lastBlocked[r.node] = int32(blocked)
	s.lastPresumed[r.node] = int32(presumed)
	return newly
}

// tickDecay returns the timeout in force this cycle and, under
// AdaptiveTimeout, applies the slow decay of the self-tuned T_out back
// toward the configured base.
func (r *Router) tickDecay() sim.Cycle {
	tout := r.cfg.Timeout
	if r.cfg.AdaptiveTimeout {
		s := r.st
		tout = s.effTout[r.node]
		s.decayCount[r.node]++
		if s.decayCount[r.node] >= 256 {
			s.decayCount[r.node] = 0
			if s.effTout[r.node] > r.cfg.Timeout {
				s.effTout[r.node]--
			}
		}
	}
	return tout
}

// tickSlot advances the deadlock timer of the input VC at router-local
// slot l = inLocal(p, v) and clears its per-cycle sent marker, returning 1
// if its header newly crossed T_out. Shared by the reference and optimized
// timer scans.
func (r *Router) tickSlot(l, p, v int, tout sim.Cycle, blocked, presumed *int) int {
	s := r.st
	i := r.in0 + l
	if r.bitOn(setSent, l) {
		if s.inPresumed[i] {
			// The presumed-deadlocked header moved normally: a false
			// detection. Under AdaptiveTimeout, back off.
			r.stats.FalseDetections++
			if r.cfg.AdaptiveTimeout {
				s.effTout[r.node] *= 2
				if max8 := 8 * r.cfg.Timeout; s.effTout[r.node] > max8 {
					s.effTout[r.node] = max8
				}
			}
		}
		r.setBit(setSent, l, false)
		s.inWaiting[i] = 0
		s.inPresumed[i] = false
		return 0
	}
	if s.inLen[i] == 0 {
		s.inWaiting[i] = 0
		s.inPresumed[i] = false
		return 0
	}
	head := s.inPeek(i)
	// Only headers not draining to the local reception channel and not
	// already recovering are candidates for presumption.
	if !head.IsHeader() || int(s.inRoute[i]) == PortEject || head.Pkt.OnDB {
		s.inWaiting[i] = 0
		s.inPresumed[i] = false
		return 0
	}
	s.inWaiting[i]++
	*blocked++
	r.stats.BlockedCycles++
	r.blockedByVC[v]++
	if s.inPresumed[i] {
		*presumed++
	}
	if tout > 0 && s.inWaiting[i] > tout && !s.inPresumed[i] {
		// Headers still at the injection port hold no network channels, so
		// they cannot be deadlock members; they are presumed only when
		// STRANDED by link faults (the routing function offers no live port
		// at all), in which case only the recovery lane can ever deliver
		// them. The stranded check is throttled: faults are rare events.
		if p == r.deg {
			if (s.inWaiting[i]-tout)%16 != 1 || !r.strandedHeader(head.Pkt) {
				return 0
			}
		}
		s.inPresumed[i] = true
		*presumed++
		head.Pkt.TimedOut = true
		r.stats.TimeoutEvents++
		r.newlyPresumed = append(r.newlyPresumed, head.Pkt)
		return 1
	}
	return 0
}

// NewlyPresumed returns the headers that crossed T_out during the last
// TickTimers, in detection order. The slice is overwritten by the next
// TickTimers. The network reads it in fixed router order after the whole
// timer phase, so the events it emits see every router's timers for the
// cycle already ticked.
func (r *Router) NewlyPresumed() []*packet.Packet { return r.newlyPresumed }

// strandedHeader reports whether the packet's routing function offers no
// live output port at this router — only possible with failed links; such
// a packet can never advance on edge channels and must be recovered.
func (r *Router) strandedHeader(p *packet.Packet) bool {
	cands := r.alg.Route(r, p, r.candBuf[:0])
	r.candBuf = cands[:0]
	for _, c := range cands {
		if r.LinkExists(c.Port) {
			return false
		}
	}
	return true
}

// MostStarved returns the presumed-deadlocked input VC whose header has
// waited longest; ok is false when the router has none. The circulating
// Token queries this to decide whether to stop here. Injection-port VCs
// are included: they are presumed only when stranded by faults.
func (r *Router) MostStarved() (port, vc int, ok bool) {
	s := r.st
	var best sim.Cycle = -1
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if s.inPresumed[i] && s.inWaiting[i] > best {
			best = s.inWaiting[i]
			port, vc = r.portVCOf(l)
			ok = true
		}
	}
	return port, vc, ok
}

// Recover switches the packet whose header waits in input VC (port, vc)
// onto the Deadlock Buffer lane: it releases any edge output VC the header
// held, marks the packet recovered (it may use only Deadlock Buffers from
// here to its destination — paper Assumption 3) and aims it at the next DB
// hop: minimal dimension-order under sequential recovery, the monotone
// Hamiltonian step of the packet's lane under concurrent recovery. It
// returns the recovered packet.
func (r *Router) Recover(port, vc int, now sim.Cycle) *packet.Packet {
	s := r.st
	i := r.inIdx(port, vc)
	p := s.inPkt[i]
	if p == nil || s.inLen[i] == 0 || !s.inPeek(i).IsHeader() {
		panic("router: Recover on a VC without a blocked header")
	}
	if s.inRoute[i] >= 0 && s.inOutVC[i] >= 0 {
		s.outOwner[r.outIdx(int(s.inRoute[i]), int(s.inOutVC[i]))] = nil
	}
	p.OnDB = true
	p.SeizedToken = r.cfg.Recovery == RecoverySequential
	p.RecoveredAt = now
	lane := r.recoveryLane(p.Dst)
	s.inDBLane[i] = int32(lane)
	r.setRoute(r.inLocal(port, vc), r.dbLaneRoute(lane, p.Dst))
	s.inOutVC[i] = VCDeadlockBuffer
	s.inWaiting[i] = 0
	s.inPresumed[i] = false
	r.stats.Recoveries++
	return p
}

// RecoverPresumed (concurrent recovery) switches every presumed-deadlocked
// packet at this router onto its Deadlock Buffer lane — no Token, no mutual
// exclusion. Each recovered packet is appended to out (pass a reused
// scratch slice to keep the call allocation-free); the extended slice is
// returned so callers can trace and track per-packet recoveries.
func (r *Router) RecoverPresumed(now sim.Cycle, out []*packet.Packet) []*packet.Packet {
	s := r.st
	// Network ports only — exactly the first deg*vcs slots of the port-major
	// layout (injection slots sit at the end of the router's range).
	for l := 0; l < r.deg*s.vcs; l++ {
		if s.inPresumed[r.in0+l] {
			p, v := r.portVCOf(l)
			out = append(out, r.Recover(p, v, now))
		}
	}
	return out
}

// recoveryLane picks the Deadlock Buffer lane for a recovery starting here:
// lane 0 under sequential recovery; under concurrent recovery the up lane
// when the destination's Hamiltonian label is larger, else the down lane.
func (r *Router) recoveryLane(dst topology.Node) int {
	if r.cfg.Recovery != RecoveryConcurrent {
		return 0
	}
	if r.hamLabels == nil {
		panic("router: concurrent recovery without ConnectHamiltonian")
	}
	if r.hamLabels[dst] > r.hamLabel {
		return laneUp
	}
	return laneDown
}

// dbLaneRoute returns the Deadlock Buffer lane's output at this router for
// a packet to dst: ejection at the destination, minimal dimension-order for
// the sequential lane, the monotone Hamiltonian-path step for concurrent
// lanes (which keeps each lane's buffer dependency chain linear and hence
// acyclic).
func (r *Router) dbLaneRoute(lane int, dst topology.Node) int {
	if r.node == dst {
		return PortEject
	}
	if r.cfg.Recovery == RecoveryConcurrent {
		if lane == laneUp {
			return r.hamNextPort
		}
		return r.hamPrevPort
	}
	if r.dbTable != nil {
		return int(r.dbTable[int(dst)*r.topo.Nodes()+int(r.node)])
	}
	// Coordinate-free graphs always carry a dbTable (the network installs
	// the BFS table at construction), so reaching the dimension-order
	// fallback implies cube coordinates exist.
	port, ok := routing.DORPort(r.ctopo, r.node, dst)
	if !ok {
		return PortEject
	}
	return port
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PresumedPackets appends the distinct packets currently presumed
// deadlocked at this router (abort-retry recovery collects its victims
// through it).
func (r *Router) PresumedPackets(out []*packet.Packet) []*packet.Packet {
	s := r.st
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if s.inPresumed[i] && s.inPkt[i] != nil {
			out = append(out, s.inPkt[i])
		}
	}
	return out
}

// PurgePacket removes every flit of p from this router and releases all
// channel state p holds here: input VC ownership (returning the purged
// flits' credits upstream), granted and in-use output VCs, and — indirectly,
// through the stale-connection checks — packet-by-packet crossbar
// connections. It returns the number of flits purged. Abort-and-retry
// recovery calls it on every router to kill a packet.
func (r *Router) PurgePacket(p *packet.Packet) int {
	s := r.st
	purged := 0
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		if s.inPkt[i] != p {
			continue
		}
		port, v := r.portVCOf(l)
		n := int(s.inLen[i])
		for k := 0; k < n; k++ {
			r.inPop(l)
		}
		s.flitCount[r.node] -= int32(n)
		purged += n
		if n > 0 && port < r.deg && r.neighbors[port] != nil {
			up := r.neighbors[port]
			up.st.outCredits[up.outIdx(int(r.rev[port]), v)] += int32(n)
		}
		s.inPkt[i] = nil
		r.setRoute(l, PortUnrouted)
		s.inOutVC[i] = VCUnrouted
		s.inWaiting[i] = 0
		s.inPresumed[i] = false
		r.setBit(setSent, l, false)
	}
	for q := 0; q < r.deg; q++ {
		for v := 0; v < s.vcs; v++ {
			i := r.outIdx(q, v)
			if s.outOwner[i] == p {
				s.outOwner[i] = nil
			}
		}
	}
	return purged
}
