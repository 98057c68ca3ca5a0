package router

import "math/bits"

// The optimized SoA scan phases. These are the per-cycle entry points; each
// makes exactly the decisions of its *Ref twin in pipeline.go, in the same
// order, so the two paths stay byte-identical in effect (the differential
// conformance suite in internal/network enforces this every cycle). The
// speed comes from the slot bitsets (see State): every scan first combines
// the bitsets word by word into the candidate slots of the phase — occupied
// and unrouted for routing, occupied and requesting output q for
// arbitration, occupied or sent for the timers — and then visits only those
// slots with bits.TrailingZeros64 (see span), in the same rotated
// round-robin order the full walk uses. Empty, routed-elsewhere and idle
// slots, the overwhelming majority, are rejected a word at a time.

// StageRouting performs routing computation and output VC allocation for
// every input VC whose head flit is an unrouted header. Grants take effect
// immediately in router-local state (output VC ownership), so later headers
// in the same cycle see them; the rotating start offset keeps this fair.
func (r *Router) StageRouting() {
	s := r.st
	total := s.stride
	off := int(s.vcArbOff[r.node])
	s.vcArbOff[r.node] = int32((off + 1) % total)
	occ, routed := r.bitset(setOcc), r.bitset(setRouted)
	for pass, lo, hi := 0, off, total; pass < 2; pass, lo, hi = pass+1, 0, off {
		for w := lo >> 6; w<<6 < hi; w++ {
			for x := occ[w] &^ routed[w] & span(w, lo, hi); x != 0; x &= x - 1 {
				r.routeSlot(w<<6 + bits.TrailingZeros64(x))
			}
		}
	}
}

// StageSwitch arbitrates the crossbar and reception channels for this cycle
// and appends the staged flit movements to out. Decisions use
// start-of-cycle buffer/credit state; Commit applies them afterwards.
//
// StageSwitch mutates only this router's state and reads neighbors' Deadlock
// Buffer state, which is start-of-cycle stable, so its result does not depend
// on router visiting order. Deadlock-Buffer-bound transfers are staged
// optimistically; the caller must run Reservations.Resolve over all staged
// transfers (in fixed router order) before committing them.
func (r *Router) StageSwitch(out []Transfer) []Transfer {
	out = r.stageEjection(out)
	if r.cfg.Alloc == PacketByPacket {
		return r.stageSwitchPBP(out, false)
	}
	return r.stageSwitchFBF(out)
}

// stageEjection grants the reception channel(s): the Deadlock Buffers first
// (the recovery lane must always drain), then input VCs round-robin.
func (r *Router) stageEjection(out []Transfer) []Transfer {
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
	total := s.stride
	off := int(s.swArbOff[r.swIdx(r.deg)])
	req, occ, sent := r.bitset(r.reqSet(PortEject)), r.bitset(setOcc), r.bitset(setSent)
	granted := false
	for pass, lo, hi := 0, off, total; pass < 2 && budget > 0; pass, lo, hi = pass+1, 0, off {
		for w := lo >> 6; w<<6 < hi && budget > 0; w++ {
			for x := req[w] & occ[w] &^ sent[w] & span(w, lo, hi); x != 0 && budget > 0; x &= x - 1 {
				l := w<<6 + bits.TrailingZeros64(x)
				port, vc := r.portVCOf(l)
				out = append(out, Transfer{From: r, FromPort: port, FromVC: vc, Eject: true})
				r.setBit(setSent, l, true)
				budget--
				if !granted {
					s.swArbOff[r.swIdx(r.deg)] = int32((l + 1) % total)
					granted = true
				}
			}
		}
	}
	return out
}

// markSentPorts resets the input-port scratch and marks every port whose
// VCs already sent a flit this cycle (the ejection grants): by visiting the
// sent bitset, or under ref by the reference nested (port, vc) walk.
func (r *Router) markSentPorts(ref bool) []bool {
	used := r.inUsed
	clear(used)
	if ref {
		for p := 0; p <= r.deg; p++ {
			for v := 0; v < r.st.inVCCount(r.deg, p); v++ {
				if r.bitOn(setSent, r.inLocal(p, v)) {
					used[p] = true
				}
			}
		}
		return used
	}
	for w, x := range r.bitset(setSent) {
		for ; x != 0; x &= x - 1 {
			p, _ := r.portVCOf(w<<6 + bits.TrailingZeros64(x))
			used[p] = true
		}
	}
	return used
}

// stageSwitchFBF implements flit-by-flit crossbar allocation: a greedy
// matching of input ports to output ports, one flit per port per cycle,
// with the Deadlock Buffer as an extra crossbar input that has priority on
// its output (so the recovery lane always progresses).
func (r *Router) stageSwitchFBF(out []Transfer) []Transfer {
	if r.st.flitCount[r.node] == 0 {
		return out // nothing buffered: no output can be granted
	}
	inputUsed := r.markSentPorts(false)
	for q := 0; q < r.deg; q++ {
		if r.neighbors[q] == nil {
			continue
		}
		// Deadlock Buffer priority on its output.
		if r.stageDBOutput(q, &out) {
			continue
		}
		out = r.arbitrateInput(q, inputUsed, out)
	}
	return out
}

// arbitrateInput grants output port q to one sendable input VC this cycle,
// round-robin starting from the port's rotating offset. It is the per-flit
// output arbitration of the flit-by-flit policy and the lending fallback of
// the packet-by-packet policy.
func (r *Router) arbitrateInput(q int, inputUsed []bool, out []Transfer) []Transfer {
	s := r.st
	total := s.stride
	off := int(s.swArbOff[r.swIdx(q)])
	req, occ := r.bitset(setReq0+q), r.bitset(setOcc)
	for pass, lo, hi := 0, off, total; pass < 2; pass, lo, hi = pass+1, 0, off {
		for w := lo >> 6; w<<6 < hi; w++ {
			for x := req[w] & occ[w] & span(w, lo, hi); x != 0; x &= x - 1 {
				l := w<<6 + bits.TrailingZeros64(x)
				port, vc := r.portVCOf(l)
				if inputUsed[port] {
					continue
				}
				g := r.in0 + l
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
				r.setBit(setSent, l, true)
				s.swArbOff[r.swIdx(q)] = int32((l + 1) % total)
				return out
			}
		}
	}
	return out
}

// TickTimers advances T_elapsed for blocked headers (paper Section 3.1) and
// clears the per-cycle sent markers. It returns the number of headers that
// newly crossed T_out this cycle and lists those packets in NewlyPresumed,
// so TickTimers touches only router-local state and the network reports
// them after every router has ticked. As a side effect it refreshes the
// router's telemetry instrumentation (BlockedHeaders, PresumedHeaders,
// per-VC blocked-cycle counters).
//
// Only occupied or sent slots are visited, in ascending slot order (the
// order NewlyPresumed lists them in). An empty slot that sent nothing
// carries no timer state — every path that empties a ring either
// marks the slot sent or clears its timer, and CheckState verifies it — so
// ticking it would be a no-op.
func (r *Router) TickTimers() int {
	s := r.st
	newly := 0
	blocked, presumed := 0, 0
	tout := r.tickDecay()
	r.newlyPresumed = r.newlyPresumed[:0]
	occ, sent := r.bitset(setOcc), r.bitset(setSent)
	for w := range occ {
		for x := occ[w] | sent[w]; x != 0; x &= x - 1 {
			l := w<<6 + bits.TrailingZeros64(x)
			p, v := r.portVCOf(l)
			newly += r.tickSlot(l, p, v, tout, &blocked, &presumed)
		}
	}
	s.lastBlocked[r.node] = int32(blocked)
	s.lastPresumed[r.node] = int32(presumed)
	return newly
}
