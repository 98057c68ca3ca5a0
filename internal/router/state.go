package router

import (
	"encoding/binary"

	"repro/internal/packet"
)

// InputFlitAt returns buffered flit i (0 == head) of input VC (port, vc).
// Invariant checkers walk buffers with it.
func (r *Router) InputFlitAt(port, vc, i int) packet.Flit { return r.st.inAt(r.inIdx(port, vc), i) }

// DBLaneLen returns the number of flits buffered in the given Deadlock
// Buffer lane.
func (r *Router) DBLaneLen(lane int) int { return int(r.st.dbLen[r.dbIdx(lane)]) }

// DBFlitAt returns buffered flit i (0 == head) of the given Deadlock Buffer
// lane.
func (r *Router) DBFlitAt(lane, i int) packet.Flit { return r.st.dbAt(r.dbIdx(lane), i) }

// AppendState appends a deterministic binary encoding of the router's full
// microarchitectural state to b and returns the extended slice: every input
// VC (owner, route grants, buffered flits, timer state), output VC (owner,
// credits), Deadlock Buffer lane, crossbar connection, arbitration offset,
// adaptive-timeout state and event counter. The golden-digest conformance
// suite hashes it to prove that the optimized and reference scan paths leave
// the network in byte-identical states; any field that can influence a future cycle must
// be included here.
//
// The encoding walks the logical (port, vc) order and each ring's logical
// head-to-tail order, never the physical SoA layout (ring head positions,
// flat slot indices), so it is layout-invariant: the struct-of-arrays
// representation produces the same bytes the per-router structs did.
func (r *Router) AppendState(b []byte) []byte {
	s := r.st
	put := func(v int64) {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	putBool := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	putPkt := func(p *packet.Packet) {
		if p == nil {
			put(-1)
			return
		}
		put(int64(p.ID))
	}

	put(int64(r.node))
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		putPkt(s.inPkt[i])
		put(int64(s.inRoute[i]))
		put(int64(s.inOutVC[i]))
		put(int64(s.inDBLane[i]))
		put(int64(s.inWaiting[i]))
		putBool(s.inPresumed[i])
		putBool(r.bitOn(setSent, l))
		put(int64(s.inLen[i]))
		for k := 0; k < int(s.inLen[i]); k++ {
			fl := s.inAt(i, k)
			putPkt(fl.Pkt)
			put(int64(fl.Seq))
		}
	}
	for l := 0; l < s.outStr; l++ {
		i := r.out0 + l
		putPkt(s.outOwner[i])
		put(int64(s.outCredits[i]))
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.db0 + lane
		putPkt(s.dbPkt[i])
		put(int64(s.dbRoute[i]))
		put(int64(s.dbLen[i]))
		for k := 0; k < int(s.dbLen[i]); k++ {
			fl := s.dbAt(i, k)
			putPkt(fl.Pkt)
			put(int64(fl.Seq))
		}
	}
	for q := 0; q < r.deg; q++ {
		i := r.cx0 + q
		put(int64(s.cxInPort[i]))
		put(int64(s.cxInVC[i]))
		putBool(s.cxDB[i])
		putBool(s.cxSaved[i])
		put(int64(s.cxSavedPort[i]))
		put(int64(s.cxSavedVC[i]))
	}
	put(int64(s.vcArbOff[r.node]))
	for q := 0; q <= r.deg; q++ {
		put(int64(s.swArbOff[r.swIdx(q)]))
	}
	put(int64(s.effTout[r.node]))
	put(int64(s.decayCount[r.node]))
	put(r.stats.TimeoutEvents)
	put(r.stats.FalseDetections)
	put(r.stats.Recoveries)
	put(r.stats.MisrouteHops)
	put(r.stats.FlitsSwitched)
	put(r.stats.FlitsEjected)
	put(r.stats.DBFlitsCarried)
	put(r.stats.Preemptions)
	put(r.stats.BlockedCycles)
	for _, c := range r.blockedByVC {
		put(c)
	}
	put(int64(s.lastBlocked[r.node]))
	put(int64(s.lastPresumed[r.node]))
	return b
}
