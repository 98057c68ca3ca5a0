package router

import (
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// readCycle decodes a sim.Cycle timestamp.
func readCycle(rd *snapshot.Reader) sim.Cycle { return sim.Cycle(rd.I64()) }

// EncodeState serializes the router's complete dynamic state — every field
// AppendState hashes, in the same order, plus the router's private RNG
// stream (which AppendState omits because it never influences a digest
// comparison between two live networks, but which a restored run needs to
// reproduce future selection draws). Packets are stored as IDs; the network
// owns the packet table and rewires pointers on decode. Like AppendState,
// the walk follows logical (port, vc) and ring order, so the stream is
// independent of the SoA layout and its ring head positions.
//
// EncodeState and DecodeState must be kept in lockstep with AppendState:
// any new field that can influence a future cycle must appear in all three.
func (r *Router) EncodeState(w *snapshot.Writer) {
	s := r.st
	putPkt := func(p *packet.Packet) {
		if p == nil {
			w.I64(-1)
			return
		}
		w.I64(int64(p.ID))
	}

	w.I64(int64(r.node))
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		putPkt(s.inPkt[i])
		w.Int(int(s.inRoute[i]))
		w.Int(int(s.inOutVC[i]))
		w.Int(int(s.inDBLane[i]))
		w.I64(int64(s.inWaiting[i]))
		w.Bool(s.inPresumed[i])
		w.Bool(r.bitOn(setSent, l))
		w.Int(int(s.inLen[i]))
		for k := 0; k < int(s.inLen[i]); k++ {
			fl := s.inAt(i, k)
			putPkt(fl.Pkt)
			w.Int(fl.Seq)
		}
	}
	for l := 0; l < s.outStr; l++ {
		i := r.out0 + l
		putPkt(s.outOwner[i])
		w.Int(int(s.outCredits[i]))
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.db0 + lane
		putPkt(s.dbPkt[i])
		w.Int(int(s.dbRoute[i]))
		w.Int(int(s.dbLen[i]))
		for k := 0; k < int(s.dbLen[i]); k++ {
			fl := s.dbAt(i, k)
			putPkt(fl.Pkt)
			w.Int(fl.Seq)
		}
	}
	for q := 0; q < r.deg; q++ {
		i := r.cx0 + q
		w.Int(int(s.cxInPort[i]))
		w.Int(int(s.cxInVC[i]))
		w.Bool(s.cxDB[i])
		w.Bool(s.cxSaved[i])
		w.Int(int(s.cxSavedPort[i]))
		w.Int(int(s.cxSavedVC[i]))
	}
	w.Int(int(s.vcArbOff[r.node]))
	for q := 0; q <= r.deg; q++ {
		w.Int(int(s.swArbOff[r.swIdx(q)]))
	}
	w.I64(int64(s.effTout[r.node]))
	w.Int(int(s.decayCount[r.node]))
	w.I64(r.stats.TimeoutEvents)
	w.I64(r.stats.FalseDetections)
	w.I64(r.stats.Recoveries)
	w.I64(r.stats.MisrouteHops)
	w.I64(r.stats.FlitsSwitched)
	w.I64(r.stats.FlitsEjected)
	w.I64(r.stats.DBFlitsCarried)
	w.I64(r.stats.Preemptions)
	w.I64(r.stats.BlockedCycles)
	for _, c := range r.blockedByVC {
		w.I64(c)
	}
	w.Int(int(s.lastBlocked[r.node]))
	w.Int(int(s.lastPresumed[r.node]))
	st := r.rng.State()
	for _, v := range st {
		w.U64(v)
	}
}

// DecodeState restores the router's dynamic state from a stream produced by
// EncodeState. resolve maps a packet ID to the shared *packet.Packet decoded
// by the network (nil for unknown IDs, which is a decoding error). The
// router must have been freshly constructed with the identical configuration
// the snapshot was taken under; structural dimensions (ports, VCs, buffer
// capacities) are validated against the stream, and every index and length
// is bounds-checked so corrupt input yields an error, never a panic.
// Restored rings are repacked from physical position 0 — the head position
// is a private representation detail with no logical meaning, so the repack
// is invisible to digests.
func (r *Router) DecodeState(rd *snapshot.Reader, resolve func(id int64) *packet.Packet) error {
	s := r.st
	getPkt := func() *packet.Packet {
		id := rd.I64()
		if rd.Err() != nil || id == -1 {
			return nil
		}
		p := resolve(id)
		if p == nil {
			rd.Fail("snapshot: router %d references unknown packet %d", r.node, id)
		}
		return p
	}
	// getInFifo/getDBFifo drain a ring (zeroing its slots) and refill it
	// from the stream: getInFifo takes the router-local input slot l,
	// getDBFifo the global lane slot i.
	getInFifo := func(l int) {
		i := r.in0 + l
		for s.inLen[i] > 0 {
			r.inPop(l)
		}
		s.inHead[i] = 0
		n := rd.Len(s.depth)
		for k := 0; k < n; k++ {
			p := getPkt()
			seq := rd.Int()
			if rd.Err() != nil {
				return
			}
			if p == nil {
				rd.Fail("snapshot: router %d has a buffered flit with no packet", r.node)
				return
			}
			if seq < 0 || seq >= p.Length {
				rd.Fail("snapshot: router %d flit seq %d outside packet length %d", r.node, seq, p.Length)
				return
			}
			r.inPush(l, packet.Flit{Pkt: p, Seq: seq})
		}
	}
	getDBFifo := func(i int) {
		for s.dbLen[i] > 0 {
			s.dbPop(i)
		}
		s.dbHead[i] = 0
		n := rd.Len(s.dbDepth)
		for k := 0; k < n; k++ {
			p := getPkt()
			seq := rd.Int()
			if rd.Err() != nil {
				return
			}
			if p == nil {
				rd.Fail("snapshot: router %d has a buffered flit with no packet", r.node)
				return
			}
			if seq < 0 || seq >= p.Length {
				rd.Fail("snapshot: router %d flit seq %d outside packet length %d", r.node, seq, p.Length)
				return
			}
			s.dbPush(i, packet.Flit{Pkt: p, Seq: seq})
		}
	}
	checkPort := func(v int, what string) int {
		if rd.Err() == nil && (v < PortEject || v >= r.deg) {
			rd.Fail("snapshot: router %d %s %d out of range", r.node, what, v)
		}
		return v
	}

	rd.Expect(int64(r.node), "router node")
	for l := 0; l < s.stride; l++ {
		i := r.in0 + l
		s.inPkt[i] = getPkt()
		// Validate the route before setRoute indexes a request bitset with
		// it: a corrupt stream must error, not index past the array.
		if route := checkPort(rd.Int(), "input route"); rd.Err() == nil {
			r.setRoute(l, route)
		}
		outVC := rd.Int()
		if rd.Err() == nil && (outVC < VCDeadlockBuffer || outVC >= r.cfg.VCs) {
			rd.Fail("snapshot: router %d output VC %d out of range", r.node, outVC)
		}
		s.inOutVC[i] = int32(outVC)
		dbLane := rd.Int()
		if rd.Err() == nil && (dbLane < 0 || (dbLane > 0 && dbLane >= s.lanes)) {
			rd.Fail("snapshot: router %d DB lane %d out of range", r.node, dbLane)
		}
		s.inDBLane[i] = int32(dbLane)
		s.inWaiting[i] = readCycle(rd)
		s.inPresumed[i] = rd.Bool()
		sent := rd.Bool()
		r.setBit(setSent, l, sent)
		getInFifo(l)
		if rd.Err() == nil && !sent && s.inLen[i] == 0 && (s.inWaiting[i] != 0 || s.inPresumed[i]) {
			rd.Fail("snapshot: router %d input slot %d is empty but holds timer state", r.node, l)
		}
		if err := rd.Err(); err != nil {
			return err
		}
	}
	for l := 0; l < s.outStr; l++ {
		i := r.out0 + l
		s.outOwner[i] = getPkt()
		credits := rd.Int()
		if rd.Err() == nil && (credits < 0 || credits > r.cfg.BufferDepth) {
			rd.Fail("snapshot: router %d credits %d outside [0, %d]", r.node, credits, r.cfg.BufferDepth)
		}
		s.outCredits[i] = int32(credits)
	}
	for lane := 0; lane < s.lanes; lane++ {
		i := r.db0 + lane
		s.dbPkt[i] = getPkt()
		s.dbRoute[i] = int32(checkPort(rd.Int(), "DB route"))
		getDBFifo(i)
		if err := rd.Err(); err != nil {
			return err
		}
	}
	for q := 0; q < r.deg; q++ {
		i := r.cx0 + q
		inPort := rd.Int()
		if rd.Err() == nil && (inPort < connNone || inPort > r.deg) {
			rd.Fail("snapshot: router %d crossbar input port %d out of range", r.node, inPort)
		}
		s.cxInPort[i] = int32(inPort)
		s.cxInVC[i] = int32(rd.Int())
		s.cxDB[i] = rd.Bool()
		s.cxSaved[i] = rd.Bool()
		savedPort := rd.Int()
		if rd.Err() == nil && (savedPort < connNone || savedPort > r.deg) {
			rd.Fail("snapshot: router %d saved crossbar port %d out of range", r.node, savedPort)
		}
		s.cxSavedPort[i] = int32(savedPort)
		s.cxSavedVC[i] = int32(rd.Int())
	}
	vcOff := rd.Int()
	if rd.Err() == nil && (vcOff < 0 || vcOff >= s.stride) {
		rd.Fail("snapshot: router %d VC arbitration offset %d out of range", r.node, vcOff)
	}
	s.vcArbOff[r.node] = int32(vcOff)
	for q := 0; q <= r.deg; q++ {
		off := rd.Int()
		if rd.Err() == nil && (off < 0 || off >= s.stride) {
			rd.Fail("snapshot: router %d switch arbitration offset %d out of range", r.node, off)
		}
		s.swArbOff[r.swIdx(q)] = int32(off)
	}
	s.effTout[r.node] = readCycle(rd)
	s.decayCount[r.node] = int32(rd.Int())
	r.stats.TimeoutEvents = rd.I64()
	r.stats.FalseDetections = rd.I64()
	r.stats.Recoveries = rd.I64()
	r.stats.MisrouteHops = rd.I64()
	r.stats.FlitsSwitched = rd.I64()
	r.stats.FlitsEjected = rd.I64()
	r.stats.DBFlitsCarried = rd.I64()
	r.stats.Preemptions = rd.I64()
	r.stats.BlockedCycles = rd.I64()
	for i := range r.blockedByVC {
		r.blockedByVC[i] = rd.I64()
	}
	s.lastBlocked[r.node] = int32(rd.Int())
	s.lastPresumed[r.node] = int32(rd.Int())
	var st [4]uint64
	for i := range st {
		st[i] = rd.U64()
	}
	if err := rd.Err(); err != nil {
		return err
	}
	r.rng.SetState(st)
	r.newlyPresumed = r.newlyPresumed[:0]
	// Rebuild the derived flit counter from the restored buffers; it is not
	// serialized (the snapshot format predates it, and it is derivable).
	total := int32(0)
	for l := 0; l < s.stride; l++ {
		total += s.inLen[r.in0+l]
	}
	for lane := 0; lane < s.lanes; lane++ {
		total += s.dbLen[r.db0+lane]
	}
	s.flitCount[r.node] = total
	return nil
}
