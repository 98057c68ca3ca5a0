package network

import (
	"fmt"
	"io"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Snapshot container identity. Bump snapshotVersion whenever the payload
// layout changes; old snapshots are then rejected with a clear error instead
// of being mis-decoded (TestSnapshotGoldenFixture pins the current layout).
const (
	snapshotMagic   = "DISHANET"
	snapshotVersion = 2
)

// Snapshot writes a versioned binary serialization of the network's complete
// dynamic state to w: configuration guard, the reconfiguration log (every
// link/router kill and heal and routing swap, for topology replay), clock,
// RNG streams, event counters, the live packet table (each in-flight or
// queued packet once, by identity), every node's source-queue and
// injection-stream state, the recovery Token, and every router's full
// microstate plus its private RNG (router.EncodeState).
//
// An armed reconfiguration schedule (ScheduleReconfig) is deliberately NOT
// serialized: schedules live outside the network (chaos schedule files,
// harness specs), and the caller re-arms the same schedule after Restore —
// events whose cycle already passed are dropped on arming because the log
// replay above has already reproduced their effect.
//
// The encoding is deterministic and scan-path-independent: networks in the
// same state produce identical bytes. Restoring it into a
// freshly built Network with the identical Config reproduces the exact
// Fingerprint at every subsequent cycle, which is the property the
// checkpoint/resume machinery in internal/harness is built on.
func (n *Network) Snapshot(w io.Writer) error {
	var enc snapshot.Writer
	n.encodeConfigGuard(&enc)

	enc.Int(len(n.reconfigLog))
	for _, o := range n.reconfigLog {
		enc.I64(int64(o.Cycle))
		enc.Int(int(o.Kind))
		enc.Int(int(o.Node))
		enc.Int(o.Port)
		enc.String(o.Alg)
		enc.Bool(o.Applied)
		enc.String(o.Reason)
		enc.I64(o.PacketsLost)
		enc.I64(o.FlitsLost)
		enc.I64(o.PacketsUnroutable)
	}

	enc.I64(int64(n.clock.Now()))
	for _, s := range n.rng.State() {
		enc.U64(s)
	}
	enc.I64(int64(n.nextID))
	EncodeCounters(&enc, n.counters)

	// Live packet table: every packet reachable from any queue, buffer,
	// channel or the Token, each serialized once. Pointer identity is
	// preserved on restore by rewiring all references through the IDs.
	pkts := n.collectPackets()
	enc.Int(len(pkts))
	for _, p := range pkts {
		encodePacket(&enc, p)
	}

	for i := range n.nis {
		q := &n.nis[i]
		enc.Int(q.queued())
		for j := q.qhead; j < len(q.queue); j++ {
			enc.I64(int64(q.queue[j].ID))
		}
		if q.cur != nil {
			enc.I64(int64(q.cur.ID))
			enc.Int(q.seq)
		} else {
			enc.I64(-1)
		}
	}
	for _, o := range n.outstanding {
		enc.I64(int64(o))
	}
	for _, s := range n.sources {
		st := s.State()
		for _, v := range st.RNG {
			enc.U64(v)
		}
		enc.Bool(st.Stopped)
		enc.Bool(st.Bursting)
		enc.I64(st.Offered)
	}

	enc.Bool(n.token != nil)
	if n.token != nil {
		t := n.token
		enc.Int(t.pos)
		enc.Bool(t.held)
		if t.holder != nil {
			enc.I64(int64(t.holder.ID))
		} else {
			enc.I64(-1)
		}
		enc.I64(t.seizures)
		enc.I64(t.transitCycles)
		enc.I64(t.holdCycles)
	}

	for _, r := range n.routers {
		r.EncodeState(&enc)
	}

	_, err := w.Write(snapshot.Seal(snapshotMagic, snapshotVersion, enc.Bytes()))
	return err
}

// Restore loads a snapshot produced by Snapshot into this network. The
// network must be freshly constructed — network.New with the identical
// Config (KernelConfig.ReferenceScan alone may differ; it does not affect
// results) and never stepped; anything else is an error. On any decoding
// error the network state is undefined and the network must be discarded.
func (n *Network) Restore(r io.Reader) error {
	if n.clock.Now() != 0 || n.counters != (Counters{}) || len(n.reconfigLog) != 0 {
		return fmt.Errorf("network: Restore requires a freshly constructed network")
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("network: read snapshot: %w", err)
	}
	payload, err := snapshot.Open(data, snapshotMagic, snapshotVersion)
	if err != nil {
		return err
	}
	dec := snapshot.NewReader(payload)

	if err := n.decodeConfigGuard(dec); err != nil {
		return err
	}

	nEvents := dec.Len(dec.Remaining() / 64)
	topoChanged := false
	for i := 0; i < nEvents; i++ {
		var o ReconfigOutcome
		o.Cycle = readCycleVal(dec)
		o.Kind = ReconfigKind(dec.Int())
		o.Node = topology.Node(dec.Int())
		o.Port = dec.Int()
		o.Alg = dec.String()
		o.Applied = dec.Bool()
		o.Reason = dec.String()
		o.PacketsLost = dec.I64()
		o.FlitsLost = dec.I64()
		o.PacketsUnroutable = dec.I64()
		if err := dec.Err(); err != nil {
			return err
		}
		changed, err := n.replayOutcome(o)
		if err != nil {
			return fmt.Errorf("network: replay reconfiguration log entry %d (%s): %w", i, o.ReconfigEvent, err)
		}
		topoChanged = topoChanged || changed
	}
	if topoChanged {
		// The decoded router state below carries the exact per-lane DB routes;
		// only the shared next-hop table (consulted for future recoveries)
		// needs rebuilding over the replayed wiring.
		n.rebuildDBTable()
	}

	n.clock.Set(readCycleVal(dec))
	var rngState [4]uint64
	for i := range rngState {
		rngState[i] = dec.U64()
	}
	n.rng.SetState(rngState)
	n.nextID = packet.ID(dec.I64())
	n.counters = DecodeCounters(dec)

	table, err := decodePacketTable(dec)
	if err != nil {
		return err
	}
	resolve := func(id int64) *packet.Packet { return table[id] }
	getPkt := func() *packet.Packet {
		id := dec.I64()
		if dec.Err() != nil || id == -1 {
			return nil
		}
		p := table[id]
		if p == nil {
			dec.Fail("snapshot: reference to unknown packet %d", id)
		}
		return p
	}

	for i := range n.nis {
		q := &n.nis[i]
		q.queue, q.qhead, q.cur, q.seq = nil, 0, nil, 0
		queued := dec.Len(dec.Remaining() / 8)
		for j := 0; j < queued; j++ {
			p := getPkt()
			if dec.Err() != nil {
				return dec.Err()
			}
			if p == nil {
				return dec.Fail("snapshot: node %d queue holds a nil packet", i)
			}
			q.push(p)
		}
		if id := dec.I64(); id != -1 && dec.Err() == nil {
			if q.cur = table[id]; q.cur == nil {
				return dec.Fail("snapshot: node %d streams unknown packet %d", i, id)
			}
			q.seq = dec.Int()
			if dec.Err() == nil && (q.seq < 1 || q.seq >= q.cur.Length) {
				return dec.Fail("snapshot: node %d stream position %d outside packet length %d", i, q.seq, q.cur.Length)
			}
		}
		if err := dec.Err(); err != nil {
			return err
		}
	}
	for i := range n.outstanding {
		v := dec.I64()
		if dec.Err() == nil && (v < int32min || v > int32max) {
			return dec.Fail("snapshot: outstanding count %d overflows int32", v)
		}
		n.outstanding[i] = int32(v)
	}
	for _, s := range n.sources {
		var st [4]uint64
		for i := range st {
			st[i] = dec.U64()
		}
		stopped, bursting, offered := dec.Bool(), dec.Bool(), dec.I64()
		if err := dec.Err(); err != nil {
			return err
		}
		s.SetState(sourceState(st, stopped, bursting, offered))
	}

	hasToken := dec.Bool()
	if dec.Err() == nil && hasToken != (n.token != nil) {
		return dec.Fail("snapshot: token presence mismatch (snapshot %v, configuration %v)", hasToken, n.token != nil)
	}
	if hasToken {
		t := n.token
		t.pos = dec.Int()
		if dec.Err() == nil && (t.pos < 0 || t.pos >= len(t.order)) {
			return dec.Fail("snapshot: token position %d outside ring of %d", t.pos, len(t.order))
		}
		t.held = dec.Bool()
		t.holder = getPkt()
		if dec.Err() == nil && t.held && t.holder == nil {
			return dec.Fail("snapshot: held token has no holder")
		}
		t.seizures = dec.I64()
		t.transitCycles = dec.I64()
		t.holdCycles = dec.I64()
	}

	for _, rt := range n.routers {
		if err := rt.DecodeState(dec, resolve); err != nil {
			return err
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("snapshot: %d bytes of trailing garbage", dec.Remaining())
	}
	n.countersValid = false
	return nil
}

const (
	int32min = -1 << 31
	int32max = 1<<31 - 1
)

// readCycleVal decodes a sim.Cycle-valued field.
func readCycleVal(dec *snapshot.Reader) sim.Cycle { return sim.Cycle(dec.I64()) }

// sourceState assembles a traffic.SourceState from decoded fields.
func sourceState(rng [4]uint64, stopped, bursting bool, offered int64) traffic.SourceState {
	return traffic.SourceState{RNG: rng, Stopped: stopped, Bursting: bursting, Offered: offered}
}

// EncodeCounters serializes a Counters value field by field; exported so
// higher-level checkpoint formats (internal/harness) can embed counter
// snapshots without duplicating the field walk.
func EncodeCounters(enc *snapshot.Writer, c Counters) {
	enc.I64(int64(c.Cycles))
	enc.I64(c.PacketsOffered)
	enc.I64(c.PacketsRefused)
	enc.I64(c.PacketsInjected)
	enc.I64(c.PacketsDelivered)
	enc.I64(c.FlitsDelivered)
	enc.I64(c.PacketsKilled)
	enc.I64(c.TokenSeizures)
	enc.I64(c.Recoveries)
	enc.I64(c.TimeoutEvents)
	enc.I64(c.FalseDetections)
	enc.I64(c.MisrouteHops)
	enc.I64(c.Preemptions)
	enc.I64(c.BlockedCycles)
	enc.I64(c.TokenTransit)
	enc.I64(c.TokenHold)
	enc.I64(c.PacketsLost)
	enc.I64(c.FlitsLost)
	enc.I64(c.PacketsUnroutable)
}

// DecodeCounters reverses EncodeCounters.
func DecodeCounters(dec *snapshot.Reader) Counters {
	var c Counters
	c.Cycles = readCycleVal(dec)
	c.PacketsOffered = dec.I64()
	c.PacketsRefused = dec.I64()
	c.PacketsInjected = dec.I64()
	c.PacketsDelivered = dec.I64()
	c.FlitsDelivered = dec.I64()
	c.PacketsKilled = dec.I64()
	c.TokenSeizures = dec.I64()
	c.Recoveries = dec.I64()
	c.TimeoutEvents = dec.I64()
	c.FalseDetections = dec.I64()
	c.MisrouteHops = dec.I64()
	c.Preemptions = dec.I64()
	c.BlockedCycles = dec.I64()
	c.TokenTransit = dec.I64()
	c.TokenHold = dec.I64()
	c.PacketsLost = dec.I64()
	c.FlitsLost = dec.I64()
	c.PacketsUnroutable = dec.I64()
	return c
}

// encodeConfigGuard writes the identity of the configuration the snapshot
// was taken under. Restore validates every field against the receiving
// network so a snapshot can never be loaded into a structurally different
// simulation; the scan path is deliberately excluded because the
// reference scan is byte-identical to the optimized one.
func (n *Network) encodeConfigGuard(enc *snapshot.Writer) {
	c := &n.cfg
	enc.String(n.topo.Name())
	enc.Int(n.topo.Nodes())
	enc.Int(n.topo.Degree())
	enc.String(c.Algorithm.Name())
	enc.String(c.Selection.Name())
	enc.String(c.Pattern.Name())
	enc.Int(c.Router.VCs)
	enc.Int(c.Router.BufferDepth)
	enc.Int(c.Router.DeadlockBufferDepth)
	enc.Int(c.Router.InjectionVCs)
	enc.Int(c.Router.ReceptionChannels)
	enc.I64(int64(c.Router.Timeout))
	enc.Int(int(c.Router.Alloc))
	enc.Int(int(c.Router.Recovery))
	enc.Bool(c.Router.AdaptiveTimeout)
	enc.F64(c.LoadRate)
	enc.F64(c.InjectionProb)
	enc.Int(c.MsgLen)
	enc.U64(c.Seed)
	enc.Int(c.TokenHopsPerCycle)
	enc.Int(c.SourceQueueCap)
	enc.Int(c.InjectionThrottle)
	enc.F64(c.Burst.MeanBurst)
	enc.F64(c.Burst.MeanIdle)
}

// decodeConfigGuard validates the snapshot's configuration identity against
// this network's.
func (n *Network) decodeConfigGuard(dec *snapshot.Reader) error {
	c := &n.cfg
	dec.ExpectString(n.topo.Name(), "topology")
	dec.Expect(int64(n.topo.Nodes()), "node count")
	dec.Expect(int64(n.topo.Degree()), "degree")
	dec.ExpectString(c.Algorithm.Name(), "routing algorithm")
	dec.ExpectString(c.Selection.Name(), "selection function")
	dec.ExpectString(c.Pattern.Name(), "traffic pattern")
	dec.Expect(int64(c.Router.VCs), "VC count")
	dec.Expect(int64(c.Router.BufferDepth), "buffer depth")
	dec.Expect(int64(c.Router.DeadlockBufferDepth), "deadlock buffer depth")
	dec.Expect(int64(c.Router.InjectionVCs), "injection VCs")
	dec.Expect(int64(c.Router.ReceptionChannels), "reception channels")
	dec.Expect(int64(c.Router.Timeout), "timeout")
	dec.Expect(int64(c.Router.Alloc), "allocation policy")
	dec.Expect(int64(c.Router.Recovery), "recovery mode")
	if got := dec.Bool(); dec.Err() == nil && got != c.Router.AdaptiveTimeout {
		dec.Fail("snapshot: adaptive-timeout mismatch")
	}
	expectF64(dec, c.LoadRate, "load rate")
	expectF64(dec, c.InjectionProb, "injection probability")
	dec.Expect(int64(c.MsgLen), "message length")
	if got := dec.U64(); dec.Err() == nil && got != c.Seed {
		dec.Fail("snapshot: seed mismatch: snapshot has %#x, this configuration has %#x", got, c.Seed)
	}
	dec.Expect(int64(c.TokenHopsPerCycle), "token speed")
	dec.Expect(int64(c.SourceQueueCap), "source queue cap")
	dec.Expect(int64(c.InjectionThrottle), "injection throttle")
	expectF64(dec, c.Burst.MeanBurst, "burst mean length")
	expectF64(dec, c.Burst.MeanIdle, "burst mean idle")
	return dec.Err()
}

func expectF64(dec *snapshot.Reader, want float64, what string) {
	got := dec.F64()
	if dec.Err() == nil && got != want {
		dec.Fail("snapshot: %s mismatch: snapshot has %v, this configuration has %v", what, got, want)
	}
}

// collectPackets walks every place a live packet can be referenced from, in
// deterministic order, and returns each packet exactly once.
func (n *Network) collectPackets() []*packet.Packet {
	var out []*packet.Packet
	seen := make(map[*packet.Packet]bool)
	add := func(p *packet.Packet) {
		if p != nil && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for i := range n.nis {
		q := &n.nis[i]
		for j := q.qhead; j < len(q.queue); j++ {
			add(q.queue[j])
		}
		add(q.cur)
	}
	for _, r := range n.routers {
		for p := 0; p < r.InputPorts(); p++ {
			for v := 0; v < r.InputVCCount(p); v++ {
				add(r.InputOwner(p, v))
				for i := 0; i < r.InputOccupancy(p, v); i++ {
					add(r.InputFlitAt(p, v, i).Pkt)
				}
			}
		}
		for p := 0; p < n.topo.Degree(); p++ {
			for v := 0; v < n.cfg.Router.VCs; v++ {
				add(r.OutputOwner(p, v))
			}
		}
		for lane := 0; lane < r.DBLanes(); lane++ {
			add(r.DBLaneOwner(lane))
			for i := 0; i < r.DBLaneLen(lane); i++ {
				add(r.DBFlitAt(lane, i).Pkt)
			}
		}
	}
	if n.token != nil {
		add(n.token.holder)
	}
	return out
}

// encodePacket serializes every packet field. Any new Packet field that can
// influence a future cycle must be added here and in decodePacketTable.
func encodePacket(enc *snapshot.Writer, p *packet.Packet) {
	enc.I64(int64(p.ID))
	enc.I64(int64(p.Src))
	enc.I64(int64(p.Dst))
	enc.Int(p.Length)
	enc.I64(int64(p.CreatedAt))
	enc.I64(int64(p.InjectedAt))
	enc.I64(int64(p.DeliveredAt))
	enc.Int(p.Hops)
	enc.Int(p.Misroutes)
	enc.Int(p.DimReversals)
	enc.Bool(p.OnDeterministic)
	enc.U64(p.DatelineCrossed)
	enc.Int(p.LastDim)
	enc.Int(p.Retries)
	enc.Bool(p.OnDB)
	enc.Bool(p.TimedOut)
	enc.Bool(p.SeizedToken)
	enc.I64(int64(p.RecoveredAt))
	enc.Int(p.FlitsDelivered)
	enc.Bool(p.HeaderArrived)
}

// packetEncodedMin is a lower bound on one encoded packet's size, used to
// bound the table count against the remaining input.
const packetEncodedMin = 8*12 + 6

func decodePacketTable(dec *snapshot.Reader) (map[int64]*packet.Packet, error) {
	count := dec.Len(dec.Remaining() / packetEncodedMin)
	table := make(map[int64]*packet.Packet, count)
	for i := 0; i < count; i++ {
		p := &packet.Packet{}
		id := dec.I64()
		p.ID = packet.ID(id)
		p.Src = topology.Node(dec.I64())
		p.Dst = topology.Node(dec.I64())
		p.Length = dec.Int()
		p.CreatedAt = readCycleVal(dec)
		p.InjectedAt = readCycleVal(dec)
		p.DeliveredAt = readCycleVal(dec)
		p.Hops = dec.Int()
		p.Misroutes = dec.Int()
		p.DimReversals = dec.Int()
		p.OnDeterministic = dec.Bool()
		p.DatelineCrossed = dec.U64()
		p.LastDim = dec.Int()
		p.Retries = dec.Int()
		p.OnDB = dec.Bool()
		p.TimedOut = dec.Bool()
		p.SeizedToken = dec.Bool()
		p.RecoveredAt = readCycleVal(dec)
		p.FlitsDelivered = dec.Int()
		p.HeaderArrived = dec.Bool()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if p.Length < 1 {
			return nil, dec.Fail("snapshot: packet %d has length %d < 1", id, p.Length)
		}
		if _, dup := table[id]; dup {
			return nil, dec.Fail("snapshot: duplicate packet ID %d", id)
		}
		table[id] = p
	}
	return table, nil
}
