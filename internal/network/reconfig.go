package network

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file implements dynamic reconfiguration: mid-run topology mutations
// (kill/heal links and routers, swap the routing function) applied between
// cycles under a DBR-style protocol (arXiv 1211.5747). The protocol quiesces
// only the resources a mutation touches: packets whose flits would be lost
// on the removed resource are dropped and accounted, surviving packets
// holding a now-stale route are returned to the unrouted state and re-route
// next cycle, and anything the post-change routing function can no longer
// make progress for times out and escapes through the Deadlock Buffer lane —
// the network is never drained. Every mutation runs in the prelude of
// Step (before the clock ticks), so no phase ever sees a half-applied
// mutation, and every applied mutation is
// recorded in the reconfiguration log so snapshots can replay the topology's
// history on restore.

// ReconfigKind enumerates the dynamic reconfiguration event types.
type ReconfigKind int

const (
	// ReconfigKillLink severs the bidirectional link (Node, Port) mid-run,
	// dropping any packet with flits committed to the link.
	ReconfigKillLink ReconfigKind = iota
	// ReconfigHealLink restores a link previously killed (or failed via
	// FailLink) with clean virtual channels on both ends.
	ReconfigHealLink
	// ReconfigKillRouter removes router Node entirely: its buffered packets,
	// its source queue, and every packet in the network addressed to it are
	// dropped, and all its links go down.
	ReconfigKillRouter
	// ReconfigHealRouter revives a killed router, reconnecting every link
	// whose far endpoint is alive and not individually failed.
	ReconfigHealRouter
	// ReconfigSwapAlgorithm swaps the routing function (by Name) on every
	// router; granted routes finish under the old function.
	ReconfigSwapAlgorithm
)

var reconfigKindNames = [...]string{"kill-link", "heal-link", "kill-router", "heal-router", "swap-algorithm"}

// String returns the kind's schedule-file name (e.g. "kill-link").
func (k ReconfigKind) String() string {
	if k >= 0 && int(k) < len(reconfigKindNames) {
		return reconfigKindNames[k]
	}
	return fmt.Sprintf("ReconfigKind(%d)", int(k))
}

// ParseReconfigKind maps a kind's string form (as used in chaos schedule
// files and snapshots) back to the ReconfigKind, reporting whether the name
// is known.
func ParseReconfigKind(s string) (ReconfigKind, bool) {
	for i, name := range reconfigKindNames {
		if name == s {
			return ReconfigKind(i), true
		}
	}
	return 0, false
}

// ReconfigEvent is one scheduled topology or routing mutation. Node/Port
// identify the target link or router (Port is ignored for router and swap
// events); Alg names the routing function for swap events (routing.ByName).
type ReconfigEvent struct {
	// Cycle is when the event applies: in the prelude of the Step executed
	// with the clock standing at Cycle, i.e. before the tick that produces
	// Cycle+1. A checkpoint written at Cycle therefore captures the state
	// just before the event — re-arming the same schedule after a restore
	// replays it exactly.
	Cycle sim.Cycle
	Kind  ReconfigKind
	Node  topology.Node
	Port  int
	Alg   string
}

// String renders the event compactly, e.g. "@200 kill-link node=14 port=2".
func (e ReconfigEvent) String() string {
	switch e.Kind {
	case ReconfigSwapAlgorithm:
		return fmt.Sprintf("@%d %s %s", e.Cycle, e.Kind, e.Alg)
	case ReconfigKillRouter, ReconfigHealRouter:
		return fmt.Sprintf("@%d %s node=%d", e.Cycle, e.Kind, e.Node)
	default:
		return fmt.Sprintf("@%d %s node=%d port=%d", e.Cycle, e.Kind, e.Node, e.Port)
	}
}

// ReconfigOutcome records one attempted reconfiguration event: whether it
// applied (scheduled events that fail validation — e.g. a kill that would
// disconnect the network — are skipped with a reason, not fatal), and the
// packet/flit loss it caused. Applied outcomes are replayed by snapshot
// restore to reconstruct the topology's history.
type ReconfigOutcome struct {
	ReconfigEvent
	Applied bool
	// Reason explains a skipped event; empty when Applied.
	Reason string
	// PacketsLost / FlitsLost count in-flight packets (and their buffered
	// flits) this event dropped; PacketsUnroutable counts packets dropped
	// before injection because the event made their destination unreachable.
	PacketsLost       int64
	FlitsLost         int64
	PacketsUnroutable int64
}

// String renders the outcome: the event plus either its loss tally or the
// reason it was skipped.
func (o ReconfigOutcome) String() string {
	if !o.Applied {
		return fmt.Sprintf("%s SKIPPED (%s)", o.ReconfigEvent, o.Reason)
	}
	return fmt.Sprintf("%s lost=%d flits=%d unroutable=%d", o.ReconfigEvent, o.PacketsLost, o.FlitsLost, o.PacketsUnroutable)
}

// ScheduleReconfig arms a schedule of reconfiguration events, replacing any
// previously armed schedule. Events must be sorted by non-decreasing Cycle;
// events whose Cycle has already passed are silently dropped (after a
// snapshot restore they are already reflected in the restored state, via the
// reconfiguration log). Scheduled events apply inside Step — an armed but
// empty (or fully consumed) schedule costs one integer compare per cycle,
// and no schedule at all costs the same, so runs without chaos are
// bit-identical to builds that predate this subsystem.
func (n *Network) ScheduleReconfig(events []ReconfigEvent) error {
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			return fmt.Errorf("network: reconfiguration schedule not sorted: event %d at cycle %d follows cycle %d",
				i, events[i].Cycle, events[i-1].Cycle)
		}
	}
	now := n.clock.Now()
	sched := make([]ReconfigEvent, 0, len(events))
	for _, ev := range events {
		if ev.Cycle < now {
			continue
		}
		sched = append(sched, ev)
	}
	n.sched, n.schedNext = sched, 0
	return nil
}

// PendingReconfigs returns how many armed scheduled events have not yet
// applied.
func (n *Network) PendingReconfigs() int { return len(n.sched) - n.schedNext }

// ReconfigCount returns the number of reconfiguration log entries without
// copying the log; pollers call it every cycle and fetch ReconfigLog only
// when it grows.
func (n *Network) ReconfigCount() int { return len(n.reconfigLog) }

// ReconfigLog returns a copy of every reconfiguration outcome so far, in
// application order: scheduled events (applied or skipped) and successful
// manual KillLink/HealLink/KillRouter/HealRouter/SwapAlgorithm/FailLink
// calls.
func (n *Network) ReconfigLog() []ReconfigOutcome {
	return append([]ReconfigOutcome(nil), n.reconfigLog...)
}

// CurrentAlgorithm returns the routing function currently installed (the
// configured one until a swap event replaces it).
func (n *Network) CurrentAlgorithm() routing.Algorithm { return n.curAlg }

// DeadRouters returns how many routers are currently killed.
func (n *Network) DeadRouters() int { return n.deadCount }

// RouterDead reports whether the given router is currently killed.
func (n *Network) RouterDead(node topology.Node) bool {
	return n.deadCount != 0 && n.routerDead[node]
}

// RecoveryBacklog sums recovery-resource occupancy across all routers:
// presumed counts input VCs holding a presumed-deadlocked header, busy
// counts Deadlock Buffer lane flits, lane ownerships and DB-granted input
// VCs. presumed == 0 && busy == 0 is the chaos runner's "reconverged"
// condition after a reconfiguration event.
func (n *Network) RecoveryBacklog() (presumed, busy int) {
	for _, r := range n.routers {
		p, b := r.RecoveryBusy()
		presumed += p
		busy += b
	}
	return presumed, busy
}

// KillLink severs the bidirectional link between node and its neighbor on
// port immediately (at the current cycle), under the reconfiguration
// protocol: packets with flits committed to the link are dropped and
// counted, survivors aimed at it are un-routed to re-route next cycle, and
// the Deadlock Buffer next-hop table is rebuilt over the remaining links.
func (n *Network) KillLink(node topology.Node, port int) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigKillLink, Node: node, Port: port})
}

// HealLink restores a previously killed (or FailLink-failed) link with
// clean virtual channels on both ends; routing resumes over it next cycle.
func (n *Network) HealLink(node topology.Node, port int) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigHealLink, Node: node, Port: port})
}

// KillRouter removes a router mid-run: every packet buffered there, queued
// at its source, or addressed to it anywhere in the network is dropped and
// counted, and all its links go down. The live remainder must stay
// connected.
func (n *Network) KillRouter(node topology.Node) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigKillRouter, Node: node})
}

// HealRouter revives a killed router, reconnecting each of its links whose
// far endpoint is alive and not individually failed. Its source resumes
// generating traffic next cycle.
func (n *Network) HealRouter(node topology.Node) error {
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigHealRouter, Node: node})
}

// SwapAlgorithm swaps the routing function on every router. Packets already
// holding a granted route finish their hop under the old function; any
// packet the new function cannot make progress for times out and escapes
// through the Deadlock Buffer lane (the DBR argument for reconfiguring
// routing under load).
func (n *Network) SwapAlgorithm(alg routing.Algorithm) error {
	if alg == nil {
		return fmt.Errorf("network: nil algorithm")
	}
	return n.applyNow(ReconfigEvent{Cycle: n.clock.Now(), Kind: ReconfigSwapAlgorithm, Alg: alg.Name()})
}

// applyNow executes a manual (API-initiated) event: validation failures
// return an error and leave no trace; successes are recorded in the
// reconfiguration log for snapshot replay.
func (n *Network) applyNow(ev ReconfigEvent) error {
	before := n.counters
	reason := n.applyMutation(ev)
	if reason != "" {
		return fmt.Errorf("network: %s", reason)
	}
	n.logOutcome(ev, "", before)
	return nil
}

// applyScheduled applies every armed event due at the current cycle, in
// order. Unlike the manual path, scheduled events that fail validation are
// recorded as skipped rather than aborting the run: a chaos campaign's
// schedule is generated against a model of the topology and an occasional
// infeasible event (e.g. a kill that would disconnect) is part of the
// deterministic timeline, not an error.
func (n *Network) applyScheduled() {
	now := n.clock.Now()
	for n.schedNext < len(n.sched) && n.sched[n.schedNext].Cycle <= now {
		ev := n.sched[n.schedNext]
		n.schedNext++
		before := n.counters
		reason := n.applyMutation(ev)
		n.logOutcome(ev, reason, before)
	}
}

func (n *Network) logOutcome(ev ReconfigEvent, reason string, before Counters) {
	n.reconfigLog = append(n.reconfigLog, ReconfigOutcome{
		ReconfigEvent:     ev,
		Applied:           reason == "",
		Reason:            reason,
		PacketsLost:       n.counters.PacketsLost - before.PacketsLost,
		FlitsLost:         n.counters.FlitsLost - before.FlitsLost,
		PacketsUnroutable: n.counters.PacketsUnroutable - before.PacketsUnroutable,
	})
	n.countersValid = false
}

// applyMutation dispatches one event, returning "" on success or the reason
// it could not apply. Called only between cycles (Step prelude).
func (n *Network) applyMutation(ev ReconfigEvent) string {
	switch ev.Kind {
	case ReconfigKillLink:
		return n.applyKillLink(ev.Node, ev.Port)
	case ReconfigHealLink:
		return n.applyHealLink(ev.Node, ev.Port)
	case ReconfigKillRouter:
		return n.applyKillRouter(ev.Node)
	case ReconfigHealRouter:
		return n.applyHealRouter(ev.Node)
	case ReconfigSwapAlgorithm:
		return n.applySwapAlgorithm(ev.Alg)
	default:
		return fmt.Sprintf("unknown reconfiguration kind %d", int(ev.Kind))
	}
}

// reversePort returns the input port at the neighbor reached over (node,
// port). Network construction validated that every link in the topology has
// a paired reverse channel, so this cannot fail for an existing link; it
// returns -1 for a port with no neighbor.
func (n *Network) reversePort(node topology.Node, port int) int {
	rev, ok := n.topo.ReversePortAt(node, port)
	if !ok {
		return -1
	}
	return rev
}

// linkKey canonicalizes a link's (node, port) so both directions map to one
// identity: the smaller endpoint's side wins (smaller port for a radix-2
// wraparound link joining a node to itself).
func (n *Network) linkKey(node topology.Node, port int) [2]int {
	nb, ok := n.topo.Neighbor(node, port)
	if !ok {
		return [2]int{int(node), port}
	}
	rev := n.reversePort(node, port)
	if int(nb) < int(node) || (nb == node && rev < port) {
		return [2]int{int(nb), rev}
	}
	return [2]int{int(node), port}
}

func (n *Network) applyKillLink(node topology.Node, port int) string {
	if n.cfg.Router.Recovery == router.RecoveryConcurrent {
		return "reconfiguration is not supported with concurrent recovery (its Hamiltonian lanes assume an intact path)"
	}
	if int(node) < 0 || int(node) >= len(n.routers) || port < 0 || port >= n.topo.Degree() {
		return fmt.Sprintf("no such link %d/%d", node, port)
	}
	if n.RouterDead(node) {
		return fmt.Sprintf("router %d is dead; its links are already down", node)
	}
	a := n.routers[node]
	b := a.Neighbor(port)
	if b == nil {
		return fmt.Sprintf("link %d/%d does not exist (or already failed)", node, port)
	}
	rev := n.reversePort(node, port)
	// Probe connectivity with the link removed before committing to anything.
	a.Disconnect(port)
	b.Disconnect(rev)
	ok := n.liveConnectedExcluding(-1)
	a.Connect(port, b)
	b.Connect(rev, a)
	if !ok {
		return fmt.Sprintf("failing link %d/%d would disconnect the network", node, port)
	}
	victims := a.LinkVictims(port, n.victimScratch[:0])
	victims = b.LinkVictims(rev, victims)
	n.dropVictims(victims)
	a.ReleaseGrants(port)
	b.ReleaseGrants(rev)
	a.Disconnect(port)
	b.Disconnect(rev)
	a.ResetOutputPort(port)
	b.ResetOutputPort(rev)
	n.linkDown[n.linkKey(node, port)] = true
	n.failedLinks++
	n.afterTopologyChange()
	return ""
}

func (n *Network) applyHealLink(node topology.Node, port int) string {
	if int(node) < 0 || int(node) >= len(n.routers) || port < 0 || port >= n.topo.Degree() {
		return fmt.Sprintf("no such link %d/%d", node, port)
	}
	nb, ok := n.topo.Neighbor(node, port)
	if !ok {
		return fmt.Sprintf("no such link %d/%d", node, port)
	}
	key := n.linkKey(node, port)
	if !n.linkDown[key] {
		return fmt.Sprintf("link %d/%d is not failed", node, port)
	}
	if n.RouterDead(node) || n.RouterDead(nb) {
		return fmt.Sprintf("an endpoint of link %d/%d is dead; heal the router instead", node, port)
	}
	a, b := n.routers[node], n.routers[nb]
	rev := n.reversePort(node, port)
	a.Connect(port, b)
	b.Connect(rev, a)
	// The kill already reset both ends; reset again so a heal is clean even
	// after a snapshot restore replayed only the wiring.
	a.ResetOutputPort(port)
	b.ResetOutputPort(rev)
	delete(n.linkDown, key)
	n.failedLinks--
	n.afterTopologyChange()
	return ""
}

func (n *Network) applyKillRouter(node topology.Node) string {
	if n.cfg.Router.Recovery == router.RecoveryConcurrent {
		return "reconfiguration is not supported with concurrent recovery (its Hamiltonian lanes assume an intact path)"
	}
	if int(node) < 0 || int(node) >= len(n.routers) {
		return fmt.Sprintf("no such router %d", node)
	}
	if n.routerDead[node] {
		return fmt.Sprintf("router %d is already dead", node)
	}
	if !n.liveConnectedExcluding(int(node)) {
		return fmt.Sprintf("killing router %d would disconnect (or empty) the live network", node)
	}
	d := n.routers[node]
	// Three victim classes: packets buffered at the dying router, packets
	// waiting (or streaming) at its source, and packets anywhere in the
	// network addressed to it — none can ever be delivered.
	victims := d.LocalPackets(n.victimScratch[:0])
	q := &n.nis[node]
	if q.cur != nil {
		victims = append(victims, q.cur)
	}
	for i := q.qhead; i < len(q.queue); i++ {
		victims = append(victims, q.queue[i])
	}
	for _, p := range n.collectPackets() {
		if p.Dst == node {
			victims = append(victims, p)
		}
	}
	n.dropVictims(victims)
	for p := 0; p < n.topo.Degree(); p++ {
		nb := d.Neighbor(p)
		if nb == nil {
			continue
		}
		rev := n.reversePort(node, p)
		// Surviving packets at the neighbor still aimed into the dying router
		// re-route next cycle.
		nb.ReleaseGrants(rev)
		d.Disconnect(p)
		nb.Disconnect(rev)
		d.ResetOutputPort(p)
		nb.ResetOutputPort(rev)
	}
	n.routerDead[node] = true
	n.deadCount++
	n.afterTopologyChange()
	return ""
}

func (n *Network) applyHealRouter(node topology.Node) string {
	if int(node) < 0 || int(node) >= len(n.routers) {
		return fmt.Sprintf("no such router %d", node)
	}
	if !n.routerDead[node] {
		return fmt.Sprintf("router %d is not dead", node)
	}
	// The healed router must rejoin the (connected) live component through at
	// least one restorable link, or it would come back isolated.
	restorable := 0
	for p := 0; p < n.topo.Degree(); p++ {
		nb, ok := n.topo.Neighbor(node, p)
		if !ok || n.routerDead[nb] {
			continue
		}
		if n.linkDown[n.linkKey(node, p)] {
			continue
		}
		restorable++
	}
	if restorable == 0 {
		return fmt.Sprintf("healing router %d would leave it isolated (every link is down or leads to a dead router)", node)
	}
	n.routerDead[node] = false
	n.deadCount--
	d := n.routers[node]
	for p := 0; p < n.topo.Degree(); p++ {
		nb, ok := n.topo.Neighbor(node, p)
		if !ok || n.routerDead[nb] || n.linkDown[n.linkKey(node, p)] {
			continue
		}
		b := n.routers[nb]
		rev := n.reversePort(node, p)
		d.Connect(p, b)
		b.Connect(rev, d)
		d.ResetOutputPort(p)
		b.ResetOutputPort(rev)
	}
	n.afterTopologyChange()
	return ""
}

func (n *Network) applySwapAlgorithm(name string) string {
	alg, err := routing.ByName(name)
	if err != nil {
		return err.Error()
	}
	if need := alg.MinVCs(n.topo); n.cfg.Router.VCs < need {
		return fmt.Sprintf("%s needs >= %d VCs on %s, have %d", alg.Name(), need, n.topo.Name(), n.cfg.Router.VCs)
	}
	n.curAlg = alg
	for _, r := range n.routers {
		r.SetAlgorithm(alg)
	}
	return ""
}

// afterTopologyChange rebuilds the Deadlock Buffer next-hop table over the
// surviving links and refreshes every lane whose header is still at the
// lane head (frozen chains keep their established route; if one crossed the
// removed resource its packet was already dropped as a victim).
func (n *Network) afterTopologyChange() {
	n.rebuildDBTable()
	for _, r := range n.routers {
		r.RefreshDBRoutes()
	}
}

// dropVictims drops each distinct packet in victims (the list may contain
// duplicates — a packet can be a victim at both endpoints of a link) and
// returns the scratch buffers to their pools.
func (n *Network) dropVictims(victims []*packet.Packet) {
	if n.seenScratch == nil {
		n.seenScratch = make(map[*packet.Packet]bool)
	}
	seen := n.seenScratch
	for _, p := range victims {
		if seen[p] {
			continue
		}
		seen[p] = true
		n.dropPacket(p)
	}
	for p := range seen {
		delete(seen, p)
	}
	for i := range victims {
		victims[i] = nil
	}
	n.victimScratch = victims[:0]
}

// dropPacket removes every trace of p from the network — input VCs, output
// ownership, Deadlock Buffer lanes, its source queue and injection stream,
// and the recovery Token if p holds it — and accounts the loss: an injected
// packet counts as PacketsLost with its discarded flits in FlitsLost; a
// packet dropped before injection (queued for a destination that just died)
// counts as PacketsUnroutable. Unlike abort-retry kills, dropped packets are
// not retransmitted, and partial delivery is tolerated: a packet whose head
// already reached its destination simply never delivers its tail.
func (n *Network) dropPacket(p *packet.Packet) {
	flits := 0
	for _, r := range n.routers {
		flits += r.PurgePacket(p)
		flits += r.PurgeDB(p)
	}
	q := &n.nis[p.Src]
	if q.cur == p {
		q.cur, q.seq = nil, 0
	}
	q.remove(p)
	if n.token != nil {
		n.token.Drop(p)
	}
	if p.InjectedAt >= 0 {
		n.outstanding[p.Src]--
		n.counters.PacketsLost++
		n.counters.FlitsLost += int64(flits)
	} else {
		n.counters.PacketsUnroutable++
	}
	n.emit(trace.Drop, p.Src, p)
}

// replayOutcome re-applies one logged reconfiguration event's topology-side
// effects during snapshot restore: wiring, link/router liveness flags and
// the routing function. Victim drops, channel resets and counter updates are
// NOT repeated — the decoded state already reflects them. It reports whether
// the event changed the topology (the caller rebuilds the DB next-hop table
// once, after the whole log).
func (n *Network) replayOutcome(o ReconfigOutcome) (topoChanged bool, err error) {
	n.reconfigLog = append(n.reconfigLog, o)
	if !o.Applied {
		return false, nil
	}
	switch o.Kind {
	case ReconfigKillLink:
		if int(o.Node) < 0 || int(o.Node) >= len(n.routers) || o.Port < 0 || o.Port >= n.topo.Degree() {
			return false, fmt.Errorf("no such link")
		}
		a := n.routers[o.Node]
		b := a.Neighbor(o.Port)
		if b == nil {
			return false, fmt.Errorf("link already down")
		}
		a.Disconnect(o.Port)
		b.Disconnect(n.reversePort(o.Node, o.Port))
		n.linkDown[n.linkKey(o.Node, o.Port)] = true
		n.failedLinks++
		return true, nil
	case ReconfigHealLink:
		if int(o.Node) < 0 || int(o.Node) >= len(n.routers) || o.Port < 0 || o.Port >= n.topo.Degree() {
			return false, fmt.Errorf("no such link")
		}
		nb, ok := n.topo.Neighbor(o.Node, o.Port)
		if !ok {
			return false, fmt.Errorf("no such link")
		}
		key := n.linkKey(o.Node, o.Port)
		if !n.linkDown[key] {
			return false, fmt.Errorf("link was not down")
		}
		n.routers[o.Node].Connect(o.Port, n.routers[nb])
		n.routers[nb].Connect(n.reversePort(o.Node, o.Port), n.routers[o.Node])
		delete(n.linkDown, key)
		n.failedLinks--
		return true, nil
	case ReconfigKillRouter:
		if int(o.Node) < 0 || int(o.Node) >= len(n.routers) {
			return false, fmt.Errorf("no such router")
		}
		if n.routerDead[o.Node] {
			return false, fmt.Errorf("router already dead")
		}
		d := n.routers[o.Node]
		for p := 0; p < n.topo.Degree(); p++ {
			if nb := d.Neighbor(p); nb != nil {
				d.Disconnect(p)
				nb.Disconnect(n.reversePort(o.Node, p))
			}
		}
		n.routerDead[o.Node] = true
		n.deadCount++
		return true, nil
	case ReconfigHealRouter:
		if int(o.Node) < 0 || int(o.Node) >= len(n.routers) || !n.routerDead[o.Node] {
			return false, fmt.Errorf("router was not dead")
		}
		n.routerDead[o.Node] = false
		n.deadCount--
		d := n.routers[o.Node]
		for p := 0; p < n.topo.Degree(); p++ {
			nb, ok := n.topo.Neighbor(o.Node, p)
			if !ok || n.routerDead[nb] || n.linkDown[n.linkKey(o.Node, p)] {
				continue
			}
			d.Connect(p, n.routers[nb])
			n.routers[nb].Connect(n.reversePort(o.Node, p), d)
		}
		return true, nil
	case ReconfigSwapAlgorithm:
		alg, err := routing.ByName(o.Alg)
		if err != nil {
			return false, err
		}
		n.curAlg = alg
		for _, r := range n.routers {
			r.SetAlgorithm(alg)
		}
		return false, nil
	default:
		return false, fmt.Errorf("unknown kind %d", int(o.Kind))
	}
}

// liveConnectedExcluding checks that every live router (dead routers and,
// when exclude >= 0, the router about to die are not counted) is reachable
// from any other over live links. Links are killed in pairs, so the live
// graph is symmetric and one BFS suffices. An empty live set is reported as
// disconnected: killing the last router is rejected.
func (n *Network) liveConnectedExcluding(exclude int) bool {
	alive, start := 0, -1
	for i := range n.routers {
		if i == exclude || (n.deadCount != 0 && n.routerDead[i]) {
			continue
		}
		alive++
		if start < 0 {
			start = i
		}
	}
	if alive == 0 {
		return false
	}
	seen := make([]bool, len(n.routers))
	queue := []topology.Node{topology.Node(start)}
	seen[start] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		r := n.routers[cur]
		for p := 0; p < n.topo.Degree(); p++ {
			nb := r.Neighbor(p)
			if nb == nil || int(nb.NodeID()) == exclude || seen[nb.NodeID()] {
				continue
			}
			seen[nb.NodeID()] = true
			count++
			queue = append(queue, nb.NodeID())
		}
	}
	return count == alive
}
