package network

import (
	"fmt"
	"time"

	"repro/internal/router"
)

// KernelConfig tunes the intra-simulation parallel kernel: how Step's
// router-local phases (routing/switch staging and deadlock-timer updates)
// fan out across worker goroutines. The sharded kernel is byte-identical to
// the serial one — same counters, same per-router microstate, cycle by cycle
// — because only router-local phases run concurrently and every cross-router
// effect (DB write-port arbitration, transfer commit, injection, delivery,
// Token movement, observers) is applied serially in fixed router order. The
// golden-digest suite enforces this contract.
type KernelConfig struct {
	// Shards is the number of contiguous router shards the stage and timer
	// phases are split into; shard 0 runs on the stepping goroutine and the
	// rest on a persistent worker pool. 0 and 1 both mean serial execution
	// (no pool). Values above the node count are clamped. Negative values
	// are a configuration error.
	Shards int
	// ReferenceScan runs the router-local phases through the retained
	// reference scan path (router.StageRoutingRef and friends — the faithful
	// port of the pre-SoA per-slot walks) instead of the optimized
	// struct-of-arrays scans. The two paths make identical decisions in
	// identical order, so this knob is digest-invariant like the others and
	// may differ freely between a snapshot and its restore; it exists as the
	// baseline for the differential conformance suite and the benchgate
	// speed gates.
	ReferenceScan bool
}

func (k *KernelConfig) normalize(nodes int) error {
	if k.Shards < 0 {
		return fmt.Errorf("network: negative kernel shards %d", k.Shards)
	}
	if k.Shards > nodes {
		k.Shards = nodes
	}
	return nil
}

// kernel is the worker pool executing one phase across router shards. The
// pool is allocation-free per cycle: the per-shard task closures are built
// once at construction, workers are persistent goroutines, and dispatch
// moves prebuilt func values over two channels.
type kernel struct {
	shards   int
	stageFns []func()
	timerFns []func()
	tasks    chan func()
	done     chan struct{}
	panics   chan any
	closed   bool
}

// shardBounds splits nodes into count contiguous ranges as evenly as
// possible; bounds[i] is the half-open router range [lo, hi) of shard i.
// Contiguity matters: concatenating per-shard results in shard order must
// reproduce the global fixed router order the serial kernel uses.
func shardBounds(nodes, count int) [][2]int {
	bounds := make([][2]int, count)
	base, rem := nodes/count, nodes%count
	lo := 0
	for i := range bounds {
		hi := lo + base
		if i < rem {
			hi++
		}
		bounds[i] = [2]int{lo, hi}
		lo = hi
	}
	return bounds
}

// newKernel builds the worker pool for n with the given shard count (>= 2).
func newKernel(n *Network, shards int) *kernel {
	k := &kernel{
		shards:   shards,
		stageFns: make([]func(), shards),
		timerFns: make([]func(), shards),
		tasks:    make(chan func(), shards-1),
		done:     make(chan struct{}, shards-1),
		panics:   make(chan any, shards),
	}
	bounds := shardBounds(len(n.routers), shards)
	n.stageBufs = make([][]router.Transfer, shards)
	for i := range bounds {
		lo, hi, shard := bounds[i][0], bounds[i][1], i
		k.stageFns[i] = func() { n.stageShard(lo, hi, shard) }
		k.timerFns[i] = func() { n.timerShard(lo, hi) }
	}
	for w := 0; w < shards-1; w++ {
		go k.worker()
	}
	return k
}

func (k *kernel) worker() {
	for fn := range k.tasks {
		if err := guard(fn); err != nil {
			select {
			case k.panics <- err:
			default:
			}
		}
		k.done <- struct{}{}
	}
}

// guard runs fn, converting a panic into a returned value so the pool can
// re-raise it on the stepping goroutine instead of crashing a worker.
func guard(fn func()) (err any) {
	defer func() { err = recover() }()
	fn()
	return nil
}

// run executes one phase: shards 1..n-1 are dispatched to the pool, shard 0
// runs on the calling goroutine, and the call returns only after every shard
// finished (a full barrier). A panic in any shard is re-raised here.
func (k *kernel) run(fns []func()) {
	for i := 1; i < k.shards; i++ {
		k.tasks <- fns[i]
	}
	err := guard(fns[0])
	for i := 1; i < k.shards; i++ {
		<-k.done
	}
	if err == nil {
		select {
		case err = <-k.panics:
		default:
		}
	}
	if err != nil {
		panic(err)
	}
}

// close stops the worker goroutines. Idempotent.
func (k *kernel) close() {
	if k == nil || k.closed {
		return
	}
	k.closed = true
	close(k.tasks)
}

// stageShard runs the fused route-compute + switch-allocation phase for the
// routers in [lo, hi), staging transfers into the shard's reusable buffer.
// Both stages mutate only the owning router's state and read neighbor
// Deadlock Buffer state that is start-of-cycle stable, so disjoint shards
// run concurrently without synchronization; Deadlock-Buffer admissions are
// staged optimistically and settled afterwards by Reservations.Resolve in
// shard (== router) order.
func (n *Network) stageShard(lo, hi, shard int) {
	buf := n.stageBufs[shard][:0]
	// On profiled cycles each router's two stages are timed separately into
	// the shard's private accumulator slots; the kernel barrier's channel
	// handoff orders those writes before the stepping goroutine's
	// flushStage read, so no synchronization is needed. The wall-clock
	// reads never touch simulation state (digest-invariant).
	if p := n.prof; p != nil && p.active {
		var routeNS, switchNS int64
		for _, r := range n.routers[lo:hi] {
			s0 := time.Now()
			n.stageRoute(r)
			s1 := time.Now()
			buf = n.stageSwitch(r, buf)
			routeNS += s1.Sub(s0).Nanoseconds()
			switchNS += time.Since(s1).Nanoseconds()
		}
		p.shardRoute[shard], p.shardSwitch[shard] = routeNS, switchNS
		n.stageBufs[shard] = buf
		return
	}
	for _, r := range n.routers[lo:hi] {
		n.stageRoute(r)
		buf = n.stageSwitch(r, buf)
	}
	n.stageBufs[shard] = buf
}

// stageRoute, stageSwitch and tickTimers dispatch one router's scan phases
// to the optimized SoA path or, under KernelConfig.ReferenceScan, to the
// retained reference path. The branch is per router per phase — noise next
// to the scan itself — and keeps every caller (serial loop, shard worker,
// profiled variants) on one dispatch point.
func (n *Network) stageRoute(r *router.Router) {
	if n.refScan {
		r.StageRoutingRef()
		return
	}
	r.StageRouting()
}

func (n *Network) stageSwitch(r *router.Router, buf []router.Transfer) []router.Transfer {
	if n.refScan {
		return r.StageSwitchRef(buf)
	}
	return r.StageSwitch(buf)
}

func (n *Network) tickTimers(r *router.Router) {
	if n.refScan {
		r.TickTimersRef()
		return
	}
	r.TickTimers()
}

// timerShard runs the deadlock-timer phase for the routers in [lo, hi).
// Timeout observers are buffered per router and flushed serially afterwards.
func (n *Network) timerShard(lo, hi int) {
	for _, r := range n.routers[lo:hi] {
		n.tickTimers(r)
	}
}
