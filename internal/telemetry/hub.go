package telemetry

import "repro/internal/trace"

// Options configures a Hub. The zero value enables sampling every 100
// cycles with a 64-frame flight recorder and no JSONL output.
type Options struct {
	// SampleEvery is the gauge sampling period in cycles (default 100).
	// Negative disables sampling entirely.
	SampleEvery int
	// SeriesDepth is the per-probe time-series ring capacity (default 512).
	SeriesDepth int
	// FlightDepth is how many cycles of per-router frames the flight
	// recorder retains (default 64). Negative disables the recorder.
	FlightDepth int
	// SnapshotCooldown is the minimum number of cycles between two
	// flight-recorder dumps (default 500).
	SnapshotCooldown int64
	// MaxSnapshots bounds retained (and written) dumps per run (default 16).
	MaxSnapshots int
	// Writer, when set, streams samples, snapshots, episode spans and
	// packet events as JSON Lines.
	Writer *JSONLWriter
	// EpisodeDepth is how many closed recovery-episode spans the episode
	// tracker retains (default 256). Negative disables episode tracking.
	EpisodeDepth int
	// ProfileEvery enables the kernel phase profiler on every Nth cycle
	// (0 disables it). Profiling reads the wall clock but never simulation
	// state, so it cannot perturb results — only add overhead.
	ProfileEvery int
}

func (o *Options) normalize() {
	if o.SampleEvery == 0 {
		o.SampleEvery = 100
	}
	if o.SeriesDepth == 0 {
		o.SeriesDepth = 512
	}
	if o.FlightDepth == 0 {
		o.FlightDepth = 64
	}
	if o.SnapshotCooldown == 0 {
		o.SnapshotCooldown = 500
	}
	if o.MaxSnapshots == 0 {
		o.MaxSnapshots = 16
	}
	if o.EpisodeDepth == 0 {
		o.EpisodeDepth = 256
	}
}

// Hub bundles one simulation's telemetry: the metric registry, the cycle
// sampler (nil when disabled), the flight recorder (nil when disabled) and
// the optional JSONL writer. The network drives it once per cycle.
type Hub struct {
	Registry *Registry
	Sampler  *Sampler
	Recorder *FlightRecorder
	Writer   *JSONLWriter
	Episodes *EpisodeTracker

	// Pending snapshot trigger (set on deadlock presumption, consumed by
	// the network's telemetry tick at the end of the same cycle).
	trigArmed bool
	trigNode  int
	trigPkt   int64
}

// NewHub builds the telemetry bundle for one simulation.
func NewHub(o Options) *Hub {
	o.normalize()
	h := &Hub{Registry: NewRegistry(), Writer: o.Writer}
	if o.SampleEvery > 0 {
		h.Sampler = NewSampler(int64(o.SampleEvery), o.SeriesDepth)
		if o.Writer != nil {
			h.Sampler.Emit = o.Writer.Sample
		}
	}
	if o.FlightDepth > 0 {
		h.Recorder = NewFlightRecorder(o.FlightDepth, o.SnapshotCooldown, o.MaxSnapshots)
	}
	if o.EpisodeDepth > 0 {
		h.Episodes = NewEpisodeTracker(o.EpisodeDepth)
		h.Episodes.Register(h.Registry)
		h.Episodes.SetWriter(o.Writer)
	}
	return h
}

// Observe routes one packet event from the network to its consumers, in a
// fixed order: the JSONL "event" line (when a writer is attached), the
// flight recorder's snapshot trigger (a timeout arms it; the first
// presumption of a cycle wins) and the episode tracker, whose close writes
// the span line after the event line. Nil-safe.
func (h *Hub) Observe(e trace.Event) {
	if h == nil {
		return
	}
	if h.Writer != nil {
		h.Writer.Event(e)
	}
	if e.Kind == trace.Timeout && !h.trigArmed {
		h.trigArmed = true
		h.trigNode = int(e.Node)
		h.trigPkt = int64(e.Pkt)
	}
	h.Episodes.Observe(e)
}

// TakeTrigger consumes the pending snapshot trigger, if any.
func (h *Hub) TakeTrigger() (node int, pkt int64, ok bool) {
	if !h.trigArmed {
		return 0, 0, false
	}
	h.trigArmed = false
	return h.trigNode, h.trigPkt, true
}
