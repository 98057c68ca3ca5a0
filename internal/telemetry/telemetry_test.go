package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("disha_test_total", "A test counter.", Labels{{Key: "node", Value: "3"}})
	c.Add(41)
	c.Inc()
	r.GaugeFunc("disha_test_gauge", "A test gauge.", nil, func() float64 { return 2.5 })

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# HELP disha_test_total A test counter.\n" +
		"# TYPE disha_test_total counter\n" +
		"disha_test_total{node=\"3\"} 42\n" +
		"# HELP disha_test_gauge A test gauge.\n" +
		"# TYPE disha_test_gauge gauge\n" +
		"disha_test_gauge 2.5\n"
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistrySharedFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("disha_shared_total", "Shared.", Labels{{Key: "node", Value: "0"}})
	r.Counter("disha_shared_total", "Shared.", Labels{{Key: "node", Value: "1"}})
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "# TYPE disha_shared_total") != 1 {
		t.Fatalf("family header repeated:\n%s", buf.String())
	}
	if len(r.Names()) != 1 {
		t.Fatalf("Names() = %v, want one family", r.Names())
	}
}

func TestPublishSnapshot(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.CounterFunc("disha_live_total", "Live.", nil, func() int64 { return v })
	if r.Published() != nil {
		t.Fatal("Published before first Publish must be nil")
	}
	v = 7
	r.Publish()
	snap := r.Published()
	v = 8 // must not affect the published snapshot
	if !strings.Contains(string(snap), "disha_live_total 7") {
		t.Fatalf("snapshot does not hold published value:\n%s", snap)
	}
}

func TestNilMetricSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	c.Add(5)
	c.Inc()
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics must read zero")
	}
}

func TestSamplerRingWraps(t *testing.T) {
	s := NewSampler(10, 4)
	cur := 0.0
	ts := s.AddProbe(Probe{Name: "p", Fn: func() float64 { return cur }})
	for c := int64(0); c <= 70; c++ {
		if !s.Due(c) {
			continue
		}
		cur = float64(c)
		s.Sample(c)
	}
	if ts.Len() != 4 {
		t.Fatalf("Len = %d, want ring capacity 4", ts.Len())
	}
	cycles, values := ts.Points()
	wantCycles := []int64{40, 50, 60, 70}
	for i, c := range wantCycles {
		if cycles[i] != c || values[i] != float64(c) {
			t.Fatalf("point %d = (%d, %g), want (%d, %d)", i, cycles[i], values[i], c, c)
		}
	}
	ms := ts.MetricsSeries()
	if len(ms.Points) != 4 || ms.Points[0].X != 40 || ms.Points[0].Latency != 40 {
		t.Fatalf("MetricsSeries conversion wrong: %+v", ms.Points)
	}
}

func TestSamplerEmit(t *testing.T) {
	s := NewSampler(1, 8)
	s.AddProbe(Probe{Name: "q", Fn: func() float64 { return 3 }})
	var got []int64
	s.Emit = func(cycle int64, name string, _ Labels, v float64) {
		if name != "q" || v != 3 {
			t.Fatalf("emit (%s, %g)", name, v)
		}
		got = append(got, cycle)
	}
	s.Sample(5)
	s.Sample(6)
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("emitted cycles %v", got)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3, 100, 2)
	for c := int64(1); c <= 5; c++ {
		fr := f.BeginFrame(c)
		fr.Routers = append(fr.Routers, RouterFrame{Node: int32(c), Blocked: 1})
	}
	frames := f.Frames()
	if len(frames) != 3 {
		t.Fatalf("retained %d frames, want 3", len(frames))
	}
	for i, want := range []int64{3, 4, 5} {
		if frames[i].Cycle != want {
			t.Fatalf("frame %d cycle %d, want %d", i, frames[i].Cycle, want)
		}
	}
	// Frames must be deep copies: BeginFrame reuses the oldest slot's backing
	// array, which must not show through previously returned snapshots.
	fr := f.BeginFrame(6)
	fr.Routers = append(fr.Routers, RouterFrame{Node: 99})
	if frames[0].Routers[0].Node != 3 {
		t.Fatal("Frames aliases the live ring")
	}
}

func TestFlightRecorderThrottle(t *testing.T) {
	f := NewFlightRecorder(4, 100, 2)
	if !f.ShouldSnapshot(10) {
		t.Fatal("first snapshot must be allowed")
	}
	f.AddSnapshot(&Snapshot{Cycle: 10})
	if f.ShouldSnapshot(50) {
		t.Fatal("snapshot inside cooldown window allowed")
	}
	if !f.ShouldSnapshot(110) {
		t.Fatal("snapshot after cooldown refused")
	}
	f.AddSnapshot(&Snapshot{Cycle: 110})
	if f.ShouldSnapshot(500) {
		t.Fatal("snapshot beyond MaxSnapshots allowed")
	}
	if len(f.Snapshots()) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(f.Snapshots()))
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Meta(map[string]string{"alg": "disha"})
	w.Sample(100, "disha_blocked_headers", Labels{{Key: "node", Value: "2"}}, 4)
	w.Event(trace.Event{Cycle: 123, Kind: trace.Timeout, Node: 7, Pkt: 55})
	w.WriteSnapshot(&Snapshot{
		Cycle: 130, TriggerNode: 7, TriggerPkt: 55,
		Frames:       []Frame{{Cycle: 129, Routers: []RouterFrame{{Node: 7, Blocked: 2}}}},
		WFG:          []WFGNode{{Node: 7, Pkt: 55, WaitsOn: []int64{56}, Deadlocked: true}},
		TrueDeadlock: true,
	})
	w.WriteCounters(200, map[string]int64{"packets_delivered": 9})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	lines, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 {
		t.Fatalf("decoded %d lines, want 5", len(lines))
	}
	if lines[0].Type != "meta" || lines[0].Meta["alg"] != "disha" {
		t.Fatalf("meta line %+v", lines[0])
	}
	if l := lines[1]; l.Type != "sample" || l.Cycle != 100 || l.Name != "disha_blocked_headers" ||
		l.Labels["node"] != "2" || l.Value != 4 {
		t.Fatalf("sample line %+v", l)
	}
	if l := lines[2]; l.Type != "event" || l.Kind != "timeout" || l.Node != 7 || l.Pkt != 55 {
		t.Fatalf("event line %+v", l)
	}
	s := lines[3].Snapshot
	if s == nil || !s.TrueDeadlock || len(s.Frames) != 1 || len(s.WFG) != 1 || s.WFG[0].WaitsOn[0] != 56 {
		t.Fatalf("snapshot line %+v", lines[3])
	}
	if lines[4].Counters["packets_delivered"] != 9 {
		t.Fatalf("counters line %+v", lines[4])
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"type\":\"meta\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line not reported")
	}
}

func TestHubTrigger(t *testing.T) {
	h := NewHub(Options{})
	if _, _, ok := h.TakeTrigger(); ok {
		t.Fatal("fresh hub has a trigger")
	}
	h.Observe(trace.Event{Kind: trace.Inject, Node: 2, Pkt: 9}) // only timeouts arm it
	h.Observe(trace.Event{Kind: trace.Timeout, Node: 3, Pkt: 10})
	h.Observe(trace.Event{Kind: trace.Timeout, Node: 4, Pkt: 11}) // first presumption of the cycle wins
	node, pkt, ok := h.TakeTrigger()
	if !ok || node != 3 || pkt != 10 {
		t.Fatalf("trigger (%d, %d, %v)", node, pkt, ok)
	}
	if _, _, ok := h.TakeTrigger(); ok {
		t.Fatal("trigger not consumed")
	}
}

func TestOptionsDisable(t *testing.T) {
	h := NewHub(Options{SampleEvery: -1, FlightDepth: -1})
	if h.Sampler != nil || h.Recorder != nil {
		t.Fatal("negative options must disable sampler and recorder")
	}
	if NewHub(Options{}).Sampler == nil || NewHub(Options{}).Recorder == nil {
		t.Fatal("defaults must enable sampler and recorder")
	}
}
