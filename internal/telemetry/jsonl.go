package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/trace"
)

// Line is the decoded superset of every JSONL record type the simulator
// emits. Type discriminates: "meta", "sample", "event", "snapshot",
// "counters", "span". Producers write type-specific subsets; consumers
// (the disha-trace CLI, tests) decode into this struct.
type Line struct {
	Type  string `json:"type"`
	Cycle int64  `json:"cycle,omitempty"`

	// meta: free-form run description (topology, algorithm, seed, ...).
	Meta map[string]string `json:"meta,omitempty"`

	// sample: one sampled probe value.
	Name   string            `json:"name,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`

	// event: one packet event (kind is the trace.Kind string form).
	Kind string `json:"kind,omitempty"`
	Node int    `json:"node,omitempty"`
	Pkt  int64  `json:"pkt,omitempty"`

	// snapshot: one flight-recorder dump.
	Snapshot *Snapshot `json:"snapshot,omitempty"`

	// span: one closed recovery-episode span.
	Span *EpisodeSpan `json:"span,omitempty"`

	// counters: end-of-run network totals.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// JSONLWriter streams telemetry records as JSON Lines. All methods must be
// called from a single goroutine (the simulation loop); Flush before reading
// the underlying writer.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLWriter wraps w in a buffered JSONL encoder.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

func (w *JSONLWriter) write(v any) {
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(v)
}

// Meta writes the run-description header line.
func (w *JSONLWriter) Meta(meta map[string]string) {
	w.write(Line{Type: "meta", Meta: meta})
}

// Sample writes one sampled probe value.
func (w *JSONLWriter) Sample(cycle int64, name string, labels Labels, value float64) {
	w.write(Line{Type: "sample", Cycle: cycle, Name: name, Labels: labels.Map(), Value: value})
}

// Event writes one packet event.
func (w *JSONLWriter) Event(e trace.Event) {
	w.write(Line{Type: "event", Cycle: int64(e.Cycle), Kind: e.Kind.String(), Node: int(e.Node), Pkt: int64(e.Pkt)})
}

// WriteSnapshot writes one flight-recorder dump.
func (w *JSONLWriter) WriteSnapshot(s *Snapshot) {
	w.write(Line{Type: "snapshot", Cycle: s.Cycle, Snapshot: s})
}

// WriteSpan writes one closed recovery-episode span.
func (w *JSONLWriter) WriteSpan(s *EpisodeSpan) {
	w.write(Line{Type: "span", Cycle: s.End, Span: s})
}

// WriteCounters writes end-of-run totals.
func (w *JSONLWriter) WriteCounters(cycle int64, counters map[string]int64) {
	w.write(Line{Type: "counters", Cycle: cycle, Counters: counters})
}

// Flush drains the buffer and returns the first error encountered by any
// prior write.
func (w *JSONLWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// ReadJSONL decodes every line of a JSONL stream, reporting the first
// malformed line by number.
func ReadJSONL(r io.Reader) ([]Line, error) {
	var out []Line
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // snapshots can be large lines
	lineno := 0
	for sc.Scan() {
		lineno++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l Line
		if err := json.Unmarshal(raw, &l); err != nil {
			return out, fmt.Errorf("telemetry: line %d: %w", lineno, err)
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}
