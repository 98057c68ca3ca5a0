package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one sweep point share its point key.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`   // layer.operation
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil through the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer). A span given
// no key inherits its parent's, so every span of one point carries the
// point's key.
func (t *tracer) begin(parent int, name, key string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if key == "" && parent != 0 {
		key = t.spans[parent-1].Key
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// named returns a copy of every closed span with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each layer's self time in nanoseconds: for every closed
// span, its duration minus the part of it covered by its children (children
// running concurrently count once), summed by the layer prefix of the span
// name.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write stores the spans as JSON Lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimeReport renders the layers' self times, largest first.
func selfTimeReport(self map[string]int64) string {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var sb strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&sb, "self_time %-10s %10.3f ms\n", l, float64(self[l])/1e6)
	}
	return sb.String()
}
