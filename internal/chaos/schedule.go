// Package chaos generates, loads and executes reconfiguration campaigns:
// seeded random schedules of link/router kill and heal events (plus routing
// swaps) applied to a live network mid-run through the dynamic
// reconfiguration subsystem (internal/network/reconfig.go). Campaigns are
// deterministic — a (seed, schedule) pair reproduces the identical run
// byte-for-byte, on either kernel scan path — and
// the runner measures, per event, the packets lost, the recovery latency
// (cycles until no header remains presumed deadlocked) and the time to
// reconverge (cycles until the Deadlock Buffer lane has fully drained). See
// CHAOS.md for the protocol and the replay workflow.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Event is one schedule entry in the JSON event-schedule file format.
// Kind is a network.ReconfigKind string: "kill-link", "heal-link",
// "kill-router", "heal-router" or "swap-algorithm". Node/Port locate the
// target (Port is meaningless for router events); Alg names the routing
// function for swaps (routing.ByName).
type Event struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	Node  int    `json:"node,omitempty"`
	Port  int    `json:"port,omitempty"`
	Alg   string `json:"alg,omitempty"`
}

// Schedule is a chaos campaign: an ordered list of reconfiguration events,
// plus the generator seed when Generate produced it (0 for hand-written
// schedules). The JSON form is the on-disk event-schedule file format
// accepted by disha-sim -chaos-script, disha-bisect -chaos-script and
// disha-sweep -chaos.
type Schedule struct {
	Name   string  `json:"name,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Validate checks the schedule is well-formed: known kinds, non-negative
// cycles and fields, events sorted by non-decreasing cycle.
func (s *Schedule) Validate() error {
	for i, ev := range s.Events {
		if _, ok := network.ParseReconfigKind(ev.Kind); !ok {
			return fmt.Errorf("chaos: event %d: unknown kind %q", i, ev.Kind)
		}
		if ev.Cycle < 0 {
			return fmt.Errorf("chaos: event %d: negative cycle %d", i, ev.Cycle)
		}
		if ev.Node < 0 || ev.Port < 0 {
			return fmt.Errorf("chaos: event %d: negative node or port", i)
		}
		if i > 0 && ev.Cycle < s.Events[i-1].Cycle {
			return fmt.Errorf("chaos: event %d at cycle %d follows cycle %d; schedules must be sorted",
				i, ev.Cycle, s.Events[i-1].Cycle)
		}
	}
	return nil
}

// Reconfig lowers the schedule to the network's event representation,
// validating it first.
func (s *Schedule) Reconfig() ([]network.ReconfigEvent, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := make([]network.ReconfigEvent, len(s.Events))
	for i, ev := range s.Events {
		kind, _ := network.ParseReconfigKind(ev.Kind)
		out[i] = network.ReconfigEvent{
			Cycle: sim.Cycle(ev.Cycle),
			Kind:  kind,
			Node:  topology.Node(ev.Node),
			Port:  ev.Port,
			Alg:   ev.Alg,
		}
	}
	return out, nil
}

// Parse decodes a JSON schedule and validates it.
func Parse(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: parse schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a JSON schedule file.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: read schedule: %w", err)
	}
	return Parse(data)
}

// Save writes the schedule as indented JSON.
func (s *Schedule) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
