package main

import "testing"

// TestCheckSizes pins the sizing-flag validation: a zero VC count, buffer
// depth, message length or reception-channel count, or negative cycles, is
// an error rather than a silent substitution.
func TestCheckSizes(t *testing.T) {
	for _, tc := range []struct {
		name                           string
		vcs, depth, msgLen, rx, cycles int
		ok                             bool
	}{
		{"defaults", 4, 2, 32, 1, 10000, true},
		{"minimums", 1, 1, 1, 1, 0, true},
		{"zero-vcs", 0, 2, 32, 1, 10000, false},
		{"zero-depth", 4, 0, 32, 1, 10000, false},
		{"zero-msglen", 4, 2, 0, 1, 10000, false},
		{"zero-rx", 4, 2, 32, 0, 10000, false},
		{"negative-vcs", -1, 2, 32, 1, 10000, false},
		{"negative-cycles", 4, 2, 32, 1, -5, false},
	} {
		err := checkSizes(tc.vcs, tc.depth, tc.msgLen, tc.rx, tc.cycles)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkSizes error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
