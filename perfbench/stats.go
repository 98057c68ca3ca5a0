package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of the
// ascending slice sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples of the ascending slice sorted strictly greater
// than v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// minBeyond is how many samples a reported tail percentile must leave above
// it; fewer would make the tail one or two outliers.
const minBeyond = 10

// tailLadder is the set of tail percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least minBeyond samples of the ascending slice sorted strictly above its
// value, with that value. ok is false when no ladder percentile qualifies
// (fewer than about 2*minBeyond samples, or heavy ties).
func tailPercentile(sorted []float64) (q, v float64, ok bool) {
	for _, q := range tailLadder {
		v := percentile(sorted, q)
		if beyond(sorted, v) >= minBeyond {
			return q, v, true
		}
	}
	return 0, 0, false
}

// usage is one reading of the process's resource counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU of the whole process
	rssKB int64         // peak resident set so far, KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	u := usage{wall: time.Now()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.rssKB = int64(ru.Maxrss)
	}
	return u
}

// calibrationNS times a fixed pure-CPU loop (an xorshift chain with no memory
// traffic) and returns the median of five timings in nanoseconds. It moves
// with the host's single-core speed and nothing in this repository, so two
// results from different machines can be compared after scaling by it.
func calibrationNS() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		x := uint64(0x9e3779b97f4a7c15)
		t0 := time.Now()
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
		sink += x
	}
	return median(ts)
}

// sink keeps timed loops' results alive so the compiler cannot drop them.
var sink uint64

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// environment renders the host description printed with every result.
func environment() string {
	return fmt.Sprintf("env go=%s goos=%s goarch=%s cpu=%q nproc=%d gomaxprocs=%d calibration_ns=%.0f",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), calibrationNS())
}
