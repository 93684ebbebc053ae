package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// sample is one reported number: its value, unit and how many measurements
// (blocks, rounds, cells) stand behind it. Deterministic counts carry the
// number of operations they were computed over.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the p90 of xs when at least ten samples lie beyond it, and
// otherwise the highest order statistic that still has ten samples above it
// (the choosing-metrics rule). With so few samples that this would fall below
// the median it is the median.
func tail(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	idx := int(math.Ceil(0.9*float64(n))) - 1
	if n-1-idx < 10 {
		idx = n - 11
	}
	if idx < n/2 {
		return median(xs)
	}
	return s[idx]
}

// upperDecile is the order statistic of xs with a tenth of the samples
// (rounded down) above it — the largest when there are fewer than ten — and
// lowerDecile the one with a tenth below it. They serve twice.
//
// Over the samples of one block, upperDecile is the block's p90. (A block
// holds too few samples for tail's ten-beyond rule; the run reports the quiet
// decile of its blocks' p90s, which rests on all of them.)
//
// Over a run's blocks they are the quiet decile: what the best tenth of the
// blocks reach, upperDecile for a rate and lowerDecile for a time.
// Interference on a shared machine only ever slows the program down, and it
// comes in spells of seconds to minutes (README, "Reading past the machine"):
// the median over a run's blocks moves with the share of the run a spell
// covered, the quiet decile only once nine tenths of it are covered.
func upperDecile(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	return s[n-1-n/10]
}

func lowerDecile(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/10]
}

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssMiB is this process's resident set now: VmRSS from /proc/self/status. A
// run samples it at the end of every block and reports as peak_rss_mib the
// upper decile of the samples — the resident set a tenth of the blocks
// exceed. The kernel's own high-water mark (VmHWM, ru_maxrss) is the maximum
// of a run: one collection that starts late lifts it by a fifth for a few
// milliseconds, in about every other 28 s run of graph_check (11.4 against
// 14.2 MiB), and ru_maxrss moreover carries the `go run` parent's 22 MiB across
// exec. It is only the fallback where /proc is missing (KiB on Linux). On
// sweep_fabric this is the coordinator; the workers' memory is that of
// sweep_standard's process.
func rssMiB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var self syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail with a valid who
	return float64(self.Maxrss) / 1024
}
