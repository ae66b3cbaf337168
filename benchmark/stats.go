package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"syscall"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// mean averages xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of the median, with the quartiles cut the way
// Python's statistics.quantiles(xs, n=4) cuts them (the exclusive
// method) — the spread the benchmark contract is judged by.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(cut(3)-cut(1)) / math.Abs(med)
}

// minMax returns the extremes of xs (0, 0 when empty).
func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's high-water resident set in MB
// (ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// high-water mark at the current resident set (Linux: writing 5 to
// /proc/self/clear_refs), so the next peakRSSMB is one repetition's own
// peak rather than the maximum over everything the process ever did.
// The maximum of a dozen repetitions is an extreme-value statistic —
// it spread 18% run to run on the PEOS workloads, where the heap's
// high-water mark follows GC timing — while the median of per-
// repetition peaks is steady. Where the reset is refused the mark keeps
// accumulating and every repetition reports the running maximum.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}
