package main

import (
	"runtime"
	"sync"
	"time"
)

// On the 2-vCPU sandbox this benchmark was sized on, a freshly started
// process finds both vCPUs time-sliced onto one host CPU: one busy
// thread runs at full speed, two busy threads run at half speed each,
// and only after roughly half a second of sustained two-thread load
// does the host spread them out — after which the fast state sticks.
// A timed window that starts cold therefore measures the hypervisor's
// load balancer, and run-to-run spreads of 10–17% on reports_per_s
// were the result. primeCores removes that: it keeps every core busy
// until N threads run a fixed kernel about as fast as one thread does,
// or gives up after max and reports the efficiency it reached so the
// traced run can show what machine the numbers came from.

// spinSink defeats dead-code elimination of the calibration kernel.
var spinSink [64]uint64

// spinKernel is a fixed, allocation-free, cache-resident loop.
func spinKernel(iters int) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < iters; i++ {
		h ^= uint64(i)
		h *= 1099511628211
		h = h<<13 | h>>51
	}
	return h
}

// spinAll runs the kernel on threads goroutines at once and returns
// the wall time until the last one finished.
func spinAll(threads, iters int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spinSink[g%len(spinSink)] += spinKernel(iters)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// primeCores warms the machine for at most max and returns the
// parallel efficiency reached: one thread's kernel time over N
// threads' kernel time, 1.0 when every core runs at full speed.
func primeCores(max time.Duration) float64 {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		return 1
	}
	const probe = 2_000_000 // ~3 ms per probe at full speed
	deadline := time.Now().Add(max)
	for {
		one := spinAll(1, probe)
		all := spinAll(n, probe)
		eff := float64(one) / float64(all)
		if eff >= 0.85 || !time.Now().Before(deadline) {
			return eff
		}
		spinAll(n, 20*probe)
	}
}
