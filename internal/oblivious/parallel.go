package oblivious

// Worker-pool layer for the per-element hot loops (DESIGN.md §14).
// The shuffle's one ciphertext pass — depart's fold and refresh — and
// the server's decrypt phase (RevealParallel) fan out over fanOut()
// goroutines in contiguous, order-preserving chunks. Determinism is
// preserved by construction: every draw from the deterministic Source
// happens on the party's engine goroutine in serial element order,
// outside any worker, so the only randomness inside a worker is
// crypto/rand (rerandomizer nonces), which never reaches a plaintext or
// an estimate — the share plaintexts, and therefore the estimates, are
// bit-identical at every width for a fixed seed.

import (
	"runtime"
	"sync"
)

// fanOut is the one fan-out rule of the PEOS tier: the per-element
// passes run GOMAXPROCS wide (parFor caps the width at the element
// count). GOMAXPROCS=1 is the serial override.
func fanOut() int { return runtime.GOMAXPROCS(0) }

// parFor splits [0, n) into at most `workers` contiguous chunks and
// runs fn(w, lo, hi) on one goroutine per chunk. workers <= 1 (or a
// chunk count of 1) runs fn inline on the caller's goroutine, so the
// serial path pays no goroutine or scheduling overhead. fn must touch
// only its own [lo, hi) window; the first error (lowest worker index)
// wins.
func parFor(n, workers int, fn func(w, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, 0, n)
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
