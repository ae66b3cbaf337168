package service

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/store"
)

// TestIngestWorkCountsGolden is the work count of the ingest path
// (ROADMAP item 16), one golden per benchmark service shape at two
// sizes, the larger ending on a partial frame and a partial run. One
// session client at the default batch streams n reports into New's
// pipeline at GOMAXPROCS 2, and the counts must be exactly:
//
//   - ⌈n/DefaultClientBatch⌉ AEAD opens, one per frame;
//   - ⌈n/DefaultBatchSize⌉ batches and, with the WAL on under
//     SyncBatch, as many WAL commits — one fsync per run, the final
//     partial one cut by Drain included — and none without it;
//   - at most 0.001 heap allocations per report past the warm-up, for
//     the whole process: nothing per frame or run once the run free
//     list has grown;
//   - GOMAXPROCS goroutines started by New: the fold workers, and no
//     batch stage beside them.
func TestIngestWorkCountsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		procs = 2
		// The warm-up streams as many runs as can be in flight at once —
		// the queue's, one in each worker's hand, the reader's and the
		// batcher's — so the run free list has grown to its high-water
		// mark before the count starts. It is rounded up to whole
		// frames: a warm-up ending mid-frame flushes a short frame, one
		// open more than the count's ⌈n/DefaultClientBatch⌉.
		inFlight = ((queuedBatchesPerWorker+1)*procs + 2) * DefaultBatchSize
		warm     = (inFlight + DefaultClientBatch - 1) / DefaultClientBatch * DefaultClientBatch
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var opens, commits atomic.Int64
	defer func(open func(*ecies.Session, []byte, []byte) ([]byte, error), commit func(*store.Store) error) {
		openFrame, commitWAL = open, commit
	}(openFrame, commitWAL)
	openFrame = func(sess *ecies.Session, dst, frame []byte) ([]byte, error) {
		opens.Add(1)
		return sess.Open(dst, frame)
	}
	commitWAL = func(st *store.Store) error {
		commits.Add(1)
		return st.Commit()
	}
	key, err := ecies.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		d, dPrime int
		durable   bool
		sizes     [2]int
	}{
		{64, 16, false, [2]int{51_200, 102_437}},
		{1024, 64, true, [2]int{25_600, 51_237}},
		{42178, 111, false, [2]int{20_480, 40_997}},
	} {
		for _, n := range tc.sizes {
			opens.Store(0)
			commits.Store(0)
			cfg := Config{FO: ldp.NewSOLH(tc.d, tc.dPrime, 3), Key: key}
			if tc.durable {
				cfg.DataDir, cfg.Sync = t.TempDir(), store.SyncBatch
			}
			before := settledGoroutines()
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			started := runtime.NumGoroutine() - before
			cl := pipeClient(t, s, 0)
			push := func(from, to int) {
				for i := from; i < to; i++ {
					if err := cl.SendReport(ldp.Report{Seed: uint32(i) * 2654435761, Value: i % tc.dPrime}); err != nil {
						t.Fatal(err)
					}
				}
				if err := cl.Flush(); err != nil {
					t.Fatal(err)
				}
				waitCounter(t, "Received", s.received.Load, int64(to))
			}
			push(0, warm)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			push(warm, n)
			runtime.ReadMemStats(&m1)
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			snap, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			perReport := float64(m1.Mallocs-m0.Mallocs) / float64(n-warm)
			frames := int64((n + DefaultClientBatch - 1) / DefaultClientBatch)
			runs := int64((n + DefaultBatchSize - 1) / DefaultBatchSize)
			wantCommits := int64(0)
			if tc.durable {
				wantCommits = runs
			}
			t.Logf("SOLH(%d, %d) × %d: %d opens, %d batches, %d commits, %.5f allocations per report, %d goroutines",
				tc.d, tc.dPrime, n, opens.Load(), snap.Batches, commits.Load(), perReport, started)
			if snap.Reports != n || opens.Load() != frames || snap.Batches != runs || commits.Load() != wantCommits {
				t.Fatalf("SOLH(%d, %d) × %d: %d reports, %d opens, %d batches, %d commits; want %d, %d, %d, %d",
					tc.d, tc.dPrime, n, snap.Reports, opens.Load(), snap.Batches, commits.Load(), n, frames, runs, wantCommits)
			}
			if perReport > 0.001 {
				t.Fatalf("SOLH(%d, %d) × %d: %.5f heap allocations per report, want <= 0.001", tc.d, tc.dPrime, n, perReport)
			}
			if started != procs {
				t.Fatalf("SOLH(%d, %d): New started %d goroutines, want GOMAXPROCS = %d", tc.d, tc.dPrime, started, procs)
			}
		}
	}
}

// settledGoroutines waits until the goroutine count has held still for
// 20 ms — goroutines an earlier test or case left winding down have
// exited — and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		now := runtime.NumGoroutine()
		if now == n {
			break
		}
		n = now
	}
	return n
}
