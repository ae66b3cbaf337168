package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
)

// Fixed workload parameters shared by every workload: the paper's
// running local budget and a Zipf skew between the IPUMS (1.1) and AOL
// (1.05) stand-ins.
const (
	epsLocal = 3.0
	zipfS    = 1.1
)

// kind selects the driver a workload runs under.
type kind int

const (
	kindService kind = iota
	kindCluster
	kindInproc
)

// workload is one fixed input shape. The zero value of every tuning
// knob of the program under test (Workers, DecryptWorkers, ChunkWords,
// QueueDepth, BatchSize, client batch size) is implied: no workload
// names one, so the numbers are what the defaults give and a change
// that removes a knob needs no benchmark edit.
type workload struct {
	name string
	kind kind
	// oracle is "SOLH" or "GRR"; dPrime only matters for SOLH.
	oracle    string
	d, dPrime int
	// n is the number of user reports per repetition.
	n int
	// r, nr and keyBits are the PEOS shuffler count, joint fake-report
	// count and DGK modulus width.
	r, nr, keyBits int
	// durable turns the WAL on (DataDir set, default fsync=batch) and
	// cuts the stream into epochs of epochReports reports.
	durable      bool
	epochReports int
	// queryHz, when > 0, runs the open-loop query ticker beside ingest.
	queryHz int
}

// workloads is the benchmark's workload table; BENCHMARK.json names
// the same five and says why each exists.
var workloads = []workload{
	{name: "svc_wire_d64", kind: kindService, oracle: "SOLH", d: 64, dPrime: 16, n: 2_000_000},
	{name: "svc_agg_kosarak", kind: kindService, oracle: "SOLH", d: 42178, dPrime: 111, n: 20_000},
	{name: "svc_durable_query_d1024", kind: kindService, oracle: "SOLH", d: 1024, dPrime: 64, n: 500_000,
		durable: true, epochReports: 50_000, queryHz: 100},
	{name: "peos_cluster_r3", kind: kindCluster, oracle: "SOLH", d: 1024, dPrime: 16, n: 3000, r: 3, nr: 150, keyBits: 1024},
	{name: "peos_inproc_r2", kind: kindInproc, oracle: "GRR", d: 64, n: 4000, r: 2, nr: 200, keyBits: 1024},
}

// findWorkload looks a workload up by name, scaled down when smoke is
// set: n ÷ 100 and the 512-bit key fixture, so all five finish in
// seconds (the shape stays, the numbers mean nothing).
func findWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if smoke {
			w.n /= 100
			if w.epochReports > 0 {
				w.epochReports /= 100
			}
			if w.nr > 0 {
				w.nr = max(w.nr/100, 1)
			}
			if w.keyBits > 0 {
				w.keyBits = 512
			}
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fo builds the workload's frequency oracle.
func (w workload) fo() ldp.FrequencyOracle {
	if w.oracle == "GRR" {
		return ldp.NewGRR(w.d, epsLocal)
	}
	return ldp.NewSOLH(w.d, w.dPrime, epsLocal)
}

// values synthesizes the workload's dataset from the run seed: the
// same seed always yields the same users.
func (w workload) values(seed uint64) []int {
	return dataset.Synthetic(w.name, w.n, w.d, zipfS, seed).Values
}

// rep is what one repetition measured. Phases partition wallS exactly
// (consecutive readings of one clock); counts holds the program's own
// counters and by-products, keyed as the per-layer metrics name them.
type rep struct {
	traced bool
	// coreEff is the parallel efficiency primeCores reached just before
	// this repetition (1.0: every core at full speed).
	coreEff float64
	setupS  float64
	wallS   float64
	cpuS    float64
	// peakRSSMB is the resident-set high-water mark of this repetition
	// alone, set-up included (see resetPeakRSS).
	peakRSSMB float64
	phases    map[string]float64
	// wireBytes is every byte that crossed a listener the workload owns
	// (for peos_inproc_r2, the transport.Meter total). edgeBytes is the
	// part a change can be held to: all of it for the service; for PEOS
	// only what users send and the analyzer receives, because the
	// shuffler-mesh volume depends on EOS's coin flips (each round the
	// encrypted column lands on a random hider, and a hop that keeps
	// its holder sends no ciphertexts).
	wireBytes, edgeBytes int64
	mseRatio             float64
	estimates            []float64
	// failed counts reports that were sent but are not in the estimate,
	// plus retried rounds and client reconnects.
	failed int64
	// gateErr is a failed per-repetition correctness gate.
	gateErr error

	allocs    uint64
	gcPauseNS uint64

	counts map[string]float64
	// queryMS and queryLagMS are the open-loop query samples: latency
	// from each query's due time, and how late the generator issued it.
	queryMS, queryLagMS []float64
	// backlogAtClose is Received − Reports in the first snapshot after
	// the last client closed.
	backlogAtClose float64
}

// newRep starts a repetition's record. It first returns freed heap to
// the OS and restarts the peak-RSS mark, so every repetition begins
// from the same memory state and reports its own peak.
func newRep(tr *tracer) *rep {
	resetPeakRSS()
	return &rep{traced: tr != nil, phases: map[string]float64{}, counts: map[string]float64{}}
}

// window snapshots the process counters as a timed window opens.
type window struct {
	cpuS    float64
	mallocs uint64
	pauseNS uint64
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{cpuS: cpuSeconds(), mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs}
}

// close records what the process spent between open and now: CPU,
// allocations, GC pauses, and the repetition's peak RSS.
func (win window) close(r *rep) {
	now := openWindow()
	r.cpuS, r.peakRSSMB = now.cpuS-win.cpuS, peakRSSMB()
	r.allocs, r.gcPauseNS = now.mallocs-win.mallocs, now.pauseNS-win.pauseNS
}

// scratchDir names a fresh, not yet existing directory under the
// benchmark's out/ for one repetition's WAL (store.Create makes it);
// the benchmark writes nowhere outside its checkout. Each repetition
// removes its own as it ends: on the sandbox's disk, leaving finished
// WALs to the page cache's writeback made the next repetitions' fsyncs
// stall for seconds.
func scratchDir(outDir string, rep int) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(outDir, fmt.Sprintf("tmp-%d-%d-%d", os.Getpid(), rep, time.Now().UnixNano())), nil
}

// mseRatio is the empirical MSE of est against the true frequencies
// over the analytic expectation — 1.0 means the estimator delivers
// exactly the utility the paper's variance formula promises.
func mseRatio(fo ldp.FrequencyOracle, truth, est []float64, n int) float64 {
	return ldp.MSE(truth, est) / ldp.ExpectedMSE(fo, n)
}
