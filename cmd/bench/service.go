package main

// The service throughput suite: the streaming ingestion tier
// (internal/service) measured end to end over net.Pipe connections at
// several client counts, written as BENCH_service.json. The workload
// matches BenchmarkServiceThroughput (root bench_test.go) so the JSON
// trajectory and `go test -bench` agree on what is being measured.

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
)

// persistenceCase measures the durable tier's cost: the same workload
// with the write-ahead log off and at each fsync policy, so the JSON
// records exactly what durability buys and what it charges.
type persistenceCase struct {
	// Mode is "off" (no WAL) or the fsync policy ("none", "batch",
	// "always").
	Mode          string  `json:"mode"`
	GoMaxProcs    int     `json:"go_max_procs"`
	ReportsPerSec float64 `json:"reports_per_sec"`
	NsPerReport   float64 `json:"ns_per_report"`
	// SlowdownVsOff is the throughput ratio off/this-mode (1.0 = free).
	SlowdownVsOff float64 `json:"slowdown_vs_off"`
}

type serviceCase struct {
	Clients       int     `json:"clients"`
	GoMaxProcs    int     `json:"go_max_procs"`
	ReportsPerSec float64 `json:"reports_per_sec"`
	NsPerReport   float64 `json:"ns_per_report"`
	// SpeedupVs1 is throughput relative to the single-connection run.
	SpeedupVs1 float64 `json:"speedup_vs_1_client"`
}

type serviceBenchReport struct {
	Benchmark   string `json:"benchmark"`
	GeneratedBy string `json:"generated_by"`
	GoMaxProcs  int    `json:"go_max_procs"`
	Oracle      string `json:"oracle"`
	N           int    `json:"n"`
	D           int    `json:"d"`
	DPrime      int    `json:"d_prime"`
	BatchSize   int    `json:"batch_size"`
	// Epochs is how many collection rounds the stream was cut into
	// (1 = the one-shot pipeline; more exercises epoch rotation and
	// sealing on the hot path).
	Epochs int           `json:"epochs"`
	Note   string        `json:"note,omitempty"`
	Cases  []serviceCase `json:"cases"`
	// Persistence is the durability on/off comparison, measured at the
	// first client count.
	Persistence []persistenceCase `json:"persistence"`
}

// runServiceSuite streams n pre-randomized SOLH reports through a
// fresh service per (clients) case and records wall-clock throughput
// from first submission to drained histogram. epochs > 1 auto-rotates
// the stream into that many collection rounds, so rotation and epoch
// sealing are part of the measured path.
func runServiceSuite(n, d, batch, epochs int, clientCounts []int) (serviceBenchReport, error) {
	const dPrime, eps = 16, 3
	fo := ldp.NewSOLH(d, dPrime, eps)
	key, err := ecies.GenerateKey()
	if err != nil {
		return serviceBenchReport{}, err
	}
	values := make([]int, n)
	for i := range values {
		values[i] = i % d
	}
	reports := ldp.RandomizeParallel(fo, values, 1, 0)

	if epochs < 1 {
		epochs = 1
	}
	rep := serviceBenchReport{
		Benchmark:   "ServiceThroughput",
		GeneratedBy: "cmd/bench",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Oracle:      fo.Name(),
		N:           n,
		D:           d,
		DPrime:      dPrime,
		BatchSize:   batch,
		Epochs:      epochs,
	}
	if rep.GoMaxProcs == 1 {
		rep.Note = "single-CPU runner: client encryption and the worker pool " +
			"share one core, so throughput is flat across client counts"
	}
	for _, clients := range clientCounts {
		ns, err := timeServiceRun(fo, key, reports, clients, batch, epochs, "off")
		if err != nil {
			return serviceBenchReport{}, err
		}
		c := serviceCase{
			Clients:       clients,
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			ReportsPerSec: float64(n) / (ns / 1e9),
			NsPerReport:   ns / float64(n),
		}
		if len(rep.Cases) > 0 {
			c.SpeedupVs1 = c.ReportsPerSec / rep.Cases[0].ReportsPerSec
		} else {
			c.SpeedupVs1 = 1
		}
		rep.Cases = append(rep.Cases, c)
		fmt.Printf("service: clients=%-3d %10.0f reports/s  %8.0f ns/report  (%.2fx vs 1 client)\n",
			c.Clients, c.ReportsPerSec, c.NsPerReport, c.SpeedupVs1)
	}

	// The persistence delta: one client count, WAL off vs every fsync
	// policy — the price of crash recovery under each durability level.
	for _, mode := range []string{"off", "none", "batch", "always"} {
		ns, err := timeServiceRun(fo, key, reports, clientCounts[0], batch, epochs, mode)
		if err != nil {
			return serviceBenchReport{}, err
		}
		pc := persistenceCase{
			Mode:          mode,
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			ReportsPerSec: float64(n) / (ns / 1e9),
			NsPerReport:   ns / float64(n),
		}
		if len(rep.Persistence) > 0 {
			pc.SlowdownVsOff = rep.Persistence[0].ReportsPerSec / pc.ReportsPerSec
		} else {
			pc.SlowdownVsOff = 1
		}
		rep.Persistence = append(rep.Persistence, pc)
		fmt.Printf("service: persist=%-7s %10.0f reports/s  %8.0f ns/report  (%.2fx slower than off)\n",
			pc.Mode, pc.ReportsPerSec, pc.NsPerReport, pc.SlowdownVsOff)
	}
	return rep, nil
}

func timeServiceRun(fo ldp.FrequencyOracle, key *ecies.PrivateKey, reports []ldp.Report, clients, batch, epochs int, persist string) (float64, error) {
	epochReports := 0
	if epochs > 1 {
		epochReports = (len(reports) + epochs - 1) / epochs
	}
	best := 0.0
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; attempt < 3; attempt++ {
		cfg := service.Config{
			FO: fo, Key: key, BatchSize: batch, ShuffleSeed: uint64(attempt + 2),
			EpochReports: epochReports,
		}
		if persist != "off" {
			// A fresh data directory per attempt: New refuses to reuse
			// one, exactly so a benchmark cannot shadow real state.
			dir, err := os.MkdirTemp("", "shuffledp-bench-wal-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			cfg.DataDir = dir
			if cfg.Sync, err = store.ParseSyncPolicy(persist); err != nil {
				return 0, err
			}
		}
		svc, err := service.New(cfg)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		errc := make(chan error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			clientSide, serverSide := net.Pipe()
			if err := svc.Ingest(serverSide); err != nil {
				return 0, err
			}
			cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
			if err != nil {
				return 0, err
			}
			wg.Add(1)
			go func(c int, cl *service.Client) {
				defer wg.Done()
				// Close on every exit path so a send error cannot leave a
				// reader open and hang Drain.
				defer clientSide.Close()
				for j := c; j < len(reports); j += clients {
					if err := cl.SendReport(reports[j]); err != nil {
						errc <- err
						return
					}
				}
				errc <- cl.Close()
			}(c, cl)
		}
		snap, err := svc.Drain()
		if err != nil {
			return 0, err
		}
		ns := float64(time.Since(start).Nanoseconds())
		wg.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				return 0, err
			}
		}
		if snap.Reports != len(reports) {
			return 0, fmt.Errorf("service run aggregated %d reports, want %d", snap.Reports, len(reports))
		}
		if best == 0 || ns < best {
			best = ns
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return best, nil
}
