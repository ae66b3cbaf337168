// Command bench writes the machine-readable perf trajectories tracked
// across PRs (see EXPERIMENTS.md):
//
//   - the service suite times the streaming ingestion tier end to end
//     at several client counts -> BENCH_service.json
//   - the peos suite times the cryptographic path (Algorithm 1) both
//     in process and as the role-separated TCP cluster
//     -> BENCH_peos.json
//
// Select with -suite service|peos|all (default all). The SOLH
// aggregation kernel has no suite here: its trajectory is
// hash.count_support_ns_per_pair and ldp.aggregate_ns from
// `go run ./benchmark --trace 1`.
//
// Usage:
//
//	go run ./cmd/bench [-suite all] [-service-n 20000]
//	                   [-service-clients 1,2,4,8] [-service-out BENCH_service.json]
//	                   [-peos-n 400] [-peos-out BENCH_peos.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

func main() {
	suite := flag.String("suite", "all", "which suite to run: service, peos, or all")
	serviceN := flag.Int("service-n", 20000, "reports streamed per service-suite run")
	serviceClients := flag.String("service-clients", "1,2,4,8", "comma-separated client counts for the service suite")
	serviceEpochs := flag.Int("service-epochs", 1, "collection rounds to cut each service-suite run into")
	serviceBatch := flag.Int("service-batch", 512, "service-suite shuffle-batch size")
	serviceD := flag.Int("service-d", 64, "service-suite domain size")
	serviceOut := flag.String("service-out", "BENCH_service.json", "service-suite output JSON path")
	peosN := flag.Int("peos-n", 400, "peos-suite users per run")
	peosD := flag.Int("peos-d", 16, "peos-suite domain size")
	peosNR := flag.Int("peos-nr", 24, "peos-suite joint fake reports")
	peosKeyBits := flag.String("peos-keybits", "1024", "comma-separated DGK modulus bit sizes for the peos suite")
	peosRs := flag.String("peos-r", "2,3", "comma-separated shuffler counts for the peos suite")
	peosAnalyzers := flag.String("peos-analyzers", "1,2,4", "comma-separated analyzer shard counts for the peos scaling sweep")
	peosOut := flag.String("peos-out", "BENCH_peos.json", "peos-suite output JSON path")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected suites to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the suites) to this path")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	if *serviceN < 1 || *peosN < 1 {
		log.Fatal("-service-n and -peos-n must be >= 1")
	}
	runService := *suite == "all" || *suite == "service"
	runPeos := *suite == "all" || *suite == "peos"
	if !runService && !runPeos {
		log.Fatalf("unknown -suite %q (want service, peos, or all)", *suite)
	}

	if runPeos {
		rs, err := parseInts(*peosRs)
		if err != nil {
			log.Fatalf("bad -peos-r: %v", err)
		}
		keyBits, err := parseInts(*peosKeyBits)
		if err != nil {
			log.Fatalf("bad -peos-keybits: %v", err)
		}
		analyzerCounts, err := parseInts(*peosAnalyzers)
		if err != nil {
			log.Fatalf("bad -peos-analyzers: %v", err)
		}
		rep, err := runPEOSSuite(*peosN, *peosD, *peosNR, keyBits, rs, analyzerCounts)
		if err != nil {
			log.Fatal(err)
		}
		writeJSON(*peosOut, rep)
	}
	if runService {
		counts, err := parseInts(*serviceClients)
		if err != nil {
			log.Fatalf("bad -service-clients: %v", err)
		}
		rep, err := runServiceSuite(*serviceN, *serviceD, *serviceBatch, *serviceEpochs, counts)
		if err != nil {
			log.Fatal(err)
		}
		writeJSON(*serviceOut, rep)
	}
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("entry %q: %w", f, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("entry %q: must be >= 1", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

var sinkVal float64

// sink defeats dead-code elimination of the measured work.
func sink(est []float64) {
	if len(est) > 0 {
		sinkVal += est[0]
	}
}

func timeIt(fn func()) float64 {
	// Best of up to three runs; the deadline skips repeat runs once ~30s
	// have elapsed (it cannot shorten an in-flight run, so one very slow
	// variant still completes once).
	best := float64(0)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		ns := float64(time.Since(start).Nanoseconds())
		if best == 0 || ns < best {
			best = ns
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return best
}
