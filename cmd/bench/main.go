// Command bench writes the machine-readable perf trajectories tracked
// across PRs (see EXPERIMENTS.md):
//
//   - the aggregate suite times the SOLH aggregation engine against the
//     seed revision's sequential baseline -> BENCH_aggregate.json
//   - the service suite times the streaming ingestion tier end to end
//     at several client counts -> BENCH_service.json
//   - the peos suite times the cryptographic path (Algorithm 1) both
//     in process and as the role-separated TCP cluster
//     -> BENCH_peos.json
//
// Select with -suite aggregate|service|peos|all (default all).
//
// In the aggregate suite, three variants run over the same
// pre-randomized reports:
//
//   - seed-sequential: the original aggregator loop — one byte-staged
//     xxHash64 evaluation plus a 64-bit division per (report, value)
//     pair (measured over -baseline-n reports; the per-report cost is
//     size-independent, and the full n would take minutes at d = 65536).
//   - kernel: the cache-blocked zero-allocation CountSupport kernel on
//     one goroutine.
//   - parallel: the same kernel fanned out over GOMAXPROCS shard
//     aggregators and merged.
//
// Usage:
//
//	go run ./cmd/bench [-suite all] [-n 100000] [-baseline-n 10000] [-d 1024,65536]
//	                   [-out BENCH_aggregate.json] [-service-n 20000]
//	                   [-service-clients 1,2,4,8] [-service-out BENCH_service.json]
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"shuffledp/internal/hash"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

type benchCase struct {
	D      int `json:"d"`
	DPrime int `json:"d_prime"`
	N      int `json:"n"`
	// NsPerReport by variant; one report costs d hash evaluations.
	SeedSequentialNsPerReport float64 `json:"seed_sequential_ns_per_report"`
	KernelNsPerReport         float64 `json:"kernel_ns_per_report"`
	ParallelNsPerReport       float64 `json:"parallel_ns_per_report"`
	KernelSpeedup             float64 `json:"kernel_speedup"`
	ParallelSpeedup           float64 `json:"parallel_speedup"`
	// HotPathAllocs is allocations per CountSupport block fold (must
	// be 0).
	HotPathAllocs float64 `json:"hot_path_allocs"`
}

type benchReport struct {
	Benchmark   string `json:"benchmark"`
	GeneratedBy string `json:"generated_by"`
	GoMaxProcs  int    `json:"go_max_procs"`
	BaselineN   int    `json:"baseline_n"`
	// Note flags runs where the parallel variant could not fan out.
	Note  string      `json:"note,omitempty"`
	Cases []benchCase `json:"cases"`
}

func main() {
	suite := flag.String("suite", "all", "which suite to run: aggregate, service, or all")
	n := flag.Int("n", 100000, "reports aggregated by the kernel variants")
	baselineN := flag.Int("baseline-n", 10000, "reports aggregated by the seed-sequential baseline")
	ds := flag.String("d", "1024,65536", "comma-separated domain sizes")
	out := flag.String("out", "BENCH_aggregate.json", "aggregate-suite output JSON path")
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
	if *n < 1 || *serviceN < 1 || *peosN < 1 {
		log.Fatal("-n, -service-n, and -peos-n must be >= 1")
	}
	if *baselineN < 1 || *baselineN > *n {
		*baselineN = *n
	}
	runAggregate := *suite == "all" || *suite == "aggregate"
	runService := *suite == "all" || *suite == "service"
	runPeos := *suite == "all" || *suite == "peos"
	if !runAggregate && !runService && !runPeos {
		log.Fatalf("unknown -suite %q (want aggregate, service, peos, or all)", *suite)
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
	if !runAggregate {
		return
	}

	rep := benchReport{
		Benchmark:   "AggregateSOLH",
		GeneratedBy: "cmd/bench",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		BaselineN:   *baselineN,
	}
	if rep.GoMaxProcs == 1 {
		rep.Note = "single-CPU runner: the parallel variant runs one worker, " +
			"so parallel_speedup equals the kernel speedup; AggregateParallel " +
			"scales near-linearly with GOMAXPROCS on multi-core machines"
	}
	dsInts, err := parseInts(*ds)
	if err != nil {
		log.Fatalf("bad -d: %v", err)
	}
	for _, d := range dsInts {
		rep.Cases = append(rep.Cases, runCase(d, *n, *baselineN))
	}
	writeJSON(*out, rep)
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

func runCase(d, n, baselineN int) benchCase {
	// d' = 111 is what the amplification analysis actually picks at this
	// scale (amplify.OptimalDPrime at n = 10^5, epsC = 1, delta = 1e-9).
	const dPrime, eps = 111, 4
	fo := ldp.NewSOLH(d, dPrime, eps)
	r := rng.New(1)
	reports := make([]ldp.Report, n)
	for i := range reports {
		reports[i] = fo.Randomize(i%d, r)
	}

	c := benchCase{D: d, DPrime: fo.DPrime(), N: n}

	seedNs := timeIt(func() {
		est := seedSequentialEstimates(fo, reports[:baselineN])
		sink(est)
	})
	c.SeedSequentialNsPerReport = seedNs / float64(baselineN)

	kernelNs := timeIt(func() {
		agg := fo.NewAggregator()
		for _, rp := range reports {
			agg.Add(rp)
		}
		sink(agg.Estimates())
	})
	c.KernelNsPerReport = kernelNs / float64(n)

	parNs := timeIt(func() {
		sink(ldp.AggregateParallel(fo, reports, 0).Estimates())
	})
	c.ParallelNsPerReport = parNs / float64(n)

	c.KernelSpeedup = c.SeedSequentialNsPerReport / c.KernelNsPerReport
	c.ParallelSpeedup = c.SeedSequentialNsPerReport / c.ParallelNsPerReport

	// Allocation check on the hot path: one block folded into counts.
	fam := hash.NewFamily(fo.DPrime())
	seeds := make([]uint64, 512)
	ys := make([]uint64, 512) // zero targets are valid buckets
	counts := make([]int, d)
	c.HotPathAllocs = testing.AllocsPerRun(3, func() {
		fam.CountSupport(seeds, ys, counts)
	})

	fmt.Printf("d=%-6d d'=%-4d seed=%8.1f ns/report  kernel=%8.1f ns/report (%.2fx)  parallel=%8.1f ns/report (%.2fx)  hot-path allocs=%v\n",
		c.D, c.DPrime, c.SeedSequentialNsPerReport, c.KernelNsPerReport, c.KernelSpeedup,
		c.ParallelNsPerReport, c.ParallelSpeedup, c.HotPathAllocs)
	return c
}

// seedSequentialEstimates replicates the seed revision's aggregator:
// retained reports, then one byte-staged xxHash64 evaluation and one
// 64-bit modulo per (report, value) pair at Estimates time.
func seedSequentialEstimates(fo *ldp.LocalHash, reports []ldp.Report) []float64 {
	d, dPrime := fo.Domain(), fo.DPrime()
	counts := make([]int, d)
	for _, rp := range reports {
		seed := uint64(rp.Seed)
		for v := 0; v < d; v++ {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			if int(hash.Sum64(seed, buf[:])%uint64(dPrime)) == rp.Value {
				counts[v]++
			}
		}
	}
	return ldp.CalibrateCounts(counts, len(reports), fo.P(), 1/float64(dPrime))
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
