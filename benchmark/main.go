// Command benchmark is the repository's one contract benchmark: five
// workloads over the streaming shuffle service (internal/service) and
// the PEOS protocol (internal/cluster, internal/protocol), each
// measured as a wall clock on real cores from outside the program,
// checked for correctness inside the run, and — in a separate traced
// run — decomposed layer by layer. BENCHMARK.json at the repository
// root names the workloads and metrics and fixes the regression
// bounds; benchmark/README.md explains every choice.
//
// One workload, the form the contract drives:
//
//	go run ./benchmark --workload svc_wire_d64 --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1.
//
// All workloads, each in its own child process, into a results file
// that -compare reads:
//
//	go run ./benchmark -runs 5 -out benchmark/out/a.json
//	go run ./benchmark -compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procStart anchors trace timestamps and is as close to process start
// as Go code gets.
var procStart = time.Now()

// cli holds the parsed command line.
type cli struct {
	workload       string
	seed           uint64
	secs           float64
	trace          int
	smoke          bool
	runs           int
	out            string
	compare, regen bool
	heater         int
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "run this one workload and print the contract result line (empty: run all five, each in a child process)")
	flag.Uint64Var(&c.seed, "seed", 1, "drives every dataset and rng stream; the program under test sees only the generated inputs")
	flag.Float64Var(&c.secs, "seconds", 0, "how long one workload run measures (0: run_seconds from BENCHMARK.json)")
	flag.IntVar(&c.trace, "trace", 0, "1: traced run — driver spans, layer replay, per-layer metrics, out/trace-<workload>.json")
	flag.BoolVar(&c.smoke, "smoke", false, "n ÷ 100, the 512-bit key fixture, no machine warm-up: exercises every code path in seconds, measures nothing")
	flag.IntVar(&c.runs, "runs", 1, "with no -workload: runs per workload, seeds seed, seed+1, …")
	flag.StringVar(&c.out, "out", "", "with no -workload: results file (default benchmark/out/results.json)")
	flag.BoolVar(&c.compare, "compare", false, "compare two results files: -compare old.json new.json")
	flag.BoolVar(&c.regen, "regen-keys", false, "regenerate the benchmark-only DGK key fixtures under benchmark/testdata")
	flag.IntVar(&c.heater, "heater", -1, "internal: run as the idle-priority heater for this CPU (see heater_linux.go)")
	flag.Parse()
	if c.heater >= 0 {
		heaterMain(c.heater)
		return
	}
	if err := run(c, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(c cli, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	benchDir := filepath.Join(root, "benchmark")
	if c.secs <= 0 {
		c.secs = float64(spec.RunSeconds)
	}
	switch {
	case c.regen:
		return regenKeys(benchDir)
	case c.compare:
		if len(args) != 2 {
			return errors.New("usage: -compare old.json new.json")
		}
		return compareFiles(spec, args[0], args[1], os.Stdout)
	case c.workload == "":
		if c.out == "" {
			c.out = filepath.Join(benchDir, "out", "results.json")
		}
		return runAll(spec, c)
	}
	w, err := findWorkload(c.workload, c.smoke)
	if err != nil {
		return err
	}
	res, err := runWorkload(spec, w, runOptions{
		seed: c.seed, secs: c.secs, traced: c.trace != 0, instruments: !c.smoke,
		outDir: filepath.Join(benchDir, "out"), log: os.Stdout,
	})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("a correctness gate failed")
	}
	return nil
}

// runRep dispatches one repetition to the workload's driver.
func runRep(w workload, seed uint64, repIdx int, tr *tracer, outDir string) (*rep, error) {
	switch w.kind {
	case kindService:
		return runServiceRep(w, seed, repIdx, tr, outDir)
	case kindCluster:
		return runClusterRep(w, seed, repIdx, tr)
	default:
		return runInprocRep(w, seed, repIdx, tr)
	}
}

// runOptions parameterizes one workload run.
type runOptions struct {
	seed uint64
	// secs is how long the run measures.
	secs float64
	// traced selects the per-layer run (--trace 1).
	traced bool
	// instruments turns on the two noise counters — heaters for the
	// run, primeCores before each repetition; the smoke scale and the
	// tests run without.
	instruments bool
	// outDir receives WAL scratch directories and the trace file.
	outDir string
	// log receives the human-readable report.
	log io.Writer
}

// runWorkload measures one workload for about secs seconds: back-to-
// back repetitions of set-up plus timed window on the same dataset,
// then — outside every timed window — the correctness gates. Timing
// metrics are medians over the repetitions. With traced set, odd
// repetitions record driver spans and even ones do not (the two wall
// clocks under run.trace_overhead_ratio), and the layer replay follows
// with up to half as much time again.
func runWorkload(spec *benchSpec, w workload, o runOptions) (*result, error) {
	seed, traced, outDir, log := o.seed, o.traced, o.outDir, o.log
	if o.instruments {
		defer startHeaters()()
	}
	var tr *tracer
	budget := time.Duration(o.secs * float64(time.Second))
	if traced {
		tr = &tracer{workload: w.name}
	}
	// Two of each kind at least: a traced run needs a median on both
	// sides of run.trace_overhead_ratio.
	minReps := 2
	if traced {
		minReps = 4
	}
	var reps []*rep
	loopStart := time.Now()
	for i := 0; ; i++ {
		repTracer := tr
		if traced && i%2 == 0 {
			repTracer = nil
		}
		// A cold process needs the long warm-up once; later repetitions
		// only re-check, which costs a few milliseconds while warm.
		eff := 1.0
		if o.instruments {
			warm := 250 * time.Millisecond
			if i == 0 {
				warm = 2 * time.Second
			}
			eff = primeCores(warm)
		}
		r, err := runRep(w, seed, i, repTracer, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		r.coreEff = eff
		reps = append(reps, r)
		elapsed := time.Since(loopStart)
		// Stop at the repetition boundary nearest the budget.
		if len(reps) >= minReps && elapsed+elapsed/time.Duration(2*len(reps)) >= budget {
			break
		}
	}
	g := runGates(w, seed, reps)

	res := &result{Correct: g.err == nil}
	for _, r := range reps {
		res.Attempted += int64(w.n)
		res.Failed += r.failed
	}
	if !res.Correct {
		// A run whose output is wrong delivered nothing.
		res.Failed = res.Attempted
		fmt.Fprintf(os.Stderr, "benchmark: %s: correctness gate failed: %v\n", w.name, g.err)
	}

	values, specs := endToEndMetrics(w, reps), spec.EndToEnd
	if traced {
		lay, err := replayLayers(w, seed, tr, outDir, budget/2)
		if err != nil {
			return nil, fmt.Errorf("%s layer replay: %w", w.name, err)
		}
		values, specs = perLayerMetrics(w, reps, g, lay, res), spec.PerLayer
		path, err := tr.write(outDir)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "trace: %s\n", path)
	}
	var err error
	if res.Metrics, err = shape(specs, values); err != nil {
		return nil, err
	}
	printReport(log, w, seed, reps, specs, res)
	return res, nil
}

// column extracts one per-repetition quantity.
func column(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEndMetrics reduces the repetitions to the metrics a user of the
// system would see. Every timing is a measured wall clock; nothing
// here multiplies a micro-benchmark cost by an op count.
func endToEndMetrics(w workload, reps []*rep) map[string]float64 {
	wall := median(column(reps, func(r *rep) float64 { return r.wallS }))
	return map[string]float64{
		"setup_s":               median(column(reps, func(r *rep) float64 { return r.setupS })),
		"reports_per_s":         float64(w.n) / wall,
		"peak_rss_mb":           median(column(reps, func(r *rep) float64 { return r.peakRSSMB })),
		"wire_bytes_per_report": median(column(reps, func(r *rep) float64 { return float64(r.edgeBytes) })) / float64(w.n),
		// The repetitions randomize the same users independently, so
		// their ratios average: a single draw of empirical-over-expected
		// MSE scatters by sqrt(2/d).
		"mse_ratio": mean(column(reps, func(r *rep) float64 { return r.mseRatio })),
	}
}

// printReport writes the human-readable view: machine, repetitions
// with min/median/max, and every metric by name with its unit.
func printReport(log io.Writer, w workload, seed uint64, reps []*rep, specs []metricSpec, res *result) {
	fmt.Fprintf(log, "workload %s  seed %d  n=%d/rep  reps=%d  %s  num_cpu=%d gomaxprocs=%d  transport=loopback TCP (not a real link)\n",
		w.name, seed, w.n, len(reps), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	walls := column(reps, func(r *rep) float64 { return r.wallS })
	lo, hi := minMax(walls)
	fmt.Fprintf(log, "timed window per repetition: median %.4fs  min %.4fs  max %.4fs\n", median(walls), lo, hi)
	fmt.Fprintf(log, "  each: %.3f\n", walls)
	setups := column(reps, func(r *rep) float64 { return r.setupS })
	lo, hi = minMax(setups)
	fmt.Fprintf(log, "set-up per repetition:       median %.4fs  min %.4fs  max %.4fs\n", median(setups), lo, hi)
	wires := column(reps, func(r *rep) float64 { return float64(r.wireBytes) })
	lo, hi = minMax(wires)
	fmt.Fprintf(log, "wire bytes per repetition:   median %.0f  min %.0f  max %.0f\n", median(wires), lo, hi)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	better := map[string]string{}
	for _, m := range specs {
		better[m.Name] = m.Better
	}
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(log, "  %-40s %16.6g %-10s (%s is better)\n", name, m.Value, m.Unit, better[name])
	}
	fmt.Fprintf(log, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
