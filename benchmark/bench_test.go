package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// smokeRun runs one workload at the smoke scale in process.
func smokeRun(t *testing.T, spec *benchSpec, name string, traced bool) *result {
	t.Helper()
	w, err := findWorkload(name, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(spec, w, runOptions{
		seed: 1, secs: 0.05, traced: traced, outDir: t.TempDir(), log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkMetrics asserts that a result carries exactly the declared
// metrics, each once, finite, with its declared unit.
func checkMetrics(t *testing.T, label string, specs []metricSpec, res *result) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", label, len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", label, m.Name)
			continue
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: metric %s = %v", label, m.Name, got.Value)
		}
		if got.Unit == "" || got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", label, m.Name, got.Unit, m.Unit)
		}
	}
}

// The contract file itself: names, units, directions, bounds, and the
// workload table agreeing with the program's.
func TestSpecWellFormed(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, wl.Name, workloads[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	seen := map[string]bool{}
	sawSetup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is not a contract name", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || len(m.Unit) > 16 {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("end_to_end must carry setup_s in s, lower is better")
	}
}

// Every workload at the smoke scale, both modes: every declared metric
// emitted exactly once with a finite value and its unit, every gate
// green, driver phases summing to the timed wall, and a result
// comparing as unchanged against itself.
func TestSmokeAllWorkloads(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the benchmark reads Linux rusage")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	file := &resultsFile{Transport: "loopback TCP"}
	for _, wl := range spec.Workloads {
		e2e := smokeRun(t, spec, wl.Name, false)
		checkMetrics(t, wl.Name+" end-to-end", spec.EndToEnd, e2e)
		for _, m := range spec.EndToEnd {
			if e2e.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, m.Name, e2e.Metrics[m.Name].Value)
			}
		}
		file.Runs = append(file.Runs, runRecord{Workload: wl.Name, Seed: 1, Result: *e2e})

		layers := smokeRun(t, spec, wl.Name, true)
		checkMetrics(t, wl.Name+" per-layer", spec.PerLayer, layers)
		v := func(name string) float64 { return layers.Metrics[name].Value }
		phases := v("run.dial_s") + v("run.submit_s") + v("run.backlog_s") + v("run.drain_s") + v("run.collect_s")
		if wall := v("run.wall_s"); wall <= 0 || math.Abs(phases-wall) > 0.01*wall {
			t.Errorf("%s: driver phases sum to %.6fs, timed wall is %.6fs", wl.Name, phases, wall)
		}
		if v("run.failed_share") != 0 {
			t.Errorf("%s: run.failed_share = %v", wl.Name, v("run.failed_share"))
		}
	}

	path := filepath.Join(t.TempDir(), "results.json")
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := compareFiles(spec, path, path, &table); err != nil {
		t.Fatalf("a result compared against itself: %v\n%s", err, table.String())
	}
	rows := strings.Split(strings.TrimSpace(table.String()), "\n")[1:]
	if len(rows) != len(spec.Workloads)*len(spec.EndToEnd) {
		t.Fatalf("compare printed %d rows, want %d", len(rows), len(spec.Workloads)*len(spec.EndToEnd))
	}
	for _, row := range rows {
		if !strings.HasSuffix(row, verdictUnchanged) {
			t.Errorf("self-compare row not unchanged: %s", row)
		}
	}
}

// The verdict rule on hand-made runs.
func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "y", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name     string
		m        metricSpec
		old, new []float64
		want     string
	}{
		{"same", lower, steady, steady, verdictUnchanged},
		{"slower beyond bound", lower, steady, []float64{115, 116, 114, 115, 117}, verdictRegressed},
		{"slower within bound", lower, steady, []float64{105, 106, 104, 105, 107}, verdictUnchanged},
		{"clearly faster", lower, steady, []float64{80, 81, 79, 80, 82}, verdictImproved},
		{"throughput drop", higher, steady, []float64{85, 86, 84, 85, 87}, verdictRegressed},
		{"throughput gain", higher, steady, []float64{120, 121, 119, 120, 122}, verdictImproved},
		{"too noisy to call", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 118, 92, 108}, verdictUnresolved},
		{"no runs", lower, steady, nil, verdictMissing},
	} {
		if got, _, _ := judge(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// quartileSpread must cut quartiles the way Python's
// statistics.quantiles(xs, n=4) does: the contract is judged by that.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
