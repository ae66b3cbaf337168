package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// runRecord is one workload run in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultsFile is what a run over all workloads writes and -compare
// reads: the machine it ran on and every run's result line.
type resultsFile struct {
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Commit     string      `json:"commit,omitempty"`
	Seconds    float64     `json:"seconds"`
	Smoke      bool        `json:"smoke,omitempty"`
	Transport  string      `json:"transport"`
	Runs       []runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric over a file's correct,
// untraced runs of one workload.
func (f *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 || !r.Result.Correct {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// judge compares one metric's runs. worse is the share of the old
// median by which the new median is worse (negative: better). A row
// regresses when that exceeds the bound; it is unresolved — not
// unchanged — when either side's run-to-run quartile spread is wider
// than the bound, unless every new run beats every old run; it
// improves when every new run beats every old run and the medians
// differ by more than the old runs' own spread.
func judge(m metricSpec, oldV, newV []float64) (verdict string, worse, spread float64) {
	if len(oldV) == 0 || len(newV) == 0 {
		return verdictMissing, 0, 0
	}
	oldMed, newMed := median(oldV), median(newV)
	if oldMed != 0 {
		worse = (newMed - oldMed) / oldMed
	}
	if m.Better == "higher" {
		worse = -worse
	}
	oldSpread := quartileSpread(oldV)
	spread = max(oldSpread, quartileSpread(newV))
	oldLo, oldHi := minMax(oldV)
	newLo, newHi := minMax(newV)
	allBetter := newHi < oldLo
	if m.Better == "higher" {
		allBetter = newLo > oldHi
	}
	switch {
	case worse > m.Bound:
		return verdictRegressed, worse, spread
	case allBetter && -worse > oldSpread:
		return verdictImproved, worse, spread
	case spread > m.Bound:
		return verdictUnresolved, worse, spread
	default:
		return verdictUnchanged, worse, spread
	}
}

// compareFiles prints, per (workload, end-to-end metric), both
// medians, the change, the bound from BENCHMARK.json and a verdict,
// and returns an error when any row regressed.
func compareFiles(spec *benchSpec, oldPath, newPath string, w io.Writer) error {
	oldF, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tworse by\tbound\tspread\truns\tverdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			oldV, newV := oldF.values(wl.Name, m.Name), newF.values(wl.Name, m.Name)
			verdict, worse, spread := judge(m, oldV, newV)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, m.Unit, median(oldV), median(newV), worse*100, m.Bound*100, spread*100,
				len(oldV), len(newV), verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed row(s)", regressed)
	}
	return nil
}
