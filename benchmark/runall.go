package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runAll runs every workload named in BENCHMARK.json, each run in a
// child process of its own — so peak RSS, CPU time and the cold-start
// state of the machine are per run, exactly as when the contract
// drives one workload at a time — and writes the result lines to one
// results file for -compare. Run k of a workload uses seed+k.
func runAll(spec *benchSpec, c cli) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := &resultsFile{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		Seconds:    c.secs,
		Smoke:      c.smoke,
		Transport:  "loopback TCP (not a real link)",
	}
	failed := 0
	for _, wl := range spec.Workloads {
		for k := 0; k < max(c.runs, 1); k++ {
			seed := c.seed + uint64(k)
			args := []string{
				"--workload", wl.Name,
				"--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(c.secs, 'g', -1, 64),
				"--trace", strconv.Itoa(c.trace),
			}
			if c.smoke {
				args = append(args, "-smoke")
			}
			res, err := runChild(self, args, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", wl.Name, k, err)
				failed++
			}
			if res != nil {
				file.Runs = append(file.Runs, runRecord{Workload: wl.Name, Seed: seed, Trace: c.trace, Result: *res})
			}
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(c.out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(c.out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", c.out)
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}

// runChild runs one workload in a child process, copies its report to
// log, and parses the result line — the last line of its output. The
// child has exited by the time runChild returns.
func runChild(self string, args []string, log io.Writer) (*result, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		if _, werr := io.WriteString(log, stdout.String()); werr != nil {
			return nil, werr
		}
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result line")
	}
	if _, err := io.WriteString(log, strings.TrimSuffix(text, last)); err != nil {
		return nil, err
	}
	return &res, runErr
}

// gitCommit is best effort: the contract's checkout is not a git
// repository, and then the field stays empty.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
