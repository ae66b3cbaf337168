// Command reproduce regenerates the paper's evaluation (§VII): Tables
// I-III and Figures 3-4 — all five, or those -only names — in paper
// order. With -quick the run takes seconds; without it, expect the
// full-scale datasets and 20 trials per cell.
//
// Usage (-h lists the scale, seed and Table III flags):
//
//	reproduce [-quick] [-only table1,figure3,table2,figure4,table3]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"shuffledp/internal/dataset"
	"shuffledp/internal/experiment"
)

// options is the command line after validation; -n, -nr, -keybits, -rs
// and -fast land in t3.
type options struct {
	quick         bool
	scale, trials int
	delta         float64
	seed          uint64
	t3            experiment.Table3Config
}

// artefacts lists §VII's tables and figures in the order the paper (and
// the output) presents them; run returns the block under the heading.
// Figure 3, Table II, Figure 4 and Table III draw from -seed, -seed+1,
// -seed+2 and -seed+3.
var artefacts = []struct {
	name, heading string
	run           func(o *options) (string, error)
}{
	{"table1", "Table I: amplification bounds", table1},
	{"figure3", "Figure 3: MSE vs epsC (IPUMS)", figure3},
	{"table2", "Table II: SOLH vs RAP_R (Kosarak)", table2},
	{"figure4", "Figure 4: succinct-histogram precision (AOL)", figure4},
	{"table3", "Table III: SS vs PEOS overhead", table3},
}

// The command line is this program's only input, so every failure is a
// usage failure: one line on stderr, exit status 2.
func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
}

// run validates the whole command line, then prints the selected
// artefacts to stdout.
func run(args []string, stdout io.Writer) error {
	o, selected, err := parse(args)
	if err != nil {
		return err
	}
	sep := ""
	for _, a := range artefacts {
		if !selected[a.name] {
			continue
		}
		fmt.Fprintf(stdout, "%s=== %s ===\n", sep, a.heading)
		sep = "\n"
		text, err := a.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Fprint(stdout, text)
	}
	return nil
}

// parse returns the validated options and the names of the artefacts to run.
func parse(args []string) (*options, map[string]bool, error) {
	o := &options{t3: experiment.DefaultTable3Config()}
	names := make([]string, len(artefacts))
	for i, a := range artefacts {
		names[i] = a.name
	}
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.BoolVar(&o.quick, "quick", false, "laptop scale: -scale 50 -trials 5 -n 500 -keybits 768 where not given; Figure 4 runs 1 trial at 2 budgets")
	only := fs.String("only", strings.Join(names, ","), "comma-separated artefacts to run")
	fs.IntVar(&o.scale, "scale", 1, "divide each dataset's n by this factor (Figure 4: by at most 10)")
	fs.IntVar(&o.trials, "trials", 20, "trials per cell of Figure 3 and Table II")
	fs.Float64Var(&o.delta, "delta", 1e-9, "DP failure probability")
	fs.Uint64Var(&o.seed, "seed", 1, "base random seed: Figure 3, Table II, Figure 4, Table III use seed, seed+1, seed+2, seed+3")
	fs.IntVar(&o.t3.N, "n", 20000, "Table III: number of users (paper: 10^6, hours on one machine; per-user costs are scale-free, totals linear in n)")
	fs.IntVar(&o.t3.NR, "nr", 0, "Table III: number of fake reports (default n/10)")
	fs.IntVar(&o.t3.KeyBits, "keybits", 1024, "Table III: DGK modulus bits (paper: 3072)")
	rs := fs.String("rs", "3,7", "Table III: comma-separated shuffler counts")
	fs.BoolVar(&o.t3.FastShuffle, "fast", false, "Table III: the paper's cost model, skip ciphertext rerandomization")
	fs.SetOutput(io.Discard) // main reports an error once, on one line
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
		}
		return nil, nil, err
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, f := range []struct {
		name  string
		p     *int
		quick int
	}{{"scale", &o.scale, 50}, {"trials", &o.trials, 5}, {"n", &o.t3.N, 500}, {"keybits", &o.t3.KeyBits, 768}} {
		if o.quick && !given[f.name] {
			*f.p = f.quick
		}
		if *f.p < 1 {
			return nil, nil, fmt.Errorf("-%s must be >= 1, got %d", f.name, *f.p)
		}
	}
	if !given["nr"] {
		o.t3.NR = o.t3.N / 10
	}
	if o.t3.NR < 0 {
		return nil, nil, fmt.Errorf("-nr must be >= 0, got %d", o.t3.NR)
	}
	if !(o.delta > 0 && o.delta < 1) {
		return nil, nil, fmt.Errorf("-delta must be in (0, 1), got %v", o.delta)
	}
	o.t3.Rs = nil
	for _, part := range strings.Split(*rs, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || r < 2 {
			return nil, nil, fmt.Errorf("-rs entries must be integers >= 2, got %q", part)
		}
		o.t3.Rs = append(o.t3.Rs, r)
	}
	// Names match without regard to case or surrounding space; repeats
	// and the order given do not matter, run follows artefacts' order.
	selected := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if !slices.Contains(names, name) {
			return nil, nil, fmt.Errorf("-only: no artefact %q (valid: %s)", name, strings.Join(names, ", "))
		}
		selected[name] = true
	}
	return o, selected, nil
}

func table1(o *options) (string, error) {
	const n = 1000000
	rows := experiment.Table1([]float64{0.1, 0.2, 0.3, 0.4, 0.49, 0.6, 0.8, 1, 2, 4, 6}, n, o.delta)
	return fmt.Sprintf("(n=%d, delta=%.0e; NaN marks budgets where a bound's validity condition fails)\n", n, o.delta) +
		experiment.FormatTable1(rows), nil
}

func figure3(o *options) (string, error) {
	ds := dataset.Scaled(dataset.IPUMS, o.scale, o.seed)
	cfg := experiment.DefaultFigure3Config()
	cfg.Trials, cfg.Delta, cfg.Seed = o.trials, o.delta, o.seed
	points, err := experiment.Figure3(ds, cfg)
	return fmt.Sprintf("(n=%d, d=%d, %d trials)\n", ds.N(), ds.D, cfg.Trials) +
		experiment.FormatCurve(points, experiment.MethodNames), err
}

func table2(o *options) (string, error) {
	ds := dataset.Scaled(dataset.Kosarak, o.scale, o.seed+1)
	cfg := experiment.DefaultTable2Config()
	cfg.Trials, cfg.Delta, cfg.Seed = o.trials, o.delta, o.seed+1
	rows, err := experiment.Table2(ds, cfg)
	return fmt.Sprintf("(n=%d, d=%d)\n", ds.N(), ds.D) + experiment.FormatTable2(rows, cfg.FixedDs), err
}

func figure4(o *options) (string, error) {
	cfg := experiment.DefaultFigure4Config()
	cfg.Delta, cfg.Seed = o.delta, o.seed+2
	if o.quick {
		cfg.Trials, cfg.EpsCs = 1, []float64{0.4, 1.0}
	}
	// TreeHist needs enough users per round for the per-round budget
	// epsC/6: cap the scale-down at 10x so a quick run still shows the
	// shuffle methods separating from LDP. The vocabulary stays >= 2K.
	scale := min(o.scale, 10)
	ds := dataset.SyntheticStrings("AOL", dataset.AOLN/scale, max(dataset.AOLUnique/scale, 2*cfg.K),
		dataset.AOLBits, 1.05, cfg.Seed)
	points, err := experiment.Figure4(ds, cfg)
	return fmt.Sprintf("(n=%d, top-%d)\n", ds.N(), cfg.K) + experiment.FormatFigure4(points, cfg.Methods), err
}

func table3(o *options) (string, error) {
	cfg := o.t3
	cfg.Seed = o.seed + 3
	rows, err := experiment.Table3(cfg)
	return fmt.Sprintf("(n=%d, nr=%d, DGK-%d)\n", cfg.N, cfg.NR, cfg.KeyBits) + experiment.FormatTable3(rows), err
}
