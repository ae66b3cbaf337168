package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// headings returns the "=== … ===" lines of out, in order.
func headings(out string) []string {
	return regexp.MustCompile(`(?m)^=== .* ===$`).FindAllString(out, -1)
}

func wantHeadings(names ...string) []string {
	var want []string
	for _, a := range artefacts {
		if slices.Contains(names, a.name) {
			want = append(want, "=== "+a.heading+" ===")
		}
	}
	return want
}

func TestOnlyParsing(t *testing.T) {
	all := []string{"table1", "figure3", "table2", "figure4", "table3"}
	for _, tc := range []struct {
		args []string
		want []string // nil: the command line must be refused
	}{
		{nil, all},
		{[]string{"-only", "table2"}, []string{"table2"}},
		{[]string{"-only", "table3,table1"}, []string{"table1", "table3"}},
		{[]string{"-only", " Table3 ,\tFIGURE4"}, []string{"figure4", "table3"}},
		{[]string{"-only", "table1,table1,table1"}, []string{"table1"}},
		{[]string{"-only", "figure9"}, nil},
		{[]string{"-only", "table1,figure9"}, nil},
		{[]string{"-only", ""}, nil},
		{[]string{"-only", "table1,"}, nil},
		{[]string{"-only"}, nil},
	} {
		_, selected, err := parse(tc.args)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: accepted, selected %v", tc.args, selected)
			} else if len(tc.args) == 2 && !strings.Contains(err.Error(), "table1, figure3, table2, figure4, table3") {
				t.Errorf("%q: error %q does not list the valid names", tc.args, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		var got []string
		for _, a := range artefacts {
			if selected[a.name] {
				got = append(got, a.name)
			}
		}
		if !slices.Equal(got, tc.want) || len(selected) != len(tc.want) {
			t.Errorf("%q: selected %v, want %v", tc.args, selected, tc.want)
		}
	}
}

// Every numeric flag is checked before any artefact runs: a bad value
// is an error naming the flag — never a panic, never partial output.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"}, {"-scale", "-3"}, {"-trials", "0"}, {"-n", "0"}, {"-keybits", "0"},
		{"-nr", "-1"}, {"-rs", "1"}, {"-rs", "3,1"}, {"-rs", "3,x"}, {"-rs", ""},
		{"-delta", "0"}, {"-delta", "1"}, {"-delta", "NaN"},
		{"-scale", "x"}, {"-seed", "-1"}, {"-nosuchflag"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-quick", "-only", "table1"}, args...), &out)
		if err == nil {
			t.Errorf("%q: accepted", args)
		} else if !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%q: error %q does not name the flag", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q before refusing", args, out.String())
		}
	}
}

// -quick fills in only what the command line left out, and -nr follows
// -n unless given.
func TestQuickDefaultsYieldToFlags(t *testing.T) {
	o, _, err := parse([]string{"-quick", "-trials", "7", "-n", "300"})
	if err != nil {
		t.Fatal(err)
	}
	if o.scale != 50 || o.trials != 7 || o.t3.N != 300 || o.t3.NR != 30 || o.t3.KeyBits != 768 {
		t.Fatalf("got scale %d trials %d n %d nr %d keybits %d", o.scale, o.trials, o.t3.N, o.t3.NR, o.t3.KeyBits)
	}
	o, _, err = parse([]string{"-nr", "0", "-rs", "2, 5"})
	if err != nil {
		t.Fatal(err)
	}
	if o.scale != 1 || o.trials != 20 || o.t3.N != 20000 || o.t3.NR != 0 || o.t3.KeyBits != 1024 || !slices.Equal(o.t3.Rs, []int{2, 5}) {
		t.Fatalf("got scale %d trials %d n %d nr %d keybits %d rs %v", o.scale, o.trials, o.t3.N, o.t3.NR, o.t3.KeyBits, o.t3.Rs)
	}
}

func TestQuickOnlyRunsInPaperOrder(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-only", "table3,table1"}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := headings(out.String()), wantHeadings("table1", "table3"); !slices.Equal(got, want) {
		t.Fatalf("headings %q, want %q", got, want)
	}
	// One Table I grid: the 11-budget superset, with its NaN legend.
	for _, s := range []string{"\n0.60 ", "\n0.80 ", "\n6.00 ", "NaN marks"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("Table I block lacks %q:\n%s", s, out.String())
		}
	}
}

func TestQuickRunsAllFive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every artefact at -quick scale")
	}
	var full, table2 bytes.Buffer
	if err := run([]string{"-quick"}, &full); err != nil {
		t.Fatal(err)
	}
	if got, want := headings(full.String()), wantHeadings("table1", "figure3", "table2", "figure4", "table3"); !slices.Equal(got, want) {
		t.Fatalf("headings %q, want %q", got, want)
	}
	// An artefact's block does not depend on what runs beside it.
	if err := run([]string{"-quick", "-only", "table2"}, &table2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), table2.String()+"\n=== ") {
		t.Fatalf("-only table2 printed\n%s\nwhich the full run does not contain:\n%s", table2.String(), full.String())
	}
}
