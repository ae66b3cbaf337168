package experiment

// Golden-file determinism tests for the experiment runners: every
// table and figure is reproduced at tiny n/d with a fixed Seed and the
// full result structs — every float64 printed in shortest round-trip
// form — are compared byte for byte against checked-in goldens. A
// refactor that changes any reproduced number, however slightly, fails
// here instead of silently shifting the paper's tables.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/experiment -run TestGolden -update
//
// and review the golden diff like any other code change.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"shuffledp/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite the experiment golden files")

// checkGolden compares got against testdata/golden/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if string(want) != got {
		t.Fatalf("%s drifted from its golden file.\n--- want\n%s--- got\n%s\nIf the change is intentional, regenerate with -update and review the diff.",
			name, want, got)
	}
}

// dumpRows renders a slice of result structs one per line with %+v:
// floats print in shortest round-trip form (so any bit change shows),
// maps print with sorted keys, NaN prints as NaN.
func dumpRows[T any](rows []T) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return b.String()
}

func TestGoldenTable1(t *testing.T) {
	rows := Table1([]float64{0.25, 0.5, 1, 2, 4}, 10000, testDelta)
	checkGolden(t, "table1", dumpRows(rows))
}

// goldenFigure3 and goldenTable2 run the golden Figure 3 and Table II
// configurations and dump their results.
func goldenFigure3(t *testing.T) string {
	t.Helper()
	ds := dataset.Scaled(dataset.IPUMS, 100, 1)
	points, err := Figure3(ds, Figure3Config{
		EpsCs:  []float64{0.3, 0.8},
		Trials: 2,
		Delta:  testDelta,
		Seed:   21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dumpRows(points)
}

func goldenTable2(t *testing.T) string {
	t.Helper()
	ds := dataset.Scaled(dataset.Kosarak, 200, 2)
	rows, err := Table2(ds, Table2Config{
		EpsCs:   []float64{0.4, 0.8},
		FixedDs: []int{10, 100},
		Trials:  2,
		Delta:   testDelta,
		Seed:    22,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dumpRows(rows)
}

func TestGoldenFigure3(t *testing.T) { checkGolden(t, "figure3", goldenFigure3(t)) }

func TestGoldenTable2(t *testing.T) { checkGolden(t, "table2", goldenTable2(t)) }

// The runners fan out at GOMAXPROCS workers, and every trial job draws
// from its own seed substream, so a run's artifact does not depend on
// the worker count (DESIGN.md §4).
func TestGoldenIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, run := range []struct {
		name string
		dump func(*testing.T) string
	}{{"figure3", goldenFigure3}, {"table2", goldenTable2}} {
		runtime.GOMAXPROCS(1)
		serial := run.dump(t)
		runtime.GOMAXPROCS(4)
		if parallel := run.dump(t); parallel != serial {
			t.Errorf("%s at GOMAXPROCS 4 differs from GOMAXPROCS 1:\n--- 1\n%s--- 4\n%s", run.name, serial, parallel)
		}
	}
}

func TestGoldenFigure4(t *testing.T) {
	ds := dataset.SyntheticStrings("aol-golden", 8000, 120, 16, 1.3, 23)
	cfg := Figure4Config{
		EpsCs:   []float64{0.6},
		K:       8,
		Bits:    16,
		Round:   8,
		Trials:  1,
		Delta:   testDelta,
		Methods: []string{"OLH", "Had", "Lap", "SH", "SOLH", "AUE", "RAP", "RAP_R"},
		Seed:    24,
	}
	points, err := Figure4(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure4", dumpRows(points))
}

func TestGoldenTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol runs are slow")
	}
	cfg := Table3Config{
		N:       60,
		NR:      10,
		Rs:      []int{3},
		KeyBits: 768,
		DPrime:  8,
		EpsL:    2,
		Seed:    25,
	}
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock fields can never be golden; the deterministic content
	// is the protocol structure and the byte accounting.
	for i := range rows {
		rows[i].UserCompMS = 0
		rows[i].AuxCompSec = 0
		rows[i].ServerCompSec = 0
	}
	checkGolden(t, "table3", dumpRows(rows))
}
