package repocheck

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// callerAllowList names the exported identifiers under internal/ that
// may go without a caller outside tests, each with the reason. A whole
// package is named by its path relative to internal/. An entry that
// names nothing, or whose identifier has gained a caller, fails the
// gate, so the list cannot outlive its reasons.
var callerAllowList = map[string]string{
	"protocol.NewSpotCheck":     "ROADMAP item 4a wires the spot check into cluster.Analyzer",
	"protocol.SpotCheck.Plant":  "ROADMAP item 4a wires the spot check into cluster.Analyzer",
	"protocol.SpotCheck.Verify": "ROADMAP item 4a wires the spot check into cluster.Analyzer",
	"amplify.PlanContinual":     "ROADMAP item 2 makes cmd/shuffled analyzer plan through it",
	"amplify.CentralEpsilonUnary": "ROADMAP item 1 (iii) and (v) check it against the oracle; " +
		"it inverts the production LocalEpsilonUnary",
	"ldp.NewOUE":  "the service codec and TestAggregatorStateGolden's oue.bin pin the oracle",
	"ldp.NewRAPR": "the service codec and TestAggregatorStateGolden's rap_r.bin pin the oracle",
	"stattest":    "the package exists to serve tests",
}

var (
	moduleCensusOnce sync.Once
	moduleCensus     *census
	moduleCensusErr  error
)

// loadModuleCensus type-checks the repository once for every test that
// reads it.
func loadModuleCensus(t *testing.T) *census {
	t.Helper()
	moduleCensusOnce.Do(func() {
		root, err := repoRoot()
		if err != nil {
			moduleCensusErr = err
			return
		}
		moduleCensus, moduleCensusErr = loadCensus(root)
	})
	if moduleCensusErr != nil {
		t.Fatal(moduleCensusErr)
	}
	return moduleCensus
}

// Every exported identifier in internal/ must have a caller outside
// tests (cmd/, examples/, benchmark/ and the root package count), or an
// allow-list entry saying which open item or golden claims it. Code
// only tests call is code the pipeline never runs.
func TestEveryExportedIdentifierHasACaller(t *testing.T) {
	c := loadModuleCensus(t)
	findings := c.uncalled(callerAllowList)
	for _, f := range findings {
		t.Error(f)
	}
	if len(findings) > 0 {
		t.Logf("%d findings: delete the identifier, give it a production caller, "+
			"or move a test seam into the package's export_test.go", len(findings))
	}
}

// The census must see the whole module: losing a package, or the
// standard library's interfaces, would turn the gate green by shrinking
// it.
func TestCensusCoversModule(t *testing.T) {
	c := loadModuleCensus(t)
	paths := map[string]bool{}
	for _, p := range c.pkgs {
		paths[p.Path()] = true
	}
	for _, want := range []string{"shuffledp", "shuffledp/benchmark", "shuffledp/cmd/shuffled",
		"shuffledp/internal/ldp", "shuffledp/internal/cluster", "shuffledp/internal/repocheck"} {
		if !paths[want] {
			t.Errorf("census lost package %s", want)
		}
	}
	if len(c.exported()) < 300 {
		t.Errorf("census found only %d exported identifiers under internal/", len(c.exported()))
	}
}

// The gate flags what it claims to, and nothing it should not.
func TestCensusDetectsUncalledExports(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module sample\n\ngo 1.24\n",
		"main.go": `package main

import (
	"fmt"

	"sample/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{}
	fmt.Println(s.Area(), lib.Named{})
}
`,
		"internal/lib/lib.go": `package lib

// Shape is called through its interface only.
type Shape interface{ Area() int }

// Square's Area is reached only through Shape.
type Square struct{}

// Area implements Shape.
func (Square) Area() int { return 4 }

// Perimeter has no caller.
func (Square) Perimeter() int { return 8 }

// Named's String is reached only through fmt.
type Named struct{}

// String implements fmt.Stringer.
func (Named) String() string { return "named" }

// OnlyTested is called by lib_test.go alone.
func OnlyTested() int { return 1 }

// Claimed is uncalled but allow-listed.
func Claimed() {}

// Called has a caller, so its allow-list entry is stale.
func Called() {}

var _ = Called
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestOnlyTested(t *testing.T) { _ = OnlyTested() }
`,
	}
	for name, src := range files {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeFile(filepath.Join(dir, name), src); err != nil {
			t.Fatal(err)
		}
	}
	c, err := loadCensus(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := c.uncalled(map[string]string{
		"lib.Claimed": "claimed",
		"lib.Called":  "stale: it has a caller",
		"lib.Missing": "stale: no such identifier",
	})
	want := []string{
		"allow-list entry lib.Called has a caller now",
		"allow-list entry lib.Missing names no exported identifier",
		"internal/lib/lib.go:13: lib.Square.Perimeter has no caller",
		"internal/lib/lib.go:22: lib.OnlyTested has no caller",
	}
	if len(findings) != len(want) {
		t.Fatalf("census produced %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(findings[i], w) {
			t.Errorf("finding %d = %q, want it to contain %q", i, findings[i], w)
		}
	}
}
