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
	"amplify.CentralEpsilonUnary": "ROADMAP item 1 (iii) and (v) check it against the oracle; " +
		"it inverts the production LocalEpsilonUnary",
	"stattest": "the package exists to serve tests",
}

// paperGrid is why an experiment config's grid field has no production
// setter: cmd/reproduce runs the paper's values from the Default*Config
// constructors, and the tests shrink them to run in seconds.
const paperGrid = "a paper grid: cmd/reproduce runs the paper's values, tests shrink them"

// optionAllowList names the options under internal/ — the exported
// fields of Config, …Config and …Policy structs — that no non-test code
// outside their package sets, each with the reason. A whole type is
// named by its name relative to internal/. An entry that names nothing,
// or whose fields have all gained a setter, fails the gate.
var optionAllowList = map[string]string{
	"service.Config.IdleTimeout": "ROADMAP item 4(d) decides the service's bound on silent connections",

	"experiment.Figure3Config.EpsCs":   paperGrid,
	"experiment.Figure3Config.Methods": paperGrid,
	"experiment.Figure4Config.K":       paperGrid,
	"experiment.Figure4Config.Bits":    paperGrid,
	"experiment.Figure4Config.Round":   paperGrid,
	"experiment.Figure4Config.Methods": paperGrid,
	"experiment.Table2Config.EpsCs":    paperGrid,
	"experiment.Table2Config.FixedDs":  paperGrid,
	"experiment.Table3Config.DPrime":   paperGrid,
	"experiment.Table3Config.EpsL":     paperGrid,
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

// Every option in internal/ must be set by non-test code outside its
// package (cmd/, examples/, benchmark/ and the root package count), or
// carry an allow-list entry saying why not. An option only tests set is
// a knob no deployment turns: it goes, or becomes a constant that the
// package's export_test.go lets tests shorten.
func TestEveryOptionHasASetter(t *testing.T) {
	c := loadModuleCensus(t)
	findings := c.unset(optionAllowList)
	for _, f := range findings {
		t.Error(f)
	}
	if len(findings) > 0 {
		t.Logf("%d findings: delete the option, make it a constant, or set it where it is deployed", len(findings))
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
	if len(c.options()) < 70 {
		t.Errorf("census found only %d options under internal/", len(c.options()))
	}
}

// writeModule stages a throwaway module in a temporary directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeFile(path, src); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkFindings fails the test unless findings match want, one
// substring each, in order.
func checkFindings(t *testing.T, findings, want []string) {
	t.Helper()
	if len(findings) != len(want) {
		t.Fatalf("census produced %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(findings[i], w) {
			t.Errorf("finding %d = %q, want it to contain %q", i, findings[i], w)
		}
	}
}

// The gate flags what it claims to, and nothing it should not.
func TestCensusDetectsUncalledExports(t *testing.T) {
	c, err := loadCensus(writeModule(t, map[string]string{
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
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkFindings(t, c.uncalled(map[string]string{
		"lib.Claimed": "claimed",
		"lib.Called":  "stale: it has a caller",
		"lib.Missing": "stale: no such identifier",
	}), []string{
		"allow-list entry lib.Called has a caller now",
		"allow-list entry lib.Missing names no exported identifier",
		"internal/lib/lib.go:13: lib.Square.Perimeter has no caller",
		"internal/lib/lib.go:22: lib.OnlyTested has no caller",
	})
}

// The option census flags a field only tests or its own package set,
// accepts every kind of write from another package, and holds the
// allow-list to what it excuses.
func TestOptionCensusDetectsUnsetFields(t *testing.T) {
	c, err := loadCensus(writeModule(t, map[string]string{
		"go.mod": "module sample\n\ngo 1.24\n",
		"main.go": `package main

import "sample/internal/lib"

func main() {
	cfg := lib.Config{Keyed: 1}
	cfg.Assigned = 2
	cfg.Counted++
	p := &cfg.Addressed
	*p = 3
	lib.Run(cfg, lib.StalePolicy{Set: true})
}
`,
		"internal/lib/lib.go": `package lib

// Config is an audited option struct.
type Config struct {
	Keyed     int // a keyed literal in main
	Assigned  int // an assignment in main
	Counted   int // an increment in main
	Addressed int // &cfg.Addressed in main
	TestOnly  int // set by lib_test.go alone
	Internal  int // set inside lib alone
	Claimed   int // set nowhere, allow-listed
	Embedded      // no option of its own
}

// Embedded is embedded in Config.
type Embedded struct{}

// StalePolicy's field is set in main, so its allow-list entry is stale.
type StalePolicy struct{ Set bool }

// Settings is no option struct: its name ends in neither Config nor Policy.
type Settings struct{ Unset int }

// Run reads its options and writes one of them.
func Run(cfg Config, _ StalePolicy) {
	cfg.Internal = 1
	_ = Config{Internal: cfg.Keyed}
}
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestOnly(t *testing.T) { _ = Config{TestOnly: 1} }
`,
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkFindings(t, c.unset(map[string]string{
		"lib.Config.Claimed": "claimed",
		"lib.StalePolicy":    "stale: main sets its field",
		"lib.Config.Missing": "stale: no such field",
	}), []string{
		"allow-list entry lib.Config.Missing names no option",
		"allow-list entry lib.StalePolicy is set outside its package now",
		"internal/lib/lib.go:9: lib.Config.TestOnly is set by no non-test code outside its package",
		"internal/lib/lib.go:10: lib.Config.Internal is set by no non-test code outside its package",
	})
}
