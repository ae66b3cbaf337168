package repocheck

import (
	"bufio"
	"flag"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var censusProfile = flag.String("census-profile", "",
	"absolute path of the merged text profile .github/coverage-census.sh writes; "+
		"TestEveryInternalFunctionRuns skips without it")

// runAllowList names the functions under internal/ that no run of the
// coverage census reaches, each with the reason it stays. An entry
// names a function ("pkg.Func"), a method ("pkg.Type.Method"), every
// method of a type ("pkg.Type") or a whole package ("pkg"), relative to
// internal/. An entry that names nothing, or whose functions all run
// now, fails the gate.
var runAllowList = map[string]string{
	"stattest":  "the package exists to serve tests",
	"repocheck": "the repository's CI gates, which run as tests",

	"amplify.CentralEpsilonUnary": "ROADMAP item 1 checks it against the exact oracle",
	"protocol.NewSpotCheck":       "ROADMAP item 4a wires the spot check into cluster.Analyzer",
	"protocol.SpotCheck.Plant":    "ROADMAP item 4a wires the spot check into cluster.Analyzer",
	"protocol.SpotCheck.Verify":   "ROADMAP item 4a wires the spot check into cluster.Analyzer",

	"ahe.DGKPublicKey.AddPlain":    "the allocating PublicKey method; deployments run AddPlainInto",
	"ahe.DGKPublicKey.Rerandomize": "the allocating PublicKey method; deployments run RerandomizeInto",
	"ahe.DGKPublicKey.Deserialize": "the per-element decoder; deployments decode whole vectors",
	"ahe.Ciphertext.Clone":         "benchmark's per-layer replay (--trace) copies its sample through it; the shuffle writes into fresh ciphertexts",
	"ahe.DGKPrivateKey.decryptNaive": "the fall-through for a hostile unit outside gamma's subgroup " +
		"(TestFastPathConformance's junk cases)",
	"ahe.mont.mulRedcBig": "mulRedc's portable branch, which hosts without ADX and BMI2 and every other GOARCH run; " +
		"the census host runs the fused kernel (TestPortableBranchMatchesKernel drives it everywhere)",
	"ahe.montMulADX": "assembly (mont_amd64.s), which coverage does not count; mont.mulWords, its one caller, runs",
	"ahe.cpuid":      "assembly (mont_amd64.s), which coverage does not count; hasMontKernel's initializer calls it",

	"oblivious.memMesh.abort": "the in-process mesh fails only when a party errors",
	"pipeline.Disconnected":   "classifies a shuffler's broken analyzer link; no census run breaks one",
	"pipeline.Batcher":        "the per-record batcher benchmark's per-layer replay (--trace) times; the service batches word runs",
	"service.Codec.Size":      "benchmark's per-layer replay (--trace) cuts its one-report payloads with it; the service packs whole frames (ROADMAP item 6(e))",
	"service.Codec.AppendMarshal": "benchmark's per-layer replay (--trace) times it one report at a time; the service packs whole frames " +
		"(ROADMAP item 6(e))",
	"service.Codec.Unmarshal": "benchmark's per-layer replay (--trace) times it one report at a time; the service unpacks whole frames " +
		"(ROADMAP item 6(e))",
	"service.Service.fail":   "fails the service only on a store error or an unclassified read error",
	"service.Service.drop":   "ends a run the service stopped before folding; no census run closes a service with runs in flight",
	"store.ckptReader.fail":  "a checkpoint that does not parse",
	"store.Store.AppendDrop": "logs a dropped frame; the census runs drop none",
}

// Every function under internal/ is run by a deployment, or it carries
// an allow-list entry saying why not. The deployments are the census
// run of .github/coverage-census.sh: every main under cmd/ and
// examples/ and the contract benchmark, built with coverage of
// internal/. The unit is the function, so an error branch a run did not
// take cannot flake the gate.
func TestEveryInternalFunctionRuns(t *testing.T) {
	if *censusProfile == "" {
		t.Skip("no -census-profile; .github/coverage-census.sh writes one")
	}
	reached, err := readCensusProfile(*censusProfile)
	if err != nil {
		t.Fatal(err)
	}
	c := loadModuleCensus(t)
	findings := c.unreached(reached, runAllowList)
	for _, f := range findings {
		t.Error(f)
	}
	if len(findings) > 0 {
		t.Logf("%d findings: delete the function, run it from a deployment, or allow-list it with its reason", len(findings))
	}
}

// lineSpan is a range of lines in one file, inclusive.
type lineSpan struct{ from, to int }

// readCensusProfile reads a text coverage profile into the line spans
// of its executed blocks, keyed by "import/path/file.go".
func readCensusProfile(path string) (map[string][]lineSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reached := map[string][]lineSpan{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		// file.go:startLine.startCol,endLine.endCol numStmts count
		file, rest, ok := strings.Cut(line, ":")
		fields := strings.Fields(rest)
		if !ok || len(fields) != 3 {
			return nil, fmt.Errorf("%s: malformed profile line %q", path, line)
		}
		start, end, ok := strings.Cut(fields[0], ",")
		from, err1 := strconv.Atoi(strings.Split(start, ".")[0])
		to, err2 := strconv.Atoi(strings.Split(end, ".")[0])
		count, err3 := strconv.Atoi(fields[2])
		if !ok || err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%s: malformed profile line %q", path, line)
		}
		if count > 0 {
			reached[file] = append(reached[file], lineSpan{from, to})
		}
	}
	return reached, sc.Err()
}

// functions returns every function and method the packages under the
// module's internal/ declare, exported or not, keyed by its name
// relative to internal/: "ldp.NewGRR", "ldp.accumulator.Add".
func (c *census) functions() map[string]types.Object {
	prefix := c.module + "/internal/"
	fns := map[string]types.Object{}
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.Path(), prefix) {
			continue
		}
		pkgName := strings.TrimPrefix(p.Path(), prefix)
		scope := p.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				fns[pkgName+"."+name] = obj
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					fns[pkgName+"."+name+"."+m.Name()] = m
				}
			}
		}
	}
	return fns
}

// unreached checks every function under internal/ against the census
// profile: a function runs if an executed block lies inside its
// declaration.
func (c *census) unreached(reached map[string][]lineSpan, allow map[string]string) []string {
	runs := func(obj types.Object) bool {
		scope := obj.(*types.Func).Scope()
		from, to := c.fset.Position(scope.Pos()), c.fset.Position(scope.End())
		for _, b := range reached[obj.Pkg().Path()+"/"+filepath.Base(from.Filename)] {
			if b.from >= from.Line && b.to <= to.Line {
				return true
			}
		}
		return false
	}
	return c.audit(c.functions(), runs, allow, wording{
		kind: "function",
		pass: "runs in the census run",
		fail: "runs in no census run",
	})
}

// The run census flags what it claims to, and nothing it should not.
func TestRunCensusDetectsUnreachedFunctions(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  "module sample\n\ngo 1.24\n",
		"main.go": "package main\n\nimport \"sample/internal/lib\"\n\nfunc main() { lib.Ran() }\n",
		"internal/lib/lib.go": `package lib

// Ran runs.
func Ran() { helper() }

func helper() {}

// Idle never runs.
func Idle() {}

// Kept never runs either, but is allow-listed.
type Kept struct{}

// Method never runs.
func (Kept) Method() {}

// Claimed is allow-listed yet runs.
func Claimed() {}
`,
	})
	c, err := loadCensus(dir)
	if err != nil {
		t.Fatal(err)
	}
	profile := filepath.Join(dir, "cover.out")
	if err := writeFile(profile, `mode: set
sample/internal/lib/lib.go:4.12,4.24 1 1
sample/internal/lib/lib.go:6.15,6.16 0 1
sample/internal/lib/lib.go:9.13,9.14 0 0
sample/internal/lib/lib.go:15.24,15.25 0 0
sample/internal/lib/lib.go:18.16,18.17 0 1
`); err != nil {
		t.Fatal(err)
	}
	reached, err := readCensusProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	checkFindings(t, c.unreached(reached, map[string]string{
		"lib.Kept":    "excused",
		"lib.Claimed": "stale",
		"lib.Gone":    "names nothing",
	}), []string{
		"allow-list entry lib.Claimed runs in the census run now",
		"allow-list entry lib.Gone names no function",
		"internal/lib/lib.go:9: lib.Idle runs in no census run",
	})
}
