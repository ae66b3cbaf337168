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

	"shuffledp/internal/cpuid"
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

	"ahe.DGKPublicKey.Encrypt": "the one-ciphertext wrapper benchmark's per-layer replay (--trace) times " +
		"(benchmark/replay.go:397); deployments run EncryptChunk",
	"ahe.DGKPublicKey.AddPlain": "the one-ciphertext wrapper benchmark's per-layer replay (--trace) times " +
		"(benchmark/replay.go:405); deployments run FoldChunk",
	"ahe.DGKPublicKey.Rerandomize": "the one-ciphertext wrapper benchmark's per-layer replay (--trace) times " +
		"(benchmark/replay.go:409); deployments run FoldChunk",
	"ahe.DGKPublicKey.one":         "the body of the three one-ciphertext wrappers, which only benchmark's per-layer replay calls",
	"ahe.DGKPublicKey.Deserialize": "the per-element decoder; deployments decode whole vectors",
	"ahe.Ciphertext.Clone":         "benchmark's per-layer replay (--trace) copies its sample through it; the shuffle writes into fresh ciphertexts",
	"ahe.DGKPrivateKey.Decrypt":    "the one-ciphertext wrapper benchmark's per-layer replay (--trace) times; deployments decrypt chunks",
	"ahe.DGKPrivateKey.decryptNaive": "the fall-through for a hostile unit outside gamma's subgroup " +
		"(TestFastPathConformance's junk cases)",
	"ahe.montMulADX":     "assembly (mont_amd64.s), which coverage does not count; mont.mulADX is its one caller",
	"ahe.montMulIFMA3":   "assembly (ifma_amd64.s), which coverage does not count; mont.mulIFMA is its one caller",
	"ahe.montMulIFMA5":   "assembly (ifma_amd64.s), which coverage does not count; mont.mulIFMA is its one caller",
	"ahe.montMulIFMA3x2": "assembly (ifma_amd64.s), which coverage does not count; mont.mulIFMA2 is its one caller",
	"ahe.montMulIFMA5x2": "assembly (ifma_amd64.s), which coverage does not count; mont.mulIFMA2 is its one caller",
	"cpuid.cpuid":        "assembly (cpuid_amd64.s), which coverage does not count; the CPU feature initializer calls it",
	"cpuid.xgetbv0":      "assembly (cpuid_amd64.s), which coverage does not count; the CPU feature initializer calls it",
	"hash.hits8x8":       "assembly (support_amd64.s), which coverage does not count; laneBlock.count is its one caller",
	"hash.expand8":       "assembly (support_amd64.s), which coverage does not count; expand is its one caller",

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
	findings := c.unreached(reached, runAllowList, exemptKernelFuncs(hostFeatures{cpuid.ADX, cpuid.IFMA, cpuid.AVX512DQ}))
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

// kernelBranches names, per CPUID-chosen kernel, the functions only
// that kernel runs: internal/ahe's Montgomery multiplications and
// internal/hash's support count below sweepMinOutputSize. Which ones a
// deployment runs depends on the census host's CPU (internal/cpuid), so
// no allow-list entry can hold on every host. The rule instead: in each
// package the kernel this host runs — for ahe the one a 1024-bit
// modulus takes: IFMA where the CPU has it, else ADX where it has that,
// else the portable REDC; for hash AVX-512 where the CPU has AVX512F and
// AVX512DQ, else the portable loop — must be reached, and the other
// kernels' functions are exempt (the host runs them for no input the
// census uses, or never). TestPortableBranchMatchesKernel and its
// neighbours drive every ahe kernel a host runs, and hash's forKernels
// drives both of its kernels.
var kernelBranches = map[string][]string{
	"ahe/portable": {"ahe.mont.mulRedcBig"},
	"ahe/adx":      {"ahe.mont.mulADX"},
	"ahe/ifma": {"ahe.ifmaRows", "ahe.toLimbs", "ahe.fromLimbs",
		"ahe.mont.canonIFMA", "ahe.mont.mulIFMA", "ahe.mont.mulIFMA2"},
	"hash/portable": {"hash.countCandidates", "hash.misses3"},
	"hash/avx512":   {"hash.countBlocksAVX512", "hash.laneBlock.count"},
}

// hostFeatures are the CPU features the kernels are chosen by.
type hostFeatures struct{ adx, ifma, avx512 bool }

// runs returns the kernels a host with these features runs: one per
// package.
func (h hostFeatures) runs() []string {
	ahe, hash := "ahe/portable", "hash/portable"
	switch {
	case h.ifma:
		ahe = "ahe/ifma"
	case h.adx:
		ahe = "ahe/adx"
	}
	if h.avx512 {
		hash = "hash/avx512"
	}
	return []string{ahe, hash}
}

// exemptKernelFuncs returns the kernelBranches functions a host with
// these features need not reach.
func exemptKernelFuncs(h hostFeatures) map[string]bool {
	exempt := map[string]bool{}
	for _, fns := range kernelBranches {
		for _, fn := range fns {
			exempt[fn] = true
		}
	}
	for _, branch := range h.runs() {
		for _, fn := range kernelBranches[branch] {
			delete(exempt, fn)
		}
	}
	return exempt
}

// The kernel rule holds on every host the kernels tell apart: for
// each, a census that reached every function but the other kernels'
// passes, and one that also missed the host's own kernels flags
// exactly their functions.
func TestKernelBranchRule(t *testing.T) {
	c := loadModuleCensus(t)
	fns := c.functions()
	all := map[string]bool{}
	for _, names := range kernelBranches {
		for _, name := range names {
			if fns[name] == nil {
				t.Errorf("kernelBranches names %s, which is no function", name)
			}
			all[name] = true
		}
	}
	// reachedAll marks every function's declaration run but skip's.
	reachedAll := func(skip func(name string) bool) map[string][]lineSpan {
		reached := map[string][]lineSpan{}
		for name, obj := range fns {
			if skip(name) {
				continue
			}
			scope := obj.(*types.Func).Scope()
			from, to := c.fset.Position(scope.Pos()), c.fset.Position(scope.End())
			file := obj.Pkg().Path() + "/" + filepath.Base(from.Filename)
			reached[file] = append(reached[file], lineSpan{from.Line, to.Line})
		}
		return reached
	}
	for _, host := range []struct {
		name string
		hostFeatures
	}{
		{"IFMA and AVX-512", hostFeatures{adx: true, ifma: true, avx512: true}},
		{"ADX and AVX-512", hostFeatures{adx: true, avx512: true}},
		{"ADX only", hostFeatures{adx: true}},
		{"neither", hostFeatures{}},
	} {
		exempt := exemptKernelFuncs(host.hostFeatures)
		own := map[string]bool{}
		for _, branch := range host.runs() {
			for _, name := range kernelBranches[branch] {
				own[name] = true
			}
		}
		if f := c.unreached(reachedAll(func(name string) bool { return all[name] && !own[name] }), nil, exempt); len(f) != 0 {
			t.Errorf("%s host: a census reaching its own kernels reports %q", host.name, f)
		}
		f := c.unreached(reachedAll(func(name string) bool { return all[name] }), nil, exempt)
		if len(f) != len(own) {
			t.Errorf("%s host: a census missing its own kernels reports %q, want one finding per function of %v",
				host.name, f, host.runs())
		}
		for _, finding := range f {
			if name := strings.Fields(finding)[1]; !own[name] {
				t.Errorf("%s host: finding %q names no function of its own kernels", host.name, finding)
			}
		}
	}
}

// unreached checks every function under internal/ against the census
// profile: a function runs if an executed block lies inside its
// declaration. The exempt functions are left out.
func (c *census) unreached(reached map[string][]lineSpan, allow map[string]string, exempt map[string]bool) []string {
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
	fns := c.functions()
	for name := range exempt {
		delete(fns, name)
	}
	return c.audit(fns, runs, allow, wording{
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
	}, nil), []string{
		"allow-list entry lib.Claimed runs in the census run now",
		"allow-list entry lib.Gone names no function",
		"internal/lib/lib.go:9: lib.Idle runs in no census run",
	})
}
