// Package repocheck holds the repository's self-auditing CI gates: the
// godoc audit (every package documented, every exported identifier
// commented), the documentation link checker (no dead intra-repo paths
// in the markdown front door), the caller census (every exported
// identifier in internal/ has a caller outside tests) and the setter
// census (every option of an internal/ config struct is set outside
// tests and its package). All run as
// ordinary tests, so `go test ./...` — and therefore every CI job —
// enforces them.
package repocheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// repoRoot locates the module root (the directory holding go.mod) from
// the test's working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("repocheck: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// goPackageDirs returns every directory under root that contains
// non-test Go files, as root-relative paths.
func goPackageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[rel] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// docFinding is one godoc-audit violation.
type docFinding struct {
	pos  token.Position
	what string
}

// String renders the finding as file:line: message.
func (f docFinding) String() string { return fmt.Sprintf("%s: %s", f.pos, f.what) }

// auditDir parses every non-test file of one package directory and
// returns the violations: a missing package doc comment, or an
// exported declaration (type, func, method, or const/var group)
// without one.
func auditDir(fset *token.FileSet, dir string) ([]docFinding, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []docFinding
	for _, pkg := range pkgs {
		hasPkgDoc := false
		var anyFile token.Position
		files := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		for _, name := range files {
			f := pkg.Files[name]
			if anyFile.Filename == "" {
				anyFile = fset.Position(f.Package)
			}
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
			findings = append(findings, auditFile(fset, f)...)
		}
		if !hasPkgDoc {
			findings = append(findings, docFinding{pos: anyFile,
				what: fmt.Sprintf("package %s has no package doc comment", pkg.Name)})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos.Filename != findings[j].pos.Filename {
			return findings[i].pos.Filename < findings[j].pos.Filename
		}
		return findings[i].pos.Line < findings[j].pos.Line
	})
	return findings, nil
}

func auditFile(fset *token.FileSet, f *ast.File) []docFinding {
	var findings []docFinding
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				findings = append(findings, docFinding{pos: fset.Position(d.Pos()),
					what: fmt.Sprintf("exported %s %s has no doc comment", kind, d.Name.Name)})
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if !sp.Name.IsExported() {
						continue
					}
					if !groupDoc && (sp.Doc == nil || strings.TrimSpace(sp.Doc.Text()) == "") {
						findings = append(findings, docFinding{pos: fset.Position(sp.Pos()),
							what: fmt.Sprintf("exported type %s has no doc comment", sp.Name.Name)})
					}
				case *ast.ValueSpec:
					// A const/var group documents itself with one group
					// comment, per-spec comments, or per-spec line
					// comments; only a bare exported spec in an
					// undocumented group is a violation.
					if groupDoc {
						continue
					}
					specDoc := (sp.Doc != nil && strings.TrimSpace(sp.Doc.Text()) != "") ||
						(sp.Comment != nil && strings.TrimSpace(sp.Comment.Text()) != "")
					for _, name := range sp.Names {
						if name.IsExported() && !specDoc {
							findings = append(findings, docFinding{pos: fset.Position(sp.Pos()),
								what: fmt.Sprintf("exported %s has no doc comment", name.Name)})
						}
					}
				}
			}
		}
	}
	return findings
}
