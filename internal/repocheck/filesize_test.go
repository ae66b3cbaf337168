package repocheck

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxStageFileLines caps every non-test Go file of the service and the
// cluster. Their nodes are split into one file per stage, with the node
// file keeping only the wiring and the shared state; a stage that
// outgrows the cap is split again, never folded back into its node.
const maxStageFileLines = 600

func TestStageFilesStayUnderCap(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal/service", "internal/cluster"} {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(data, []byte("\n")); n > maxStageFileLines {
				rel, _ := filepath.Rel(root, f)
				t.Errorf("%s has %d lines, over the %d-line cap for stage files: split the stage it holds", rel, n, maxStageFileLines)
			}
		}
	}
}
