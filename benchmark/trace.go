package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval in a trace file. Times are nanoseconds
// since the process started. Driver spans (kind "driver") wrap calls
// the end-to-end run makes anyway and partition a repetition's timed
// window exactly; replay spans (kind "replay") time a layer's public
// entry point in isolation on one goroutine, and carry the op count
// that was pushed through it.
type span struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Ops      int64  `json:"ops,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the tracing-off state: every method is a no-op, so the untraced run
// pays one nil check per driver phase and nothing else.
type tracer struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

// begin opens a span and returns its id (0 when tracing is off; 0 is
// also the "no parent" id).
func (t *tracer) begin(name, kind string, rep, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, Kind: kind, Workload: t.workload, Rep: rep,
		ID: id, Parent: parent, StartNS: time.Since(procStart).Nanoseconds(),
	})
	return id
}

// end closes the span and records how many operations it covered.
func (t *tracer) end(id int, ops int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(procStart).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Ops = ops
}

// write dumps the spans to out/trace-<workload>.json under dir.
func (t *tracer) write(dir string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	t.mu.Lock()
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{
		Workload: t.workload,
		Note: "driver spans partition each repetition's timed window; replay spans are " +
			"per-op costs measured in isolation on one goroutine, never an end-to-end time",
		Spans: t.spans,
	}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
