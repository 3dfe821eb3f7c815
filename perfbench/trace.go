package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// index of the enclosing span, or -1. Spans of one emulated flow carry
// that flow's ID.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Flow    uint32 `json:"flow,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced runs use it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, flow uint32) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, EndNs: -1, Parent: parent, Flow: flow})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNs = now
}

// record adds a span that has already ended.
func (t *tracer) record(name string, parent int, flow uint32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch)),
		Parent: parent, Flow: flow,
	})
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) {
	i := t.begin(name, parent, 0)
	fn()
	t.end(i)
}

// write stores the spans as JSON in dir/spans.json.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}
