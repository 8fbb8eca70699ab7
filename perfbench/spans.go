package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's exported function. Spans of one operation (an MD repeat, a job, a
// probe) share Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID, Parent, Op int
	Layer, Name    string
	Start, End     time.Duration
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// *tracer is the disabled tracer of untraced runs: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(layer, name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// layers counts the closed spans of each layer.
func (t *tracer) layers() map[string]int {
	out := map[string]int{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End >= s.Start {
			out[s.Layer]++
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write exports the spans as Chrome trace JSON, one track per operation,
// with the host fingerprint in the format's otherData field.
func (t *tracer) write(path string, fp fingerprint) error {
	t.mu.Lock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		end := s.End
		if end < s.Start {
			end = s.Start
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((end - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": fp})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
