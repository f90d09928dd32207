package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory and are written out when the run ends. A nil tracer (the
// untraced run) records nothing and costs one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the index of the enclosing span (-1 for
// a root); Req groups the spans of one request or pipeline repetition.
// Names are "<layer>.<operation>"; the layer is everything before the dot.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a closed span measured by the caller.
func (t *tracer) record(name string, parent int, req int64, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// selfTimes sums each layer's self time: a span's duration minus the
// durations of its children. Children are either nested inside the parent's
// interval (pipeline stages) or, for a serving probe, the same request
// re-issued one entry point lower; in both cases the difference is the time
// the parent's own layer spent.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// rootTime sums the durations of the root spans.
func (t *tracer) rootTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// layers are the span-name prefixes self time is reported for; "bench" is
// the benchmark's own code between calls into the program.
var layers = []string{"bench", "corpus", "sisg", "sgns", "graph", "dist", "knn", "model", "server", "http"}

// reportLayers adds the layer self-time breakdown, the sum of the program's
// layer self times against the end-to-end time (the summed duration of the
// root spans), and the tracing overhead to out.layers. traced and untraced
// are the workload's headline metric measured with tracing on and off.
func reportLayers(t *tracer, p params, out *outcome, traced, untraced float64) error {
	st := t.selfTimes()
	var sum time.Duration
	for _, n := range layers {
		if n != "bench" {
			sum += st[n]
		}
		out.layers["self."+n+"_s"] = metric{seconds(st[n]), "s"}
	}
	e2e := t.rootTime()
	out.layers["trace.layer_sum_s"] = metric{seconds(sum), "s"}
	out.layers["trace.e2e_s"] = metric{seconds(e2e), "s"}
	if e2e > 0 {
		out.layers["trace.layer_sum_ratio"] = metric{float64(sum) / float64(e2e), "ratio"}
	}
	out.layers["trace.spans"] = metric{float64(t.count()), "count"}
	if untraced != 0 {
		out.layers["trace.overhead_pct"] = metric{100 * (traced - untraced) / untraced, "%"}
	}
	return t.write(filepath.Join(buildDir(), "traces"), p.workload, p.seed)
}

// buildDir is where build outputs and trace dumps go: $CARGO_TARGET_DIR when
// set, else .bench_build under the working directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
