package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans are recorded only from the benchmark's own files,
// around its calls into public entry points.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // op index; -1 outside the timed loop
	Parent int    `json:"parent"` // index into the span list; -1 for roots
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so the timed loop pays one
// nil check per call site.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
	sums  map[string]float64 // counters summed at the layer boundaries
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), op: -1, sums: map[string]float64{}}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// add accumulates a counter observed at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.sums[name] += v
	}
}

// durations returns the wall durations (ms) of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// sumMs is the total wall (ms) of spans named name.
func (t *tracer) sumMs(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

type layerRow struct {
	name         string
	calls        int
	totalMs      float64
	selfMs       float64
	p50Us, maxUs float64
}

// table aggregates spans by name; self time is a span's duration minus
// the part its child spans cover.
func (t *tracer) table() []layerRow {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*layerRow{}
	durs := map[string][]float64{}
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.calls++
		r.totalMs += float64(d) / 1e6
		r.selfMs += float64(d-child[i]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.p50Us = median(durs[name])
		for _, d := range durs[name] {
			if d > r.maxUs {
				r.maxUs = d
			}
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMs > out[j].selfMs })
	return out
}

func (t *tracer) writeTable(w io.Writer) {
	fmt.Fprintf(w, "# %-34s %8s %11s %11s %11s %11s\n", "span", "calls", "total_ms", "self_ms", "p50_us", "max_us")
	for _, r := range t.table() {
		fmt.Fprintf(w, "# %-34s %8d %11.1f %11.1f %11.1f %11.1f\n", r.name, r.calls, r.totalMs, r.selfMs, r.p50Us, r.maxUs)
	}
}

// writeSpans writes every recorded span as JSON.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
