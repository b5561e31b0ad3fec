package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one op share op; parent
// indexes the enclosing span in tracer.spans, -1 for an op's root.
type span struct {
	op         int64
	name       string
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps a run's spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so the untraced pass runs the same
// code with one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// open starts a span at start and returns its index for close and for
// children; it returns -1 on a nil tracer.
func (t *tracer) open(op int64, name string, parent int32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{op: op, name: name, parent: parent, start: int64(start.Sub(t.epoch))})
	return int32(len(t.spans) - 1)
}

// close ends span i at end.
func (t *tracer) close(i int32, end time.Time) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(end.Sub(t.epoch))
}

// add records a completed span.
func (t *tracer) add(op int64, name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.close(t.open(op, name, parent, start), end)
}

// durations returns the duration in ns of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// spanAgg sums the spans found at one path of span names.
type spanAgg struct {
	n           int
	total, self float64 // ns
}

// tree aggregates the spans by path ("block/fleet.ProcessTick"). A
// span's self time is its duration minus its direct children's; children
// of one span never overlap, since one goroutine makes every call.
func (t *tracer) tree() map[string]*spanAgg {
	paths := make([]string, len(t.spans))
	byPath := map[string]*spanAgg{}
	for i, s := range t.spans {
		paths[i] = s.name
		if s.parent >= 0 {
			paths[i] = paths[s.parent] + "/" + s.name
		}
		a := byPath[paths[i]]
		if a == nil {
			a = &spanAgg{}
			byPath[paths[i]] = a
		}
		d := float64(s.end - s.start)
		a.n++
		a.total += d
		a.self += d
		if s.parent >= 0 {
			byPath[paths[s.parent]].self -= d
		}
	}
	return byPath
}

// report prints the span tree, children indented under their parent, so
// that each op's total reads as its children's totals plus its self time.
func (t *tracer) report(w io.Writer) {
	byPath := t.tree()
	keys := make([]string, 0, len(byPath))
	for k := range byPath {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "span tree (a parent's total = its children's totals + its self):")
	for _, k := range keys {
		a := byPath[k]
		depth := strings.Count(k, "/")
		name := k[strings.LastIndex(k, "/")+1:]
		fmt.Fprintf(w, "  %*s%-*s n=%-7d total %10.3f ms  self %10.3f ms\n",
			2*depth, "", 30-2*depth, name, a.n, a.total/1e6, a.self/1e6)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "{\"op\":%d,\"name\":%q,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.op, s.name, s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
