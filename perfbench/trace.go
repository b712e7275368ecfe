package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/aspect"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is the index of the enclosing span, or -1.
type span struct {
	layer, name, method string
	start, end          int64
	parent              int32
}

// tracer keeps spans in memory until the run ends. Spans recorded from
// several goroutines go through the mutex; the serve-path hooks run on
// the single simulation goroutine and use the open-span stack.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	on    bool    // recording enabled (toggled per measured unit)
	open  []int32 // serve-path stack of unfinished spans
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

func (t *tracer) since() int64 { return int64(time.Since(t.t0)) }

// enabled reports whether spans are being recorded. A nil tracer never
// records, so hooks call it unconditionally.
func (t *tracer) enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

func (t *tracer) setEnabled(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// add records a span and returns its index.
func (t *tracer) add(layer, name, method string, start, end int64, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, method: method, start: start, end: end, parent: parent})
	return int32(len(t.spans) - 1)
}

// begin opens a span on the serve-path stack.
func (t *tracer) begin(layer, name, method string) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := t.add(layer, name, method, t.since(), 0, parent)
	t.open = append(t.open, idx)
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open)
	idx := t.open[n-1]
	t.open = t.open[:n-1]
	e := t.since()
	t.mu.Lock()
	t.spans[idx].end = e
	t.mu.Unlock()
}

// serveAspect records a span around every servlet Service execution and
// every TPC-W DAO call. It is outermost, so a Service span includes the
// monitoring advice; DAO spans nest under the Service that issued them.
func (t *tracer) serveAspect() *aspect.Aspect {
	return &aspect.Aspect{
		Name:     "perfbench.trace",
		Pointcut: aspect.MustPointcut("execution(tpcw.*.Service) || within(tpcw.dao.*)"),
		Order:    -1 << 30,
		Before: func(jp *aspect.JoinPoint) {
			layer := "servlet"
			if jp.Method != "Service" {
				layer = "sqldb"
			}
			t.begin(layer, jp.Component, jp.Method)
		},
		After: func(*aspect.JoinPoint) { t.end() },
	}
}

// durations returns the durations in microseconds of the finished spans
// of a layer whose name and method match ("" matches any).
func (t *tracer) durations(layer, name, method string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.matches(layer, name, method) {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// selfTimes returns, in microseconds, each matching span's duration minus
// the part its direct children cover.
func (t *tracer) selfTimes(layer, name, method string) []float64 {
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.matches(layer, name, method) {
			out = append(out, float64(s.end-s.start-child[int32(i)])/1e3)
		}
	}
	return out
}

func (s span) matches(layer, name, method string) bool {
	return s.end > 0 && s.layer == layer && (name == "" || s.name == name) && (method == "" || s.method == method)
}

// count returns how many spans a layer recorded.
func (t *tracer) count(layer string) int {
	n := 0
	for _, s := range t.spans {
		if s.layer == layer {
			n++
		}
	}
	return n
}

// pct stores the p50 and p99 of xs under name_p50 / name_p99.
func pct(dst map[string]float64, name string, xs []float64) {
	dst[name+"_p50"] = quantile(xs, 0.5)
	dst[name+"_p99"] = quantile(xs, 0.99)
}

// write saves the spans as CSV and returns the file's path.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,parent,layer,name,method,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%s,%d,%d\n", i, s.parent, s.layer, s.name, s.method, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
