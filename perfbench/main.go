// Command perfbench is the repository benchmark. It runs one workload per
// process against the public packages of the monitoring system, checks
// the workload's outputs, and prints one JSON result line:
//
//	go run . --workload browse-node --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics taken from spans the
// benchmark records around its calls into each layer. See README.md for
// the workloads, the metric map and the steadiness study.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// endToEnd lists the metrics every untraced run reports, in BENCHMARK.json
// order. Every workload measures every one of them (see README.md for
// what each means on each workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"retained_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"verdict_epochs", "count"},
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not exercise reports 0: it did no work there.
var perLayer = []struct{ name, unit string }{
	{"sqldb.best_sellers_us_p50", "us"},
	{"sqldb.best_sellers_us_p99", "us"},
	{"sqldb.dao_us_p50", "us"},
	{"sqldb.dao_us_p99", "us"},
	{"sqldb.dao_calls_per_req", "count"},
	{"sqldb.order_write_us_p50", "us"},
	{"servlet.service_us_p50", "us"},
	{"servlet.service_us_p99", "us"},
	{"tpcw.best_sellers.self_us_p50", "us"},
	{"core.sample_us_p50", "us"},
	{"core.sample_us_p99", "us"},
	{"detect.observe_us_p50", "us"},
	{"detect.observe_us_p99", "us"},
	{"cluster.publish_us_p50", "us"},
	{"cluster.publish_us_p99", "us"},
	{"cluster.wire_bytes_per_round", "bytes"},
	{"cluster.ingest_us_p50", "us"},
	{"cluster.ingest_us_p99", "us"},
	{"cluster.fold_ms_p50", "ms"},
	{"cluster.fold_ms_p99", "ms"},
	{"cluster.shed_rounds", "count"},
	{"rejuv.control_rtt_ms", "ms"},
	{"rejuv.commands", "count"},
	{"go.alloc_bytes_per_req", "bytes"},
	{"go.alloc_bytes_per_round", "bytes"},
	{"go.gc_cycles", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_us_per_op", "us"},
}

// run carries one workload execution: its inputs, the tracer (nil when
// untraced), and what it measured and checked.
type run struct {
	workload string
	seed     uint64
	seconds  int
	tr       *tracer

	e2e    map[string]float64
	layer  map[string]float64
	detail map[string]any // workload-specific figures, printed before the result

	attempted, failed int64

	mu   sync.Mutex // gates may fail on wire goroutines
	errs []string
}

// check records a failed correctness gate.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.mu.Lock()
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}
}

var workloads = map[string]func(*run) error{
	"browse-node":   browseNode,
	"order-cluster": orderCluster,
	"fleet-fanin":   fleetFanin,
}

func main() {
	workload := flag.String("workload", "", "browse-node, order-cluster or fleet-fanin")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "sizes the fixed amount of work measured")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spanDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		detail:   map[string]any{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r.detail["peak_rss_mb"] = peakRSSMB()
	if r.tr != nil {
		r.layer["trace.spans"] = float64(len(r.tr.spans))
		path, err := r.tr.write(*spanDir, fmt.Sprintf("%s-seed%d.csv", *workload, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		r.detail["spans_file"] = path
	}

	names, values := endToEnd, r.e2e
	if r.tr != nil {
		names, values = perLayer, r.layer
	}
	out := map[string]map[string]any{}
	for _, m := range names {
		v, ok := values[m.name]
		if !ok && r.tr == nil {
			r.check(false, "metric %s not measured", m.name)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	r.check(r.attempted > 0, "no operation attempted")

	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{"fingerprint": fingerprint(r)})
	_ = enc.Encode(map[string]any{"detail": r.detail})
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, e)
	}
	_ = enc.Encode(map[string]any{
		"correct":   len(r.errs) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
	if len(r.errs) > 0 {
		os.Exit(1)
	}
}

// fingerprint describes the machine and toolchain a result was taken on.
func fingerprint(r *run) map[string]any {
	var uts syscall.Utsname
	_ = syscall.Uname(&uts) // zero-valued release on failure is still a valid fingerprint
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      r.tr != nil,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"kernel":     utsString(uts.Release[:]),
	}
}

func utsString(b []int8) string {
	var s strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		s.WriteByte(byte(c))
	}
	return s.String()
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedRSSMB is the resident set once garbage is collected and free
// memory returned to the OS: what the live system holds. Unlike the
// process peak it does not depend on where the last GC cycle fell.
func retainedRSSMB() float64 {
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mark is a point-in-time reading of the costs a measured unit is charged.
type mark struct {
	wall   time.Time
	cpu    time.Duration
	alloc  uint64
	cycles uint64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func now() mark {
	metrics.Read(goSamples)
	return mark{
		wall:   time.Now(),
		cpu:    cpuTime(),
		alloc:  goSamples[0].Value.Uint64(),
		cycles: goSamples[1].Value.Uint64(),
	}
}

// unit is one measured stretch of fixed work: ops completed between two
// marks.
type unit struct {
	ops        int64
	wall, cpu  time.Duration
	alloc      uint64
	cycles     uint64
	traced     bool
	monitoring bool
}

func between(a, b mark, ops int64) unit {
	return unit{ops: ops, wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, cycles: b.cycles - a.cycles}
}

func (u unit) opsPerSec() float64 { return float64(u.ops) / u.wall.Seconds() }
func (u unit) cpuPerOp() float64  { return float64(u.cpu.Microseconds()) / float64(u.ops) }

// rates reports the median throughput and CPU per op over units.
func rates(us []unit) (opsPerSec, cpuUsPerOp float64) {
	a := make([]float64, len(us))
	b := make([]float64, len(us))
	for i, u := range us {
		a[i], b[i] = u.opsPerSec(), u.cpuPerOp()
	}
	return quantile(a, 0.5), quantile(b, 0.5)
}

// totals sums units.
func totals(us []unit) unit {
	var t unit
	for _, u := range us {
		t.ops += u.ops
		t.wall += u.wall
		t.cpu += u.cpu
		t.alloc += u.alloc
		t.cycles += u.cycles
	}
	return t
}

// split separates units by a predicate.
func split(us []unit, pred func(unit) bool) (yes, no []unit) {
	for _, u := range us {
		if pred(u) {
			yes = append(yes, u)
		} else {
			no = append(no, u)
		}
	}
	return yes, no
}

// traceOverhead is the traced minus untraced median CPU per op.
func traceOverhead(us []unit) float64 {
	on, off := split(us, func(u unit) bool { return u.traced })
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	_, a := rates(on)
	_, b := rates(off)
	return a - b
}

// abba reports whether unit i of an ABBA sequence is an A unit.
func abba(i int) bool { return i%4 == 0 || i%4 == 3 }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// settle collects the garbage of earlier stacks and warm-up before a
// measured stretch starts, so neither its GC work nor the peak heap
// depends on when the collector last ran.
func settle() { runtime.GC() }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
