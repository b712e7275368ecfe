package main

import (
	"fmt"
	"time"

	"repro/internal/aspect"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/faultinject"
	"repro/internal/jvmheap"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

const (
	// sampleEvery is the manager's sampling period: one detection epoch.
	sampleEvery = 30 * time.Second
	// warmUp is served before any unit is timed; set-up time includes it.
	warmUp = 5 * time.Minute
	// browseBlock is one measured unit of browse-node: eight sampling
	// rounds, about 7,000 requests, long enough that rusage resolution
	// and one GC cycle are small against it.
	browseBlock = 4 * time.Minute
	browseEBs   = 200
	// verdictEBs drives the detection episodes, where only the epoch
	// count to the verdict matters.
	verdictEBs = 50
	// verdictEpochs bounds a detection episode after injection.
	verdictEpochs = 30
	// setups is how many times a run builds and warms a stack to time
	// set-up; the median is reported.
	setups = 3

	leakComponent = tpcw.CompHome
	leakSize      = 100 << 10 // the paper's 100 KB injection
	leakN         = 100
)

// scale is the TPC-W database every node serves: the size every scenario
// of the repository runs at. Larger customer tables turn the serve path
// into a full-scan benchmark (see README.md).
var scale = tpcw.Scale{Items: 1000, Customers: 1440}

// detectConfig is the detector tuning the repository's scenarios use.
var detectConfig = detect.Config{Window: 20, MinSamples: 6, Consecutive: 3}

// observerFunc adapts a function to core.SampleObserver.
type observerFunc func(time.Time, []core.ComponentSample)

func (f observerFunc) ObserveSample(now time.Time, b []core.ComponentSample) { f(now, b) }

// node is one monitored TPC-W application server driven on its own
// simulation engine.
type node struct {
	engine    *sim.Engine
	weaver    *aspect.Weaver
	app       *tpcw.App
	heap      *jvmheap.Heap
	container *servlet.Container
	framework *core.Framework
	bank      *core.DetectorBank
	driver    *eb.Driver
	// afterRound runs after the detector bank has observed a round.
	afterRound func()
}

// buildNode assembles a node: weaver, database, TPC-W, container, the
// monitoring framework over all fourteen interactions, and the detector
// bank. The benchmark drives Manager.Sample itself and brackets the bank
// with two observers, so the sampling round and the detector's share of
// it are timed from outside.
func buildNode(seed uint64, mix eb.Mix, tr *tracer) (*node, error) {
	engine := sim.NewEngine()
	weaver := aspect.NewWeaver(engine.Clock())
	db := sqldb.NewDB()
	sc := scale
	sc.Seed = seed + 1
	app, err := tpcw.NewApp(db, weaver, engine.Clock(), sc)
	if err != nil {
		return nil, err
	}
	heap := jvmheap.New(jvmheap.DefaultCapacity, engine.Clock())
	container := servlet.NewContainer(engine, weaver, db, heap, servlet.Config{})
	if err := app.DeployAll(container); err != nil {
		return nil, err
	}
	if err := container.Start(); err != nil {
		return nil, err
	}
	f, err := core.New(core.Options{Weaver: weaver, Clock: engine.Clock(), Heap: heap, SampleInterval: sampleEvery})
	if err != nil {
		return nil, err
	}
	for _, name := range tpcw.Interactions {
		s, _ := app.Servlet(name)
		if err := f.InstrumentComponent(name, s); err != nil {
			return nil, err
		}
	}
	n := &node{engine: engine, weaver: weaver, app: app, heap: heap, container: container, framework: f}
	traced := false
	f.Manager().Subscribe(observerFunc(func(time.Time, []core.ComponentSample) {
		if traced = tr.enabled(); traced {
			tr.begin("detect", "observe", "")
		}
	}))
	if n.bank, err = f.AttachDetectors(detectConfig); err != nil {
		return nil, err
	}
	f.Manager().Subscribe(observerFunc(func(time.Time, []core.ComponentSample) {
		if traced {
			tr.end()
		}
		if n.afterRound != nil {
			n.afterRound()
		}
	}))
	engine.Every(sampleEvery, func(now time.Time) {
		on := tr.enabled()
		if on {
			tr.begin("core", "sample", "")
		}
		f.Manager().Sample(now)
		if on {
			tr.end()
		}
	})
	n.driver = eb.NewDriver(engine, container, eb.Config{Mix: mix, Seed: seed, Items: scale.Items, Customers: scale.Customers})
	return n, nil
}

// injectLeak arms the paper's memory leak in component.
func (n *node) injectLeak(component string, seed uint64) error {
	target, _ := n.app.Servlet(component)
	retainer, ok := target.(faultinject.Retainer)
	if !ok {
		return fmt.Errorf("servlet %q is not injectable", component)
	}
	leak := &faultinject.MemoryLeak{Component: component, Target: retainer, Size: leakSize, N: leakN, Heap: n.heap, Seed: seed}
	return n.weaver.Register(leak.Aspect())
}

// alarming lists the components the node's detector bank currently
// alarms on, over every watched resource.
func (n *node) alarming() []string {
	var out []string
	for _, res := range core.DetectorResources {
		for _, v := range n.bank.Verdicts(res) {
			if v.Alarm {
				out = append(out, v.Component)
			}
		}
	}
	return out
}

// at schedules fn at offset d from the engine's current instant.
func at(e *sim.Engine, d time.Duration, fn func()) {
	e.Schedule(e.Now().Add(d), func(time.Time) { fn() })
}

// browseNode measures the serve path of one monitored node under the
// Browsing mix. Untraced, the AC is switched on and off in ABBA blocks
// so its cost is a ratio taken within one process; traced, the AC stays
// on and the tracer is switched instead. Detection episodes then time
// the node's own loop from a leak's injection to its verdict.
func browseNode(r *run) error {
	var setup []time.Duration
	for i := 0; i < setups-1; i++ {
		settle()
		start := time.Now()
		n, err := buildNode(r.seed, eb.Browsing, nil)
		if err != nil {
			return err
		}
		n.driver.Run([]eb.Phase{{Duration: warmUp, EBs: browseEBs}})
		setup = append(setup, time.Since(start))
		r.attempted += n.driver.Completed()
		r.failed += n.driver.Failed()
		n.container.Stop()
	}

	// One Driver.Run covers warm-up and every block: an eb.Driver must
	// not be re-entered (a second Run restarts browsers whose think timers
	// are still queued, multiplying the load).
	blocks := 4 * max(1, r.seconds*3/10)
	settle()
	start := time.Now()
	n, err := buildNode(r.seed, eb.Browsing, r.tr)
	if err != nil {
		return err
	}
	var traceAspect *aspect.Aspect
	if r.tr != nil {
		traceAspect = r.tr.serveAspect()
		if err := n.weaver.Register(traceAspect); err != nil {
			return err
		}
	}
	// toggle sets the switched side of unit i: the AC untraced, the
	// tracer traced.
	toggle := func(i int) {
		if r.tr != nil {
			traceAspect.SetEnabled(abba(i))
			r.tr.setEnabled(abba(i))
		} else {
			n.framework.SetMonitoringEnabled(abba(i))
		}
	}
	if r.tr != nil { // warm-up runs untraced
		traceAspect.SetEnabled(false)
		r.tr.setEnabled(false)
	}
	var units []unit
	var last mark
	var lastOps int64
	at(n.engine, warmUp, func() {
		setup = append(setup, time.Since(start))
		settle()
		last, lastOps = now(), n.driver.Completed()
		toggle(0)
	})
	for i := 0; i < blocks; i++ {
		at(n.engine, warmUp+time.Duration(i+1)*browseBlock, func() {
			m, ops := now(), n.driver.Completed()
			u := between(last, m, ops-lastOps)
			u.traced = r.tr != nil && abba(i)
			u.monitoring = n.framework.MonitoringEnabled()
			units = append(units, u)
			last, lastOps = m, ops
			toggle(i + 1)
		})
	}
	n.driver.Run([]eb.Phase{{Duration: warmUp + time.Duration(blocks)*browseBlock, EBs: browseEBs}})
	r.attempted += n.driver.Completed()
	r.failed += n.driver.Failed()
	n.container.Stop()
	r.check(n.driver.Failed() == 0, "browse-node: %d failed requests", n.driver.Failed())

	on, off := split(units, func(u unit) bool { return u.monitoring })
	var ratios []float64
	for q := 0; q+4 <= len(units); q += 4 {
		a, b := split(units[q:q+4], func(u unit) bool { return u.monitoring })
		if len(a) > 0 && len(b) > 0 {
			ratios = append(ratios, totals(a).cpuPerOp()/totals(b).cpuPerOp())
		}
	}
	r.e2e["setup_s"] = median(seconds(setup))
	r.e2e["ops_per_s"], r.e2e["cpu_us_per_op"] = rates(on)
	r.detail["serve.req_per_s"] = r.e2e["ops_per_s"]
	r.detail["serve.cpu_us_per_req"] = r.e2e["cpu_us_per_op"]
	r.detail["serve.req_measured"] = totals(units).ops
	r.detail["serve.blocks"] = len(units)
	if len(off) > 0 {
		r.detail["serve.monitor_cost_ratio"] = median(ratios)
		r.detail["serve.monitor_cost_quads"] = len(ratios)
	}

	if err := detectionEpisodes(r, max(2, r.seconds/2)); err != nil {
		return err
	}
	if r.tr != nil {
		serveLayers(r, units)
		r.layer["trace.overhead_us_per_op"] = traceOverhead(units)
	}
	return nil
}

// detectionEpisodes runs the paper's single-node loop k times on fresh
// nodes: inject the leak after warm-up, and count epochs and wall time
// until the node's detector bank names the leaking component.
func detectionEpisodes(r *run, k int) error {
	var walls []time.Duration
	var epochs, rss []float64
	for ep := 0; ep < k; ep++ {
		settle()
		n, err := buildNode(r.seed*1000+uint64(ep), eb.Browsing, nil)
		if err != nil {
			return err
		}
		var injected time.Time
		rounds, found := 0, false
		n.afterRound = func() {
			if found {
				return
			}
			names := n.alarming()
			if injected.IsZero() {
				r.check(len(names) == 0, "browse-node: episode %d: alarm before injection on %v", ep, names)
				return
			}
			rounds++
			if len(names) > 0 {
				found = true
				walls = append(walls, time.Since(injected))
				epochs = append(epochs, float64(rounds))
				r.check(len(names) == 1 && names[0] == leakComponent,
					"browse-node: episode %d: first verdict names %v, want %s", ep, names, leakComponent)
			}
		}
		at(n.engine, warmUp, func() {
			if err := n.injectLeak(leakComponent, r.seed+uint64(ep)); err != nil {
				r.check(false, "browse-node: inject: %v", err)
			}
			injected = time.Now()
		})
		n.driver.Run([]eb.Phase{{Duration: warmUp + verdictEpochs*sampleEvery, EBs: verdictEBs}})
		rss = append(rss, retainedRSSMB())
		n.container.Stop()
		r.attempted += n.driver.Completed()
		r.failed += n.driver.Failed()
		r.check(n.driver.Failed() == 0, "browse-node: episode %d: %d failed requests", ep, n.driver.Failed())
		r.check(found, "browse-node: episode %d: no verdict within %d epochs", ep, verdictEpochs)
	}
	r.e2e["verdict_epochs"] = mean(epochs)
	// The memory a node retains is taken here, over many seeds, not from
	// the single ABBA node: whether a table's map has just doubled moves
	// one node's figure by 25% from seed to seed.
	r.e2e["retained_rss_mb"] = median(rss)
	r.detail["detect.retained_rss_mb"] = rss
	r.detail["detect.to_verdict_s"] = median(seconds(walls))
	r.detail["detect.verdict_epochs"] = epochs
	r.detail["detect.episodes"] = k
	return nil
}

// serveLayers derives the sqldb, servlet, core, detect and Go runtime
// per-layer metrics of a serve-path workload from its spans and units.
func serveLayers(r *run, units []unit) {
	t, l := r.tr, r.layer
	pct(l, "sqldb.best_sellers_us", t.durations("sqldb", tpcw.CompCatalogDAO, "BestSellers"))
	pct(l, "sqldb.dao_us", t.durations("sqldb", "", ""))
	l["sqldb.order_write_us_p50"] = median(t.durations("sqldb", tpcw.CompOrderDAO, "Create"))
	if svc := t.count("servlet"); svc > 0 {
		l["sqldb.dao_calls_per_req"] = float64(t.count("sqldb")) / float64(svc)
	}
	pct(l, "servlet.service_us", t.durations("servlet", "", "Service"))
	l["tpcw.best_sellers.self_us_p50"] = median(t.selfTimes("servlet", tpcw.CompBestSellers, "Service"))
	pct(l, "core.sample_us", t.durations("core", "sample", ""))
	pct(l, "detect.observe_us", t.durations("detect", "observe", ""))
	_, plain := split(units, func(u unit) bool { return u.traced })
	tot := totals(plain)
	if tot.ops > 0 {
		l["go.alloc_bytes_per_req"] = float64(tot.alloc) / float64(tot.ops)
	}
	l["go.gc_cycles"] = float64(totals(units).cycles)
}
