package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/tpcw"
)

const (
	fleetNodes = 32
	// fleetWarm sequence numbers fill the detector windows before any
	// epoch is timed; set-up time includes them.
	fleetWarm = 100
	// fleetMeasured sequence numbers are timed per episode; the leak
	// starts halfway through them.
	fleetMeasured = 400
	// fleetLeakPerRound is the seeded component's size growth per round.
	fleetLeakPerRound = 64 << 10
)

// fleetEvent is one delivered epoch.
type fleetEvent struct {
	epoch int64
	at    time.Time
	pairs []string
}

// fleetFanin feeds one aggregator generated rounds from 32 synthetic
// nodes of 14 components over at most nproc binary wires on net.Pipe.
// Publishers move in lock-step: every node publishes sequence s, then
// all wait until epoch s is delivered. Unpaced publishers run ahead of
// each other, and laggard eviction then changes the verdicts from run to
// run. Healthy streams are stationary; one seeded (node, component)
// starts a linear leak halfway through each episode's timed epochs.
func fleetFanin(r *run) error {
	wires := min(runtime.NumCPU(), 4)
	episodes := max(2, r.seconds*2/3)
	var setup []time.Duration
	var units []unit
	var verdictWall []time.Duration
	var verdictEpochs, latencies []float64
	var folds, rss []float64
	var wireBytes, wireRounds int64
	var shed int64
	for ep := 0; ep < episodes; ep++ {
		traced := r.tr != nil && abba(ep)
		r.tr.setEnabled(traced)
		res, err := fleetEpisode(r, ep, wires, traced)
		if err != nil {
			return err
		}
		setup = append(setup, res.setup)
		units = append(units, res.unit)
		latencies = append(latencies, res.latencies...)
		if res.verdictEpoch > 0 {
			verdictEpochs = append(verdictEpochs, float64(res.verdictEpoch))
			verdictWall = append(verdictWall, res.verdictWall)
		}
		folds = append(folds, res.fold...)
		rss = append(rss, res.rss)
		wireBytes += res.bytes
		wireRounds += res.rounds
		shed += res.shed
	}
	r.e2e["setup_s"] = median(seconds(setup))
	r.e2e["ops_per_s"], r.e2e["cpu_us_per_op"] = rates(units)
	r.e2e["verdict_epochs"] = mean(verdictEpochs)
	r.e2e["retained_rss_mb"] = median(rss)
	r.detail["fleet.to_verdict_s"] = median(seconds(verdictWall))
	r.detail["fleet.rounds_per_s"] = r.e2e["ops_per_s"]
	r.detail["fleet.cpu_us_per_round"] = r.e2e["cpu_us_per_op"]
	r.detail["fleet.verdict_epochs"] = verdictEpochs
	r.detail["fleet.verdict_ms_p50"] = quantile(latencies, 0.5)
	r.detail["fleet.verdict_ms_p99"] = quantile(latencies, 0.99)
	r.detail["fleet.verdict_ms_samples"] = len(latencies)
	r.detail["fleet.wires"] = wires
	r.detail["fleet.episodes"] = episodes
	if r.tr != nil {
		l := r.layer
		pct(l, "cluster.publish_us", r.tr.durations("cluster", "publish", ""))
		pct(l, "cluster.ingest_us", r.tr.durations("cluster", "ingest", ""))
		pct(l, "cluster.fold_ms", folds)
		l["cluster.wire_bytes_per_round"] = float64(wireBytes) / float64(wireRounds)
		l["cluster.shed_rounds"] = float64(shed)
		_, plain := split(units, func(u unit) bool { return u.traced })
		tot := totals(plain)
		l["go.alloc_bytes_per_round"] = float64(tot.alloc) / float64(tot.ops)
		l["go.gc_cycles"] = float64(totals(units).cycles)
		l["trace.overhead_us_per_op"] = traceOverhead(units)
	}
	return nil
}

type fleetResult struct {
	setup        time.Duration
	unit         unit
	latencies    []float64 // ms, last round's publish start to epoch delivery
	verdictEpoch int64
	verdictWall  time.Duration
	fold         []float64 // ms, traced episodes only
	rss          float64   // MB retained at the episode's end
	bytes        int64
	rounds       int64
	shed         int64
}

// fleetEpisode runs one aggregator through warm-up and the timed epochs.
func fleetEpisode(r *run, ep, wires int, traced bool) (fleetResult, error) {
	var res fleetResult
	settle()
	start := time.Now()
	agg := cluster.New(cluster.Config{Detect: detectConfig})
	names := make([]string, fleetNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%02d", i+1)
	}
	agg.Expect(names...)
	seedSum := r.seed*7919 + uint64(ep)
	sickIdx, sickComp := int(seedSum%fleetNodes), int(seedSum/fleetNodes%uint64(len(tpcw.Interactions)))
	sickPair := names[sickIdx] + "/" + tpcw.Interactions[sickComp]
	onset := int64(fleetWarm + fleetMeasured/2)

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var events []fleetEvent
	agg.SubscribeEpochs(func(ev cluster.EpochEvent) {
		e := fleetEvent{epoch: ev.Epoch, at: time.Now()}
		for _, v := range ev.Verdicts {
			e.pairs = append(e.pairs, v.Pair())
		}
		mu.Lock()
		if traced {
			last, _ := agg.FoldLatency()
			res.fold = append(res.fold, float64(last)/1e6)
		}
		events = append(events, e)
		cond.Broadcast()
		mu.Unlock()
	})

	var bytes atomic.Int64
	var serving sync.WaitGroup
	pubs := make([]*publisher, wires)
	for w := range pubs {
		client, server := net.Pipe()
		gc := &gapConn{Conn: server, tr: r.tr, traced: traced}
		serving.Add(1)
		go func() {
			defer serving.Done()
			if err := agg.ServeBinaryConn(gc); err != nil {
				r.check(false, "fleet-fanin: serve: %v", err)
			}
		}()
		pubs[w] = &publisher{wire: cluster.NewBinaryWire(&countConn{Conn: client, n: &bytes}), tr: r.tr, traced: traced}
	}
	for i, name := range names {
		p := pubs[i%wires]
		p.nodes = append(p.nodes, newSynthNode(name, r.seed, i, i == sickIdx, sickComp))
	}

	// publishSeq publishes sequence s from every node in lock-step and
	// waits for epoch s; it returns when the last round started.
	publishSeq := func(s int64) time.Time {
		var wg sync.WaitGroup
		starts := make([]int64, wires)
		for w, p := range pubs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				starts[w] = p.publish(s, onset)
			}()
		}
		wg.Wait()
		latest := starts[0]
		for _, v := range starts[1:] {
			latest = max(latest, v)
		}
		mu.Lock()
		for int64(len(events)) < s {
			cond.Wait()
		}
		mu.Unlock()
		return time.Unix(0, latest)
	}

	for s := int64(1); s <= fleetWarm; s++ {
		publishSeq(s)
	}
	res.setup = time.Since(start)
	settle()
	m0 := now()
	lastRound := make(map[int64]time.Time, fleetMeasured)
	for s := int64(fleetWarm + 1); s <= fleetWarm+fleetMeasured; s++ {
		lastRound[s] = publishSeq(s)
		mu.Lock()
		ev := events[s-1]
		mu.Unlock()
		res.latencies = append(res.latencies, float64(ev.at.Sub(lastRound[s]))/1e6)
	}
	res.unit = between(m0, now(), fleetMeasured*fleetNodes)
	res.unit.traced = traced

	for _, p := range pubs {
		if err := p.wire.Close(); err != nil {
			return res, err
		}
	}
	serving.Wait()
	agg.SyncFolds()
	res.rss = retainedRSSMB()

	// Gates: every sequence number completed exactly one epoch, and the
	// only pair ever named is the seeded one.
	r.check(int64(len(events)) == fleetWarm+fleetMeasured, "fleet-fanin: %d epochs for %d rounds per node", len(events), fleetWarm+fleetMeasured)
	for i, ev := range events {
		r.check(ev.epoch == int64(i+1), "fleet-fanin: epoch %d delivered as #%d", ev.epoch, i+1)
		for _, p := range ev.pairs {
			r.check(p == sickPair, "fleet-fanin: epoch %d names %s, seeded pair is %s", ev.epoch, p, sickPair)
			if res.verdictEpoch == 0 && p == sickPair {
				res.verdictEpoch = ev.epoch - onset
				res.verdictWall = ev.at.Sub(lastRound[onset+1])
			}
		}
	}
	r.check(res.verdictEpoch > 0, "fleet-fanin: episode %d: %s never named", ep, sickPair)
	res.shed = agg.ShedRounds()
	r.check(res.shed == 0, "fleet-fanin: %d rounds shed", res.shed)
	res.rounds = (fleetWarm + fleetMeasured) * fleetNodes
	res.bytes = bytes.Load()
	r.attempted += res.rounds
	r.failed += res.shed
	return res, nil
}

// synthNode generates one node's rounds: stationary healthy components
// (constant size, constant per-round usage and CPU), and on the sick node
// one component whose size grows linearly after onset.
type synthNode struct {
	name     string
	samples  []core.ComponentSample
	rates    []int64
	sick     int // component index, -1 when healthy
	baseTime time.Time
}

func newSynthNode(name string, seed uint64, idx int, sick bool, sickComp int) *synthNode {
	g := &synthNode{name: name, sick: -1, baseTime: time.Unix(1_000_000_000, 0)}
	if sick {
		g.sick = sickComp
	}
	for c, comp := range tpcw.Interactions {
		g.samples = append(g.samples, core.ComponentSample{Component: comp, Size: int64(1<<20 + c*4096), SizeOK: true, Threads: 1})
		g.rates = append(g.rates, int64(20+(seed+uint64(idx*31+c*17))%40))
	}
	return g
}

// round fills the generator's samples for sequence s.
func (g *synthNode) round(s, onset int64) cluster.Round {
	for c := range g.samples {
		smp := &g.samples[c]
		smp.Usage = s * g.rates[c]
		smp.CPUSeconds = float64(smp.Usage) * 0.002
		smp.LatencySeconds = float64(smp.Usage) * 0.005
		smp.Size = int64(1<<20 + c*4096)
		if c == g.sick && s > onset {
			smp.Size += (s - onset) * fleetLeakPerRound
		}
	}
	return cluster.Round{Node: g.name, Seq: s, Time: g.baseTime.Add(time.Duration(s) * sampleEvery), Samples: g.samples}
}

// publisher owns one wire and the nodes multiplexed onto it.
type publisher struct {
	wire   *cluster.BinaryWire
	nodes  []*synthNode
	tr     *tracer
	traced bool
}

// publish sends sequence s for every node on the wire and returns the
// start time (unix ns) of its last round.
func (p *publisher) publish(s, onset int64) int64 {
	var last int64
	for _, g := range p.nodes {
		start := time.Now()
		last = start.UnixNano()
		if err := p.wire.Publish(g.round(s, onset)); err != nil {
			panic(fmt.Sprintf("publish: %v", err)) // the aggregator's end closed: its serve error is the cause
		}
		if p.traced {
			end := p.tr.since()
			p.tr.add("cluster", "publish", g.name, end-int64(time.Since(start)), end, -1)
		}
	}
	return last
}

// countConn counts the bytes a publisher writes.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// gapConn times the aggregator's work between two reads of its
// connection: decoding and ingesting what the last read returned.
type gapConn struct {
	net.Conn
	tr       *tracer
	traced   bool
	returned int64
}

func (c *gapConn) Read(b []byte) (int, error) {
	if c.traced && c.returned != 0 {
		t := c.tr.since()
		c.tr.add("cluster", "ingest", "", c.returned, t, -1)
	}
	n, err := c.Conn.Read(b)
	if c.traced {
		c.returned = c.tr.since()
	}
	return n, err
}
