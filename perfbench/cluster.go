package main

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/eb"
	"repro/internal/experiment"
	"repro/internal/rejuv"
)

const (
	clusterNodes = 3
	clusterEBs   = 150
	// loopEpochs bounds an episode after injection. node2 is Healthy
	// again 18-21 epochs after injection; the leak, still armed, cannot
	// drain it again before cooldown (8) plus hold-down (3) epochs more,
	// so it is not drained twice within the episode.
	loopEpochs = 28
	sickNode   = "node2"
)

// loopConfig is the actuation tuning of the repository's closed-loop
// scenarios (S17): hold-down 3, drain 2, reboot 3, probation 6 epochs.
var loopConfig = rejuv.Config{
	HoldDownEpochs:  3,
	MaxConcurrent:   1,
	DrainEpochs:     2,
	RebootEpochs:    3,
	ProbationEpochs: 6,
	ProbationWeight: 1,
	HealthyWeight:   1,
	CooldownEpochs:  8,
}

// loopResult is one order-cluster episode.
type loopResult struct {
	setup                   time.Duration
	unit                    unit
	verdictEpoch, recovered int64
	verdictWall, recovWall  time.Duration
	folds, rtts             []float64 // ms
	commands                int
	shed                    int64
	rss                     float64 // MB retained at the episode's end
	// unpinEpoch is when node2's drain deadline force-unpinned its
	// sessions; failed requests are split around it.
	unpinEpoch                          int64
	failedBeforeUnpin, failedAfterUnpin int64
}

// orderCluster runs the paper's whole loop on a three-node cluster under
// the Ordering mix: a 100 KB leak injected on node2/tpcw.home after
// warm-up, sampled, detected, drained, micro-rebooted and returned to
// Healthy through probation. Each episode is a fresh cluster driven by
// one Driver.Run; serve costs are taken from injection to the end.
func orderCluster(r *run) error {
	episodes := max(2, r.seconds/2)
	var setup, verdictWall, recovWall []time.Duration
	var units []unit
	var verdictEpochs, recoveredEpochs, folds, rtts, rss []float64
	commands, shed := 0, int64(0)
	var unpinFailed []float64
	for ep := 0; ep < episodes; ep++ {
		traced := r.tr != nil && abba(ep)
		res, err := loopEpisode(r, ep, traced)
		if err != nil {
			return err
		}
		setup = append(setup, res.setup)
		units = append(units, res.unit)
		verdictEpochs = append(verdictEpochs, float64(res.verdictEpoch))
		recoveredEpochs = append(recoveredEpochs, float64(res.recovered))
		verdictWall = append(verdictWall, res.verdictWall)
		recovWall = append(recovWall, res.recovWall)
		folds = append(folds, res.folds...)
		rtts = append(rtts, res.rtts...)
		commands += res.commands
		shed += res.shed
		unpinFailed = append(unpinFailed, float64(res.failedAfterUnpin))
		rss = append(rss, res.rss)
	}
	r.e2e["setup_s"] = median(seconds(setup))
	r.e2e["ops_per_s"], r.e2e["cpu_us_per_op"] = rates(units)
	r.e2e["verdict_epochs"] = mean(verdictEpochs)
	r.e2e["retained_rss_mb"] = median(rss)
	r.detail["serve.req_per_s"] = r.e2e["ops_per_s"]
	r.detail["serve.cpu_us_per_req"] = r.e2e["cpu_us_per_op"]
	r.detail["loop.verdict_epochs"] = verdictEpochs
	r.detail["loop.recovered_epochs"] = recoveredEpochs
	r.detail["loop.to_verdict_s"] = median(seconds(verdictWall))
	r.detail["loop.to_recovered_s"] = median(seconds(recovWall))
	r.detail["loop.episodes"] = episodes
	r.detail["loop.unpinned_failed_requests"] = unpinFailed
	if r.tr != nil {
		serveLayers(r, units)
		l := r.layer
		pct(l, "cluster.ingest_us", r.tr.durations("cluster", "ingest", ""))
		pct(l, "cluster.fold_ms", folds)
		l["cluster.shed_rounds"] = float64(shed)
		l["rejuv.control_rtt_ms"] = median(rtts)
		l["rejuv.commands"] = float64(commands)
		l["trace.overhead_us_per_op"] = traceOverhead(units)
	}
	return nil
}

func loopEpisode(r *run, ep int, traced bool) (loopResult, error) {
	var res loopResult
	settle()
	start := time.Now()
	r.tr.setEnabled(false)
	var mu sync.Mutex // control acks may resolve off the engine goroutine
	sc := scale
	seed := r.seed*1000 + uint64(ep)
	sc.Seed = seed + 1
	rc := loopConfig
	cs, err := experiment.NewClusterStack(experiment.ClusterConfig{
		Nodes:  clusterNodes,
		Seed:   seed,
		Scale:  sc,
		Mix:    eb.Ordering,
		Detect: detectConfig,
		Policy: cluster.RoundRobin,
		Rejuv:  &rc,
		RejuvControl: func(next rejuv.CommandSender) rejuv.CommandSender {
			return &timedSender{next: next, done: func(rtt time.Duration) {
				mu.Lock()
				res.rtts = append(res.rtts, float64(rtt)/1e6)
				res.commands++
				mu.Unlock()
			}}
		},
		Chaos: func(_ string, next cluster.Transport) cluster.Transport {
			return &timedTransport{next: next, tr: r.tr}
		},
	})
	if err != nil {
		return res, err
	}
	defer cs.Close()

	var injWall time.Time
	var injEpoch int64
	var m0 mark
	var ops0 int64
	leftHealthy := false
	cs.Aggregator.SubscribeEpochs(func(ev cluster.EpochEvent) {
		if traced {
			last, _ := cs.Aggregator.FoldLatency()
			res.folds = append(res.folds, float64(last)/1e6)
		}
		if injWall.IsZero() {
			r.check(len(ev.Verdicts) == 0, "order-cluster: episode %d: verdict before injection at epoch %d", ep, ev.Epoch)
			return
		}
		if res.verdictEpoch == 0 && len(ev.Verdicts) > 0 {
			res.verdictEpoch = ev.Epoch - injEpoch
			res.verdictWall = time.Since(injWall)
			for _, v := range ev.Verdicts {
				r.check(v.Pair() == sickNode+"/"+leakComponent, "order-cluster: episode %d: first verdict names %s", ep, v.Pair())
			}
		}
		st := cs.Rejuv.NodeState(sickNode)
		if st == rejuv.Rejuvenating && res.unpinEpoch == 0 {
			res.unpinEpoch = ev.Epoch
			res.failedBeforeUnpin = cs.Driver.Failed()
		}
		if st != rejuv.Healthy {
			leftHealthy = true
		} else if leftHealthy && res.recovered == 0 {
			res.recovered = ev.Epoch - injEpoch
			res.recovWall = time.Since(injWall)
		}
	})
	at(cs.Engine, warmUp, func() {
		if _, err := cs.InjectLeak(sickNode, leakComponent, leakSize, leakN, seed); err != nil {
			r.check(false, "order-cluster: inject: %v", err)
		}
		res.setup = time.Since(start)
		settle()
		injWall, injEpoch = time.Now(), cs.Aggregator.Epoch()
		m0, ops0 = now(), cs.Driver.Completed()
		if traced {
			for _, n := range cs.Nodes {
				if err := n.Weaver.Register(r.tr.serveAspect()); err != nil {
					r.check(false, "order-cluster: trace: %v", err)
				}
			}
			r.tr.setEnabled(true)
		}
	})
	cs.Driver.Run([]eb.Phase{{Duration: warmUp + loopEpochs*sampleEvery, EBs: clusterEBs}})
	res.unit = between(m0, now(), cs.Driver.Completed()-ops0)
	res.unit.traced = traced
	r.tr.setEnabled(false)
	if err := cs.Sync(); err != nil {
		return res, err
	}
	res.rss = retainedRSSMB()

	r.attempted += cs.Driver.Completed()
	r.failed += cs.Driver.Failed()
	// The drain deadline force-unpins node2's sessions and their state
	// is lost (cluster.Balancer.CompleteDrain): a browser unpinned in the
	// middle of a purchase fails its next buy_confirm. Those failures are
	// counted against attempts; any failure before the unpin fails the run.
	r.check(res.failedBeforeUnpin == 0, "order-cluster: episode %d: %d failed requests before the drain deadline", ep, res.failedBeforeUnpin)
	r.check(res.unpinEpoch > 0, "order-cluster: episode %d: %s was never drained", ep, sickNode)
	res.failedAfterUnpin = cs.Driver.Failed() - res.failedBeforeUnpin
	r.check(res.verdictEpoch > 0, "order-cluster: episode %d: no verdict", ep)
	r.check(res.recovered > 0, "order-cluster: episode %d: %s never returned to Healthy", ep, sickNode)
	for _, n := range cs.Nodes {
		want := int64(0)
		if n.Name == sickNode {
			want = 1
		}
		got := n.Framework.RejuvenationCount()
		r.check(got == want, "order-cluster: episode %d: %d micro-reboots on %s, want %d", ep, got, n.Name, want)
	}
	res.shed = cs.Aggregator.ShedRounds()
	return res, nil
}

// timedSender times each actuation command from send to acknowledgement.
type timedSender struct {
	next rejuv.CommandSender
	done func(time.Duration)
}

func (s *timedSender) SendControl(node string, kind cluster.ControlKind, component string, weight int, done func(cluster.ControlAck, error)) {
	start := time.Now()
	s.next.SendControl(node, kind, component, weight, func(ack cluster.ControlAck, err error) {
		s.done(time.Since(start))
		if done != nil {
			done(ack, err)
		}
	})
}

// timedTransport records a span around each in-process publish, which
// ingests the round (and folds the epoch it completes) synchronously.
type timedTransport struct {
	next cluster.Transport
	tr   *tracer
}

func (t *timedTransport) Publish(round cluster.Round) error {
	if !t.tr.enabled() {
		return t.next.Publish(round)
	}
	start := t.tr.since()
	err := t.next.Publish(round)
	t.tr.add("cluster", "ingest", round.Node, start, t.tr.since(), -1)
	return err
}

func (t *timedTransport) Close() error { return t.next.Close() }
