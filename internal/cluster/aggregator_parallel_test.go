package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jmx"
)

// shardedParityScenario drives one eventful cluster history — skewed
// clocks, a sick replica, a mid-run join and a mid-run leave — into an
// aggregator and returns everything externally observable: the drained
// notification stream, the final per-resource reports (times stripped:
// the merged timeline's high-water mark depends on arrival interleaving
// by design, verdicts must not), and the final membership.
func shardedParityScenario(a *Aggregator) ([]jmx.Notification, map[string][]ClusterVerdict, []NodeStatus) {
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	offsets := map[string]time.Duration{"node2": 90 * time.Minute, "node3": -45 * time.Second}
	leaks := map[string]int64{"node2": 4096}
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	var notifs []jmx.Notification
	for seq := int64(1); seq <= 40; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			a.Ingest(syntheticRound(n, seq, at.Add(offsets[n]), leaks[n]))
		}
		if seq == 12 {
			// node4 joins with a fresh local sequence.
			nodes = append(nodes, "node4")
		}
		if seq >= 12 {
			a.Ingest(syntheticRound("node4", seq-11, at, 0))
		}
		if seq == 25 {
			a.Leave("node3")
			nodes = []string{"node1", "node2", "node4"}
		}
		notifs = append(notifs, a.DrainNotifications()...)
	}
	verdicts := make(map[string][]ClusterVerdict)
	for _, res := range core.DetectorResources {
		if rep := a.Report(res); rep != nil {
			verdicts[res] = append([]ClusterVerdict(nil), rep.Verdicts...)
		}
	}
	return notifs, verdicts, a.Nodes()
}

// TestAggregatorShardedFoldMatchesSerial pins the sharding contract: the
// lane-sharded aggregator produces the same notification stream,
// verdicts and membership as the serial reference configuration (one
// lane), byte for byte.
func TestAggregatorShardedFoldMatchesSerial(t *testing.T) {
	serial := New(Config{Detect: testDetect(), IngestLanes: 1})
	sharded := New(Config{Detect: testDetect(), IngestLanes: 8})

	wantNotifs, wantVerdicts, wantNodes := shardedParityScenario(serial)
	gotNotifs, gotVerdicts, gotNodes := shardedParityScenario(sharded)

	if !reflect.DeepEqual(gotNotifs, wantNotifs) {
		t.Errorf("notification streams diverge:\nserial:  %+v\nsharded: %+v", wantNotifs, gotNotifs)
	}
	if !reflect.DeepEqual(gotVerdicts, wantVerdicts) {
		t.Errorf("verdicts diverge:\nserial:  %+v\nsharded: %+v", wantVerdicts, gotVerdicts)
	}
	if !reflect.DeepEqual(gotNodes, wantNodes) {
		t.Errorf("membership diverges:\nserial:  %+v\nsharded: %+v", wantNodes, gotNodes)
	}
	if len(wantNotifs) == 0 || len(wantVerdicts[core.ResourceMemory]) == 0 {
		t.Fatalf("scenario produced no alarms to compare (notifs=%d)", len(wantNotifs))
	}
}

// TestAggregatorConcurrentPublishersSoak is the -race soak: N forwarders
// publish into one aggregator from their own goroutines (the wire
// deployment's shape) while monitoring goroutines hammer every read path.
// Verdict correctness is asserted at the end; the race detector asserts
// the rest.
func TestAggregatorConcurrentPublishersSoak(t *testing.T) {
	const nodes, rounds = 8, 60
	a := New(Config{Detect: testDetect()})
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i+1)
	}
	a.Expect(names...)

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var drained []jmx.Notification
		for {
			select {
			case <-done:
				// A final drain below picks up anything still queued.
				_ = drained
				return
			default:
			}
			a.Epoch()
			a.TotalRounds()
			a.Nodes()
			a.Report(core.ResourceMemory)
			a.NodeReport("node3", core.ResourceMemory)
			a.MergedRounds()
			a.LiveRank(core.ResourceMemory)
			drained = append(drained, a.DrainNotifications()...)
		}
	}()

	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	var barrier sync.WaitGroup
	feeds := make([]chan int64, nodes)
	var pubs sync.WaitGroup
	for i, n := range names {
		feeds[i] = make(chan int64, 1)
		leak := int64(0)
		if n == "node3" {
			leak = 4096
		}
		fw := NewForwarder(n, NewInProc(a))
		pubs.Add(1)
		go func(feed <-chan int64, node string, leak int64) {
			defer pubs.Done()
			for seq := range feed {
				r := syntheticRound(node, seq, t0.Add(time.Duration(seq)*30*time.Second), leak)
				fw.ObserveSample(r.Time, r.Samples)
				barrier.Done()
			}
		}(feeds[i], n, leak)
	}
	for seq := int64(1); seq <= rounds; seq++ {
		// The per-round barrier models the shared sampling cadence and
		// keeps node drift inside the staleness window.
		barrier.Add(nodes)
		for _, feed := range feeds {
			feed <- seq
		}
		barrier.Wait()
	}
	for _, feed := range feeds {
		close(feed)
	}
	pubs.Wait()
	close(done)
	readers.Wait()

	if got := a.TotalRounds(); got != nodes*rounds {
		t.Fatalf("TotalRounds = %d, want %d", got, nodes*rounds)
	}
	if got := a.Epoch(); got != rounds {
		t.Fatalf("epoch = %d, want %d", got, rounds)
	}
	rep := a.Report(core.ResourceMemory)
	if rep == nil || !rep.Alarming() {
		t.Fatalf("no memory verdict after soak: %v", rep)
	}
	top, _ := rep.Top()
	if top.Pair() != "node3/leaky" {
		t.Fatalf("top verdict = %q, want node3/leaky", top.Pair())
	}
}

// TestLeaveResetRaceParallelFold hammers the administrative membership
// surface — Leave and ResetNode, the operations a rejuvenation
// controller or an operator issues — against concurrent publishers on
// several lanes, whose rounds complete and fold epochs while Leave and
// ResetNode run. The race detector asserts the locking; the
// test asserts the plane comes out coherent: nodes that kept publishing
// rejoin, epochs advance, and every admission slot is released.
func TestLeaveResetRaceParallelFold(t *testing.T) {
	const nodes, rounds = 6, 80
	a := New(Config{Detect: testDetect(), IngestLanes: 4})
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i+1)
	}
	a.Expect(names...)

	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			a.Leave(names[i%nodes])
			a.ResetNode(names[(i+1)%nodes])
			a.Nodes()
			a.Report(core.ResourceMemory)
		}
	}()

	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	var barrier sync.WaitGroup
	feeds := make([]chan int64, nodes)
	var pubs sync.WaitGroup
	for i, n := range names {
		feeds[i] = make(chan int64, 1)
		pubs.Add(1)
		go func(feed <-chan int64, node string) {
			defer pubs.Done()
			for seq := range feed {
				// Publishing straight through Leave exercises the rejoin
				// path against the fold in flight.
				a.Ingest(syntheticRound(node, seq, t0.Add(time.Duration(seq)*30*time.Second), 0))
				barrier.Done()
			}
		}(feeds[i], n)
	}
	for seq := int64(1); seq <= rounds; seq++ {
		barrier.Add(nodes)
		for _, feed := range feeds {
			feed <- seq
		}
		barrier.Wait()
	}
	for _, feed := range feeds {
		close(feed)
	}
	pubs.Wait()
	close(done)
	churn.Wait()

	// Quiesce: everyone publishes a few more lockstep rounds with the
	// churn stopped, after which the whole membership must be active
	// and the epoch line moving again.
	before := a.Epoch()
	for seq := int64(rounds + 1); seq <= rounds+10; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range names {
			a.Ingest(syntheticRound(n, seq, at, 0))
		}
	}
	if got := a.Epoch(); got <= before {
		t.Fatalf("epoch stuck at %d after churn stopped", got)
	}
	for _, st := range a.Nodes() {
		if !st.Active {
			t.Fatalf("node %s never rejoined after churn: %+v", st.Node, st)
		}
	}
	for i := range a.lanes {
		if got := a.lanes[i].queued.Load(); got != 0 {
			t.Fatalf("lane %d admission counter = %d after quiesce, want 0", i, got)
		}
	}
	if a.ShedRounds() != 0 {
		// Publishers were barriered, never more than one in flight per
		// node against the default 1024-deep lanes: nothing may shed.
		t.Fatalf("ShedRounds = %d under a paced load", a.ShedRounds())
	}
}

// foldAllocsPerEpoch drives a fresh 3-node aggregator past its window
// fill, then returns the mean heap allocations per steady-state epoch
// (three ingests and the fold they complete), counted from the runtime's
// malloc total over the given number of epochs.
func foldAllocsPerEpoch(epochs int) float64 {
	a := New(Config{Detect: testDetect()})
	gens := []*roundGen{newRoundGen("node1"), newRoundGen("node2"), newRoundGen("node3")}
	a.Expect("node1", "node2", "node3")
	seq := int64(0)
	round := func() {
		seq++
		for _, g := range gens {
			a.Ingest(g.at(seq))
		}
	}
	for seq < 64 {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < epochs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(epochs)
}

// TestFoldAllocsIndependentOfGOMAXPROCS pins the epoch fold's allocation
// count at every GOMAXPROCS: the fold runs inline on the completing
// ingest, so more processors must not mean more allocations per epoch.
// testing.AllocsPerRun forces GOMAXPROCS=1, so the test counts mallocs
// itself; each setting keeps its quietest of three runs, so a stray
// allocation elsewhere in the process does not read as fold cost.
func TestFoldAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	const epochs = 300
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	mean := make(map[int]float64)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		best := foldAllocsPerEpoch(epochs)
		for i := 0; i < 2; i++ {
			best = min(best, foldAllocsPerEpoch(epochs))
		}
		mean[procs] = best
	}
	for _, procs := range []int{2, 4} {
		if extra := mean[procs] - mean[1]; extra > 0.5 {
			t.Errorf("GOMAXPROCS=%d: %.2f allocs/epoch, %.2f more than at GOMAXPROCS=1 (%.2f)",
				procs, mean[procs], extra, mean[1])
		}
	}
	t.Logf("allocs/epoch by GOMAXPROCS: 1=%.2f 2=%.2f 4=%.2f", mean[1], mean[2], mean[4])
}
