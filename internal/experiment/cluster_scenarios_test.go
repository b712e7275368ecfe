package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eb"
)

func TestS5SingleNodeLeakNamesNodeAndComponent(t *testing.T) {
	res := S5SingleNodeLeak(scenarioCfg)
	if !res.Pass {
		t.Fatalf("single-node-leak scenario failed:\n%s", res)
	}
	if !strings.Contains(res.Observed, "node2/"+ComponentA) {
		t.Fatalf("verdict does not name (node2, %s): %s", ComponentA, res.Observed)
	}
}

func TestS6UniformLeakIsClusterWide(t *testing.T) {
	res := S6UniformLeak(scenarioCfg)
	if !res.Pass {
		t.Fatalf("uniform-leak scenario failed:\n%s", res)
	}
	if !strings.Contains(res.Observed, "cluster-wide=true") {
		t.Fatalf("verdict not promoted to cluster-wide: %s", res.Observed)
	}
}

func TestS7NodeChurnRaisesNoAlarm(t *testing.T) {
	res := S7NodeChurn(scenarioCfg)
	if !res.Pass {
		t.Fatalf("node-churn scenario failed:\n%s", res)
	}
	if !strings.Contains(res.Observed, "0 alarms") {
		t.Fatalf("expected zero alarms: %s", res.Observed)
	}
}

func TestS8SkewedBalancerRaisesNoAlarm(t *testing.T) {
	res := S8SkewedBalancer(scenarioCfg)
	if !res.Pass {
		t.Fatalf("skewed-balancer scenario failed:\n%s", res)
	}
}

// TestClusterScenariosFullScale runs S5-S8 at the paper's full one-hour
// TimeScale — the acceptance contract requires both scales to hold.
// Skipped under -short; the four runs cost a few seconds of wall time.
func TestClusterScenariosFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale cluster scenarios skipped with -short")
	}
	cfg := scenarioCfg
	cfg.TimeScale = 1.0
	for _, run := range []func(Config) Result{
		S5SingleNodeLeak, S6UniformLeak, S7NodeChurn, S8SkewedBalancer,
	} {
		if res := run(cfg); !res.Pass {
			t.Fatalf("full-scale scenario failed:\n%s", res)
		}
	}
}

// parityOutcome is everything a parity run compares: final cluster
// reports (times stripped — the merged timeline's stamp may differ by
// clamp millis) and per-node verdict components.
type parityOutcome struct {
	clusterReports map[string]cluster.ClusterReport
	nodeVerdicts   map[string]any
}

// runParityScenario drives the three-node sick-replica scenario on a
// cluster assembled from cc (scenario scale/detect tuning applied on
// top) and returns the outcome.
func runParityScenario(t *testing.T, cfg Config, cc ClusterConfig) parityOutcome {
	t.Helper()
	cc.Nodes = 3
	cc.Seed = cfg.Seed
	cc.Scale = scenarioScale(cfg)
	cc.Mix = eb.Shopping
	cc.Detect = scenarioDetectConfig()
	cc.Policy = cluster.RoundRobin
	cs, err := NewClusterStack(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.InjectLeak("node2", ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	cs.Driver.Run([]eb.Phase{{Duration: scaleDuration(time.Hour, cfg.TimeScale), EBs: cfg.EBs}})
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	out := parityOutcome{
		clusterReports: make(map[string]cluster.ClusterReport),
		nodeVerdicts:   make(map[string]any),
	}
	for _, res := range core.DetectorResources {
		if rep := cs.Aggregator.Report(res); rep != nil {
			c := *rep
			c.Time = time.Time{} // merged-timeline stamps may differ by clamp millis
			out.clusterReports[res] = c
		}
		for _, n := range []string{"node1", "node2", "node3"} {
			if nr := cs.Aggregator.NodeReport(n, res); nr != nil {
				out.nodeVerdicts[n+"/"+res] = nr.Components
			}
		}
	}
	return out
}

// parityVariants is the transport × aggregator-plane matrix every parity
// run must agree across: the serial reference aggregator in-process,
// then the lane-sharded aggregator over every transport —
// in-process, the binary wire on net pipes, and the binary wire with the
// v5 BATCH flush policy (4 rounds per frame with a short deadline).
var parityVariants = []struct {
	name string
	cc   ClusterConfig
}{
	{"inproc-sharded", ClusterConfig{IngestLanes: 8}},
	{"binary-sharded", ClusterConfig{WireTransport: true, IngestLanes: 8}},
	// Batching lets the flushing node run WireBatchRounds epochs ahead,
	// so the staleness window widens with it (StaleEpochs > batch) — the
	// deployment rule ClusterConfig documents. Eviction never fires in
	// any parity run, so the widened window changes no verdict.
	{"binary-batched-sharded", ClusterConfig{WireTransport: true,
		WireBatchRounds: 4, WireBatchDelay: 2 * time.Millisecond, StaleEpochs: 8,
		IngestLanes: 8}},
}

// TestClusterTransportParity is the transport- and plane-independence
// contract: the same three-node leak scenario must produce identical
// cluster and per-node verdicts whatever carries the rounds (in-process
// calls, binary v5 frames, batched binary v5 frames) and
// whatever ingests them (the serial reference aggregator or the
// lane-sharded ingest plane).
func TestClusterTransportParity(t *testing.T) {
	serial := runParityScenario(t, scenarioCfg, ClusterConfig{IngestLanes: 1})
	for _, v := range parityVariants {
		got := runParityScenario(t, scenarioCfg, v.cc)
		if !reflect.DeepEqual(serial.clusterReports, got.clusterReports) {
			t.Fatalf("cluster reports differ between serial in-proc and %s:\nserial: %+v\ngot:    %+v",
				v.name, serial.clusterReports, got.clusterReports)
		}
		if !reflect.DeepEqual(serial.nodeVerdicts, got.nodeVerdicts) {
			t.Fatalf("per-node verdicts differ between serial in-proc and %s", v.name)
		}
	}
	// And the scenario's point holds everywhere: the sick pair is named.
	memRep := serial.clusterReports[core.ResourceMemory]
	top, ok := (&memRep).Top()
	if !ok || top.Pair() != "node2/"+ComponentA {
		t.Fatalf("parity run lost the verdict: %+v", top)
	}
}

// TestClusterStackWireCarriesControl pins that WireTransport carries
// actuation on each node's binary connection: the stack registers no
// local control binding for a wire node, so a drain command for node2
// is answered only once node2 has published (teaching the aggregator
// its route), and then by an ACK frame read off that connection.
func TestClusterStackWireCarriesControl(t *testing.T) {
	cs, err := NewClusterStack(ClusterConfig{
		Nodes:         3,
		Seed:          scenarioCfg.Seed,
		Scale:         scenarioScale(scenarioCfg),
		Mix:           eb.Shopping,
		Detect:        scenarioDetectConfig(),
		Policy:        cluster.RoundRobin,
		WireTransport: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if cs.Node("node2").control != nil {
		t.Fatal("wire node2 carries a local control handler")
	}
	// A local binding would answer synchronously; with none, and no
	// route learned yet, the command fails before SendControl returns.
	var early error
	answered := false
	cs.Aggregator.SendControl("node2", cluster.ControlDrain, "", 0, func(_ cluster.ControlAck, err error) {
		answered, early = true, err
	})
	if !answered || early == nil {
		t.Fatalf("drain before node2 published: answered=%v err=%v, want a no-route failure", answered, early)
	}

	cs.Driver.Run([]eb.Phase{{Duration: 2 * time.Minute, EBs: 5}})
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	type result struct {
		ack cluster.ControlAck
		err error
	}
	got := make(chan result, 1)
	cs.Aggregator.SendControl("node2", cluster.ControlDrain, "", 0, func(ack cluster.ControlAck, err error) {
		got <- result{ack, err}
	})
	select {
	case r := <-got:
		if r.err != nil || !r.ack.OK || r.ack.Kind != cluster.ControlDrain {
			t.Fatalf("drain over the wire: ack=%+v err=%v", r.ack, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ACK for the drain command over node2's wire")
	}
}

// TestClusterTransportParityFullScale re-runs the parity contract at the
// paper's full one-hour TimeScale against the deployment-shaped variant
// (sharded aggregator, batched binary wire). Skipped under -short.
func TestClusterTransportParityFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale parity skipped with -short")
	}
	cfg := scenarioCfg
	cfg.TimeScale = 1.0
	serial := runParityScenario(t, cfg, ClusterConfig{IngestLanes: 1})
	batched := runParityScenario(t, cfg, parityVariants[len(parityVariants)-1].cc)
	if !reflect.DeepEqual(serial.clusterReports, batched.clusterReports) {
		t.Fatalf("full-scale cluster reports differ:\nserial:  %+v\nbatched: %+v",
			serial.clusterReports, batched.clusterReports)
	}
	if !reflect.DeepEqual(serial.nodeVerdicts, batched.nodeVerdicts) {
		t.Fatal("full-scale per-node verdicts differ")
	}
}
