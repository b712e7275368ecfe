package experiment

import (
	"fmt"
	"net"
	"time"

	"repro/internal/aspect"
	"repro/internal/cluster"
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

// LoadBackend selects what the load tier's sessions submit to.
type LoadBackend int

const (
	// BackendModel completes requests after deterministic hash-derived
	// service times (eb.ModelTarget): the contention-free backend for
	// scale benchmarks and the shards=1-vs-N golden runs.
	BackendModel LoadBackend = iota
	// BackendContainer builds a full application stack per shard — TPC-W
	// over the servlet container with its own DB, heap and weaver — so
	// the million-session tier exercises the real serve path. Shard
	// stacks are independent (one per core), so runs stay contention-free
	// but are only deterministic per shard count: sessions sharing a
	// container interact through its heap and caches.
	BackendContainer
)

// LoadConfig sizes the load tier: the million-session counterpart of
// StackConfig. The zero value of Arrival fields selects the closed-loop
// TPC-W discipline.
type LoadConfig struct {
	// Seed derives every session, lane and service stream.
	Seed uint64
	// Sessions is the closed-loop population.
	Sessions int
	// Shards is the per-process engine count (default 1).
	Shards int
	// Window is the bounded-lag pacing window (default 100ms).
	Window time.Duration
	// Mix is the TPC-W transition mix.
	Mix eb.Mix
	// OpenLoop switches to Poisson arrivals at Rate sessions/second.
	OpenLoop bool
	Rate     float64
	// MeanSessionLength / MaxSessions parameterise open-loop sessions
	// (defaults per eb.ShardedConfig).
	MeanSessionLength int
	MaxSessions       int
	// DriverIndex / DriverCount place this process in a K-way fleet
	// (defaults 0 of 1).
	DriverIndex int
	DriverCount int
	// Backend picks the target; Scale sizes the container backend's
	// database.
	Backend LoadBackend
	Scale   tpcw.Scale
	// Container sizes each shard's servlet container. The zero value
	// takes the servlet defaults (50 workers, 500-deep accept queue) —
	// sized for the paper's testbed, not for fleet-scale populations:
	// at hundreds of thousands of sessions per shard the offered load
	// is tens of thousands of requests/s, and an unsized container
	// sheds almost all of it.
	Container servlet.Config

	// Monitor attaches the aggregation plane to the container backend:
	// every shard stack gets its own monitoring framework (weaver
	// instrumentation over the TPC-W servlets, sampling each
	// MonitorInterval of virtual time) forwarding rounds into one shared
	// cluster Aggregator under names "shard01", "shard02", ... — so the
	// aggregator ingests real rounds concurrently from every shard
	// goroutine while the driver holds the session population. Requires
	// BackendContainer.
	Monitor bool
	// MonitorInterval is the per-shard sampling period (default 30s
	// virtual). With S shards it is also the cluster epoch cadence.
	MonitorInterval time.Duration
	// Detect tunes the aggregator's per-shard detector banks.
	Detect detect.Config
	// MonitorWire ships rounds over per-shard binary net.Pipe wires with
	// the v5 BATCH flush policy instead of in-process calls;
	// MonitorBatchRounds sets the rounds-per-frame flush count (default
	// 8). The aggregator's staleness window is widened past the batch
	// so a shard flushing a full frame never evicts its peers.
	MonitorWire        bool
	MonitorBatchRounds int
	// IngestLanes tunes the aggregator's sharded ingest plane (0 = its
	// default).
	IngestLanes int
}

// LoadShard is one shard's full application stack (BackendContainer
// only), with its monitoring attachment when LoadConfig.Monitor is set.
type LoadShard struct {
	Name      string
	Container *servlet.Container
	App       *tpcw.App
	Weaver    *aspect.Weaver
	Heap      *jvmheap.Heap
	Framework *core.Framework // nil unless monitored

	transport    cluster.Transport
	forwarder    *cluster.Forwarder
	flushWire    func() error
	stopSampling func()
}

// LoadStack is the assembled load tier of one process: a sharded driver
// and its per-shard backends, plus the aggregation plane when monitored.
type LoadStack struct {
	Driver *eb.ShardedDriver
	// Containers holds the per-shard application stacks
	// (BackendContainer only; empty for the model backend).
	Containers []*servlet.Container
	// Shards holds the per-shard stacks behind Containers, in shard
	// order (BackendContainer only).
	Shards []*LoadShard
	// Aggregator is the shared cluster aggregator ingesting every
	// shard's sampling rounds (nil unless LoadConfig.Monitor).
	Aggregator *cluster.Aggregator
}

// NewLoadStack assembles (but does not run) a load tier process.
func NewLoadStack(cfg LoadConfig) (*LoadStack, error) {
	if cfg.Scale.Seed == 0 {
		cfg.Scale.Seed = cfg.Seed + 1
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 30 * time.Second
	}
	if cfg.MonitorBatchRounds <= 0 {
		cfg.MonitorBatchRounds = 8
	}
	ls := &LoadStack{}
	if cfg.Monitor {
		if cfg.Backend != BackendContainer {
			return nil, fmt.Errorf("experiment: LoadConfig.Monitor requires BackendContainer")
		}
		stale := 0
		if cfg.MonitorWire && cfg.MonitorBatchRounds > 1 {
			// A shard flushing a full BATCH frame runs MonitorBatchRounds
			// epochs ahead of peers still buffering; widen the staleness
			// window so that never reads as a dead shard.
			stale = 2 * cfg.MonitorBatchRounds
		}
		ls.Aggregator = cluster.New(cluster.Config{
			Detect:      cfg.Detect,
			StaleEpochs: stale,
			IngestLanes: cfg.IngestLanes,
		})
	}
	var factory eb.TargetFactory
	var buildErr error
	switch cfg.Backend {
	case BackendModel:
		factory = nil // ShardedDriver builds ModelTargets
	case BackendContainer:
		factory = func(shard int, engine *sim.Engine) eb.Target {
			weaver := aspect.NewWeaver(engine.Clock())
			db := sqldb.NewDB()
			app, err := tpcw.NewApp(db, weaver, engine.Clock(), cfg.Scale)
			if err != nil {
				buildErr = err
				return nil
			}
			heap := jvmheap.New(jvmheap.DefaultCapacity, engine.Clock())
			container := servlet.NewContainer(engine, weaver, db, heap, cfg.Container)
			if err := app.DeployAll(container); err != nil {
				buildErr = err
				return nil
			}
			if err := container.Start(); err != nil {
				buildErr = err
				return nil
			}
			sh := &LoadShard{
				Name:      fmt.Sprintf("shard%02d", shard+1),
				Container: container,
				App:       app,
				Weaver:    weaver,
				Heap:      heap,
			}
			if cfg.Monitor {
				if err := ls.monitorShard(sh, cfg, engine); err != nil {
					buildErr = err
					return nil
				}
			}
			ls.Containers = append(ls.Containers, container)
			ls.Shards = append(ls.Shards, sh)
			return container
		}
	default:
		return nil, fmt.Errorf("experiment: unknown load backend %d", cfg.Backend)
	}

	shardedCfg := eb.ShardedConfig{
		Shards:            cfg.Shards,
		Window:            cfg.Window,
		Seed:              cfg.Seed,
		Mix:               cfg.Mix,
		Items:             cfg.Scale.Items,
		Customers:         cfg.Scale.Customers,
		Sessions:          cfg.Sessions,
		Rate:              cfg.Rate,
		MeanSessionLength: cfg.MeanSessionLength,
		MaxSessions:       cfg.MaxSessions,
		DriverIndex:       cfg.DriverIndex,
		DriverCount:       cfg.DriverCount,
	}
	if cfg.OpenLoop {
		shardedCfg.Arrival = eb.OpenLoop
	}

	func() {
		defer func() {
			if r := recover(); r != nil && buildErr == nil {
				buildErr = fmt.Errorf("experiment: load stack: %v", r)
			}
		}()
		ls.Driver = eb.NewShardedDriver(shardedCfg, factory)
	}()
	if buildErr != nil {
		return nil, buildErr
	}
	if ls.Aggregator != nil {
		// Pre-register the shard membership so epoch alignment is a pure
		// function of the rounds, independent of shard-window timing.
		names := make([]string, len(ls.Shards))
		for i, sh := range ls.Shards {
			names[i] = sh.Name
		}
		ls.Aggregator.Expect(names...)
	}
	return ls, nil
}

// monitorShard attaches one shard stack to the aggregation plane: its
// own monitoring framework over the shard's servlets, a transport into
// the shared aggregator, and periodic sampling on the shard's engine —
// so rounds publish from the shard's goroutine at window pace, which is
// exactly the concurrent fan-in the sharded ingest lanes absorb.
func (ls *LoadStack) monitorShard(sh *LoadShard, cfg LoadConfig, engine *sim.Engine) error {
	f, err := core.New(core.Options{
		Weaver:         sh.Weaver,
		Clock:          engine.Clock(),
		Heap:           sh.Heap,
		SampleInterval: cfg.MonitorInterval,
		Node:           sh.Name,
	})
	if err != nil {
		return err
	}
	for _, comp := range tpcw.Interactions {
		servletObj, _ := sh.App.Servlet(comp)
		if err := f.InstrumentComponent(comp, servletObj); err != nil {
			return err
		}
	}
	if cfg.MonitorWire {
		client, server := net.Pipe()
		go func() { _ = ls.Aggregator.ServeBinaryConn(server) }()
		bw := cluster.NewBinaryWire(client)
		if cfg.MonitorBatchRounds > 1 {
			// Count-triggered flushes only: a real-time flush deadline has
			// no meaning on a virtual-time engine that runs hours in
			// seconds, and SyncMonitor flushes the tail.
			if err := bw.SetBatch(cfg.MonitorBatchRounds, 0); err != nil {
				return err
			}
			sh.flushWire = bw.Flush
		}
		sh.transport = bw
	} else {
		sh.transport = cluster.NewInProc(ls.Aggregator)
	}
	sh.Framework = f
	sh.forwarder = cluster.Attach(f, sh.transport)
	sh.stopSampling = f.StartSampling(engine)
	return nil
}

// InjectLeak arms the paper's memory-leak error in one component of one
// shard's stack — the sick-shard topology for fleet-scale verdict runs.
func (ls *LoadStack) InjectLeak(shard int, component string, size, n int, seed uint64) (*faultinject.MemoryLeak, error) {
	if shard < 0 || shard >= len(ls.Shards) {
		return nil, fmt.Errorf("experiment: no shard %d", shard)
	}
	sh := ls.Shards[shard]
	target, ok := sh.App.Servlet(component)
	if !ok {
		return nil, fmt.Errorf("experiment: no servlet %q on %s", component, sh.Name)
	}
	retainer, ok := target.(faultinject.Retainer)
	if !ok {
		return nil, fmt.Errorf("experiment: servlet %q is not injectable", component)
	}
	leak := &faultinject.MemoryLeak{
		Component: component,
		Target:    retainer,
		Size:      size,
		N:         n,
		Heap:      sh.Heap,
		Seed:      seed,
	}
	if err := sh.Weaver.Register(leak.Aspect()); err != nil {
		return nil, err
	}
	return leak, nil
}

// SyncMonitor flushes any partial BATCH frames and blocks until the
// aggregator has ingested every round the shard forwarders published
// and folded the epochs they complete — the monitored-run counterpart
// of ClusterStack.Sync. No-op when the stack is unmonitored.
func (ls *LoadStack) SyncMonitor() error {
	if ls.Aggregator == nil {
		return nil
	}
	var want int64
	for _, sh := range ls.Shards {
		if sh.flushWire != nil {
			_ = sh.flushWire() // a broken wire fails loudly at the deadline below
		}
		if sh.forwarder != nil {
			want += sh.forwarder.Rounds() - sh.forwarder.Errors()
		}
	}
	if err := ls.Aggregator.WaitFolded(want, 10*time.Second); err != nil {
		return fmt.Errorf("experiment: shard rounds: %w", err)
	}
	return nil
}

// Node wraps the stack as a wire-paced fleet member for the given run
// duration (the -role driver process of cmd/tpcwsim).
func (ls *LoadStack) Node(duration time.Duration) *eb.DriverNode {
	return eb.NodeForDriver(ls.Driver, duration)
}

// Run drives the whole load locally (single-process mode).
func (ls *LoadStack) Run(duration time.Duration) {
	ls.Driver.Run(duration, nil)
}

// PeakWIPS returns the maximum per-second completion count of the run.
func (ls *LoadStack) PeakWIPS() uint32 {
	var peak uint32
	for _, v := range ls.Driver.WIPSBuckets() {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Close stops shard sampling and transports, then the per-shard
// containers (no-op for the model backend).
func (ls *LoadStack) Close() {
	for _, sh := range ls.Shards {
		if sh.stopSampling != nil {
			sh.stopSampling()
		}
		if sh.transport != nil {
			_ = sh.transport.Close()
		}
	}
	for _, c := range ls.Containers {
		c.Stop()
	}
}
