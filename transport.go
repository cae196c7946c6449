package wbcast

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"wbcast/internal/faults"
	"wbcast/internal/live"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/sim"
	"wbcast/internal/tcpnet"
	"wbcast/internal/wal"
)

// Transport is the runtime that hosts the protocol processes of a
// deployment. The same protocol state machines run unchanged on every
// transport; the transport decides how messages move between them:
//
//   - InProcess hosts every process as a goroutine in this OS process,
//     connected by in-memory links with optionally injected latency
//     (Config.Latency). This is the default and the right choice for
//     embedded use and benchmarks on one machine.
//   - Simulated hosts every process on a deterministic discrete-event
//     simulator: virtual time, reproducible schedules, exact per-message
//     latency control. Background timers (retries, heartbeats, failure
//     detection, GC) are disabled, so runs quiesce and replay identically —
//     the transport for test authors, not for fault-injection scenarios.
//   - TCP hosts the processes started on it in this OS process and connects
//     to the rest of the cluster over TCP — one Transport per host of a
//     distributed deployment.
//
// A Transport value is single-use: it hosts one deployment and is shut down
// by Close (or by the Close of the Cluster built on it). The interface is
// sealed; the three constructors in this package are the only
// implementations.
type Transport interface {
	// Close shuts down every process hosted on this transport and joins
	// their goroutines.
	Close()

	// The interface is sealed: implementations live in this package.
	//
	// open prepares the transport and assigns the deployment-wide
	// observability runtime (cfg.clock, cfg.tracer) into the passed Config
	// — on every call, not just the first, so processes started later with
	// fresh Config values share the same clock and tracer.
	//
	// add hosts a handler; opts.reg, when non-nil, is the process's metrics
	// registry, into which the transport registers its runtime counters
	// (frame I/O on TCP, mailbox depth/high-water in-process). opts.store,
	// when non-nil, backs the process's persist effects: append + sync
	// before any send or delivery of the same Handle call, storage error ⇒
	// crash-stop. opts.rebuild, when non-nil, reconstructs the handler from
	// its store — the simulated transport uses it so FaultPlan restarts
	// replay the durable state instead of resurrecting in-memory state.
	open(cfg *Config) error
	add(h node.Handler, opts hostOptions) error
	inject(pid ProcessID, in node.Input) error
	crash(pid ProcessID)
	stats(pid ProcessID) TransportStats
	addr(pid ProcessID) string
	deterministic() bool
	// backgroundTimers reports whether processes hosted here should keep
	// their timer-driven machinery (retries, heartbeats, failure
	// detection, GC). False only on the plain simulated transport, whose
	// quiescence pump requires runs that terminate; chaos mode
	// (SimulatedOptions.Faults) turns timers back on because fault
	// recovery is timer-driven.
	backgroundTimers() bool
	name() string
}

// hostOptions carries the per-process extras of Transport.add: the
// delivery fan-out, the metrics registry, and (replicas with a configured
// Config.Storage only) the durable store plus the storage-backed handler
// rebuilder.
type hostOptions struct {
	onDeliver func(Delivery)
	reg       *obs.Registry
	store     wal.Storage
	rebuild   func() (node.Handler, error)
}

// TransportStats is a snapshot of a process's transport-level counters,
// surfaced by Replica.Stats. The frame counters are maintained by the TCP
// transport (see internal/tcpnet); the in-process transport reports only
// MailboxHighWater, and the simulated transport reports only
// DeliveriesDropped.
type TransportStats struct {
	// MessagesEncoded counts distinct messages serialised to wire form
	// (one per send, however many recipients it fans out to).
	MessagesEncoded int64
	// FramesSent counts per-recipient frames enqueued to peer writers.
	FramesSent int64
	// FramesCoalesced counts frames that rode along in a multi-frame
	// vectored write instead of costing their own syscall.
	FramesCoalesced int64
	// OutboundDrops counts frames dropped on the way out (full writer
	// queue, unknown or unreachable peer). Dropped frames are recovered by
	// the protocols' retry machinery.
	OutboundDrops int64
	// Reconnects counts outbound redials after a connection failure.
	Reconnects int64
	// FramesRead counts inbound frames successfully decoded.
	FramesRead int64
	// MailboxHighWater is the largest input-queue length observed. Input
	// queues are elastic (senders never block), so sustained overload
	// shows up here rather than as backpressure.
	MailboxHighWater int64
	// DeliveriesDropped counts deliveries discarded by this process's
	// subscriptions under the DropOldest/DropNewest policies.
	DeliveriesDropped uint64
}

// ---------------------------------------------------------------------------
// In-process transport (internal/live)

// InProcess returns a transport hosting every process as a goroutine in
// this OS process, connected by in-memory links. Config.Latency, when set,
// injects artificial one-way delays (see LAN and WAN for the paper's
// testbed profiles).
func InProcess() Transport {
	return &inProcTransport{}
}

type inProcTransport struct {
	mu     sync.Mutex
	net    *live.Network
	clock  obs.Clock
	tracer *obs.Tracer
}

func (t *inProcTransport) open(cfg *Config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clock == nil {
		start := time.Now()
		t.clock = func() time.Duration { return time.Since(start) }
		t.tracer = cfg.newTracer(t.clock)
	}
	cfg.clock, cfg.tracer = t.clock, t.tracer
	if t.net != nil {
		return nil
	}
	t.net = live.New(live.Config{Latency: cfg.Latency})
	return t.net.Start()
}

func (t *inProcTransport) add(h node.Handler, opts hostOptions) error {
	t.mu.Lock()
	if t.net == nil {
		t.mu.Unlock()
		return fmt.Errorf("wbcast: transport not opened")
	}
	n := t.net
	t.mu.Unlock()
	// Mailbox gauges are views over the network's single-source counters
	// (evaluated at scrape time), never double-maintained.
	pid := h.ID()
	opts.reg.RegisterFunc(obs.MetricMailboxDepth, "current input-queue length", obs.KindGauge,
		func() int64 { return n.MailboxDepth(pid) })
	opts.reg.RegisterFunc(obs.MetricMailboxHighWater, "largest input-queue length observed", obs.KindGauge,
		func() int64 { return n.MailboxHighWater(pid) })
	return n.AddStored(h, opts.store, opts.onDeliver)
}

func (t *inProcTransport) inject(pid ProcessID, in node.Input) error {
	t.mu.Lock()
	n := t.net
	t.mu.Unlock()
	if n == nil {
		return fmt.Errorf("wbcast: transport not opened")
	}
	return n.Inject(pid, in)
}

func (t *inProcTransport) crash(pid ProcessID) {
	t.mu.Lock()
	n := t.net
	t.mu.Unlock()
	if n != nil {
		n.Crash(pid)
	}
}

func (t *inProcTransport) stats(pid ProcessID) TransportStats {
	t.mu.Lock()
	n := t.net
	t.mu.Unlock()
	if n == nil {
		return TransportStats{}
	}
	return TransportStats{MailboxHighWater: n.MailboxHighWater(pid)}
}

func (t *inProcTransport) addr(ProcessID) string  { return "" }
func (t *inProcTransport) deterministic() bool    { return false }
func (t *inProcTransport) backgroundTimers() bool { return true }
func (t *inProcTransport) name() string           { return "in-process" }

// Close implements Transport.
func (t *inProcTransport) Close() {
	t.mu.Lock()
	n := t.net
	t.mu.Unlock()
	if n != nil {
		n.Close()
	}
}

// ---------------------------------------------------------------------------
// Simulated transport (internal/sim)

// SimulatedOptions parametrises the deterministic transport beyond the
// options shared in Config (Delta, Latency, Batching, ...).
type SimulatedOptions struct {
	// Seed initialises the simulator's RNG (latency jitter, fault
	// sampling).
	Seed int64
	// Jitter widens the default per-message latency from exactly
	// Config.Delta to uniform in [Delta, Delta+Jitter). Ignored when
	// Config.Latency is set.
	Jitter time.Duration
	// Faults, when non-nil, switches the transport into chaos mode and
	// injects the plan's fault schedule: crash/restart, partitions,
	// per-link drop/duplicate/delay/reorder and clock skew, fired at
	// virtual-time or message-count triggers. In chaos mode the protocols'
	// background timers stay enabled and virtual time advances
	// continuously (runs no longer pump to quiescence). See FaultPlan and
	// docs/FAULTS.md.
	Faults *FaultPlan
	// OnFault, if non-nil, receives a narration line (with its virtual
	// time) each time a fault action fires.
	OnFault func(at time.Duration, desc string)
}

// Simulated returns a deterministic discrete-event transport: virtual time,
// reproducible schedules, per-message latency of Config.Delta on every link
// (or Config.Latency, when set). Multicasts complete in virtual time — a
// submission is pumped to quiescence — so tests run as fast as the CPU
// allows regardless of the configured latency.
//
// Background timers are disabled on this transport: there are no retries,
// heartbeats, failure detection or GC, which is what makes runs quiesce and
// replay identically. Crashing a process therefore stalls (rather than
// fails over) the messages that need it. For fault-injection scenarios,
// pass a FaultPlan via SimulatedOptions.Faults — chaos mode re-enables the
// timer-driven recovery machinery — or use the InProcess transport.
func Simulated() Transport { return SimulatedWith(SimulatedOptions{}) }

// SimulatedWith is Simulated with explicit options.
func SimulatedWith(opts SimulatedOptions) Transport {
	t := &simTransport{
		opts:    opts,
		deliver: make(map[ProcessID]func(Delivery)),
		rebuild: make(map[ProcessID]func() (node.Handler, error)),
		done:    make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

type simTransport struct {
	opts SimulatedOptions

	mu      sync.Mutex
	cond    *sync.Cond
	s       *sim.Sim
	deliver map[ProcessID]func(Delivery)
	// rebuild holds the storage-backed handler constructors of durable
	// processes. Like deliver it is written under mu (add) and read from
	// inside the pump's Run — which also holds mu — so restarts never race
	// late-added processes.
	rebuild map[ProcessID]func() (node.Handler, error)
	pending bool
	closed  bool
	done    chan struct{}
	// slice is the virtual-time advance per chaos-pump iteration.
	slice time.Duration
	clock obs.Clock
	trc   *obs.Tracer
}

func (t *simTransport) open(cfg *Config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s != nil {
		cfg.clock, cfg.tracer = t.clock, t.trc
		return nil
	}
	// The observability clock is virtual time: traces of a seeded
	// simulation are deterministic and replayable. The closure reads t.s,
	// assigned below; handlers only run once the simulator exists.
	t.clock = func() time.Duration { return t.s.Now() }
	t.trc = cfg.newTracer(t.clock)
	cfg.clock, cfg.tracer = t.clock, t.trc
	var lat sim.Latency
	if cfg.Latency != nil {
		user := cfg.Latency
		lat = func(from, to mcast.ProcessID, _ msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
			return user(from, to)
		}
	} else {
		lat = sim.UniformJitter(cfg.Delta, t.opts.Jitter)
	}
	simCfg := sim.Config{
		Latency:   lat,
		Seed:      t.opts.Seed,
		OnDeliver: t.dispatchLocked,
		// Restarts of storage-backed processes rebuild their handler by
		// replaying the store; everything else keeps its in-memory handler
		// (nil, nil). Runs inside the pump's Run, i.e. with t.mu held.
		Rebuild: func(p mcast.ProcessID) (node.Handler, error) {
			if rb := t.rebuild[p]; rb != nil {
				return rb()
			}
			return nil, nil
		},
	}
	if tr := t.trc; tr != nil {
		// A storage crash-stop is a fault event: chaos timelines show it
		// interleaved with the protocol stages it interrupted.
		simCfg.OnStorageCrash = func(p mcast.ProcessID, err error) {
			tr.Fault(t.s.Now(), fmt.Sprintf("p%d storage failure: %v", p, err))
		}
	}
	var eng *faults.Engine
	if t.opts.Faults != nil {
		if err := t.opts.Faults.validate(); err != nil {
			return err
		}
		// Fault actions are trace events: a chaos failure's timeline shows
		// crashes, partitions and heals interleaved with protocol stages.
		onFault := t.opts.OnFault
		if tr := t.trc; tr != nil {
			user := onFault
			onFault = func(at time.Duration, desc string) {
				tr.Fault(at, desc)
				if user != nil {
					user(at, desc)
				}
			}
		}
		eng = faults.New(faults.Config{
			Plan:    t.opts.Faults.compile(),
			OnEvent: onFault,
		})
		simCfg.Filter = eng.Filter
		simCfg.TimerScale = eng.ScaleTimer
	}
	t.s = sim.New(simCfg)
	if eng != nil {
		eng.Bind(t.s)
		t.slice = 10 * cfg.Delta
		if t.slice < time.Millisecond {
			t.slice = time.Millisecond
		}
		go t.pumpChaos()
	} else {
		go t.pump()
	}
	return nil
}

// dispatchLocked is invoked by the simulator from inside pump's Run, i.e.
// with t.mu already held — it must not lock.
func (t *simTransport) dispatchLocked(p mcast.ProcessID, d mcast.Delivery) {
	if fn := t.deliver[p]; fn != nil {
		fn(d)
	}
}

// pumpChaos drives the simulator in chaos mode. With background timers
// enabled the event queue never drains (heartbeats re-arm forever), so
// instead of pumping to quiescence, virtual time advances continuously in
// bounded slices; the lock is released between slices so application
// goroutines (Multicast, Subscribe consumers) interleave, and a short real
// sleep keeps an idle simulation from spinning a core. Virtual time runs as
// fast as the CPU allows — a multi-second recovery story plays out in
// milliseconds of wall-clock time.
func (t *simTransport) pumpChaos() {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer close(t.done)
	for !t.closed {
		t.s.Run(t.s.Now() + t.slice)
		t.pending = false
		t.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		t.mu.Lock()
	}
}

// pump drives the simulator to quiescence after every external input,
// one event time at a time, so an armed flush timer (e.g. a batching
// deadline) is reached however far ahead it was scheduled. Virtual time
// stops at the last event: how many passes the pump made while the
// cluster was being built does not shift the timeline of a seeded run.
func (t *simTransport) pump() {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer close(t.done)
	for {
		if t.closed {
			return
		}
		if !t.pending {
			t.cond.Wait()
			continue
		}
		t.pending = false
		for t.s.Pending() > 0 && !t.closed {
			t.s.Step()
		}
	}
}

func (t *simTransport) add(h node.Handler, opts hostOptions) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s == nil {
		return fmt.Errorf("wbcast: transport not opened")
	}
	if t.closed {
		return fmt.Errorf("wbcast: transport closed")
	}
	if opts.onDeliver != nil {
		t.deliver[h.ID()] = opts.onDeliver
	}
	if opts.store != nil {
		t.s.SetStorage(h.ID(), opts.store)
	}
	if opts.rebuild != nil {
		t.rebuild[h.ID()] = opts.rebuild
	}
	t.s.Add(h)
	t.pending = true
	t.cond.Broadcast()
	return nil
}

func (t *simTransport) inject(pid ProcessID, in node.Input) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s == nil {
		return fmt.Errorf("wbcast: transport not opened")
	}
	if t.closed {
		return fmt.Errorf("wbcast: transport closed")
	}
	if sub, ok := in.(node.Submit); ok {
		// SubmitAt also feeds the simulator's latency/genuineness audits.
		t.s.SubmitAt(t.s.Now(), pid, sub.Msg)
	} else {
		t.s.Inject(t.s.Now(), pid, in)
	}
	t.pending = true
	t.cond.Broadcast()
	return nil
}

func (t *simTransport) crash(pid ProcessID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s != nil {
		t.s.Crash(pid)
	}
}

func (t *simTransport) stats(ProcessID) TransportStats { return TransportStats{} }
func (t *simTransport) addr(ProcessID) string          { return "" }
func (t *simTransport) deterministic() bool            { return true }
func (t *simTransport) backgroundTimers() bool         { return t.opts.Faults != nil }
func (t *simTransport) name() string                   { return "simulated" }

// Close implements Transport: it stops the pump and joins it.
func (t *simTransport) Close() {
	t.mu.Lock()
	started := t.s != nil // the pump (and so t.done) exists only once opened
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	if started {
		<-t.done
	}
}

// ---------------------------------------------------------------------------
// TCP transport (internal/tcpnet)

// TCP returns a transport that hosts the processes started on it in this OS
// process and reaches the rest of the cluster over TCP. peers maps every
// process of the deployment — replicas and clients — to the address it is
// reachable at; every host of the cluster must be configured with the same
// map. listen, when non-empty, is the bind address of the first process
// started on this transport (the common one-process-per-host deployment,
// where the bind address may differ from the advertised peers entry). Any
// further local processes bind their own peers entry.
//
// Single-host clusters (tests, development) may give every process the
// address "127.0.0.1:0": each locally hosted process binds an ephemeral
// port and the transport rewrites the shared address book as the actual
// addresses become known. This only works when all processes of the cluster
// are hosted on the same Transport value; multi-host deployments need real
// addresses.
func TCP(listen string, peers map[ProcessID]string) Transport {
	t := &tcpTransport{
		listen: listen,
		peers:  make(map[ProcessID]string, len(peers)),
		nodes:  make(map[ProcessID]*tcpnet.Node),
	}
	for pid, addr := range peers {
		t.peers[pid] = addr
	}
	return t
}

type tcpTransport struct {
	listen string

	mu         sync.Mutex
	opened     bool
	listenUsed bool
	peers      map[ProcessID]string
	nodes      map[ProcessID]*tcpnet.Node
	closed     map[ProcessID]bool
	logf       func(format string, args ...any)
	clock      obs.Clock
	tracer     *obs.Tracer
}

func (t *tcpTransport) open(cfg *Config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clock == nil {
		start := time.Now()
		t.clock = func() time.Duration { return time.Since(start) }
		t.tracer = cfg.newTracer(t.clock)
	}
	cfg.clock, cfg.tracer = t.clock, t.tracer
	if t.opened {
		return nil
	}
	// Latency×TCP is rejected earlier, by Config.normalized.
	t.logf = cfg.Logf
	t.closed = make(map[ProcessID]bool)
	t.opened = true
	return nil
}

func (t *tcpTransport) add(h node.Handler, opts hostOptions) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.opened {
		return fmt.Errorf("wbcast: transport not opened")
	}
	pid := h.ID()
	if _, dup := t.nodes[pid]; dup || t.closed[pid] {
		return fmt.Errorf("wbcast: process %d already hosted on this transport", pid)
	}
	listen := ""
	if t.listen != "" && !t.listenUsed {
		listen = t.listen
		t.listenUsed = true
	} else if addr, ok := t.peers[pid]; ok {
		listen = addr
	} else {
		return fmt.Errorf("wbcast: no TCP address for process %d: add a peers entry or a listen address", pid)
	}
	peers := make(map[ProcessID]string, len(t.peers))
	for p, a := range t.peers {
		peers[p] = a
	}
	n, err := tcpnet.Serve(tcpnet.Config{
		PID:        pid,
		ListenAddr: listen,
		Peers:      peers,
		Handler:    h,
		OnDeliver:  opts.onDeliver,
		Storage:    opts.store,
		Logf:       t.logf,
		// The node maintains these counters directly; its Stats() and the
		// registry scrape are two views over the same atomics.
		Metrics: obs.NewRuntime(opts.reg),
	})
	if err != nil {
		return err
	}
	// The high-water gauge lives in the Runtime; current depth is a view
	// over the node's live queue.
	opts.reg.RegisterFunc(obs.MetricMailboxDepth, "current input-queue length", obs.KindGauge,
		n.MailboxDepth)
	opts.reg.RegisterFunc(obs.MetricShardQueueDepth+fmt.Sprintf(`{shard="p%d"}`, pid),
		"current input-mailbox depth of one protocol shard", obs.KindGauge,
		func() int64 { return n.ShardDepth(pid) })
	t.nodes[pid] = n
	// Ephemeral-port fix-up: when the configured address left the port to
	// the kernel, adopt the actual bound address and teach every local node
	// about it. Remote hosts cannot learn it this way — they need real
	// addresses in their peers map.
	if prev, ok := t.peers[pid]; !ok || hasEphemeralPort(prev) {
		actual := n.Addr().String()
		t.peers[pid] = actual
		for _, other := range t.nodes {
			other.SetPeer(pid, actual)
		}
	}
	return nil
}

// hasEphemeralPort reports whether addr leaves the port to the kernel.
func hasEphemeralPort(addr string) bool {
	_, port, err := net.SplitHostPort(addr)
	return err == nil && (port == "0" || port == "")
}

func (t *tcpTransport) inject(pid ProcessID, in node.Input) error {
	t.mu.Lock()
	n, ok := t.nodes[pid]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("wbcast: process %d is not hosted on this transport", pid)
	}
	return n.Inject(in)
}

// crash closes the process's TCP node: it stops accepting, reading and
// writing, which is exactly what a crash-stop failure looks like to the
// rest of the cluster.
func (t *tcpTransport) crash(pid ProcessID) {
	t.mu.Lock()
	n, ok := t.nodes[pid]
	if ok {
		delete(t.nodes, pid)
		t.closed[pid] = true
	}
	t.mu.Unlock()
	if ok {
		n.Close()
	}
}

func (t *tcpTransport) stats(pid ProcessID) TransportStats {
	t.mu.Lock()
	n, ok := t.nodes[pid]
	t.mu.Unlock()
	if !ok {
		return TransportStats{}
	}
	s := n.Stats()
	return TransportStats{
		MessagesEncoded:  s.MessagesEncoded,
		FramesSent:       s.FramesSent,
		FramesCoalesced:  s.FramesCoalesced,
		OutboundDrops:    s.OutboundDrops,
		Reconnects:       s.Reconnects,
		FramesRead:       s.FramesRead,
		MailboxHighWater: s.MailboxHighWater,
	}
}

func (t *tcpTransport) addr(pid ProcessID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.nodes[pid]; ok {
		return n.Addr().String()
	}
	return t.peers[pid]
}

func (t *tcpTransport) deterministic() bool    { return false }
func (t *tcpTransport) backgroundTimers() bool { return true }
func (t *tcpTransport) name() string           { return "tcp" }

// Close implements Transport: it closes every hosted node.
func (t *tcpTransport) Close() {
	t.mu.Lock()
	nodes := make([]*tcpnet.Node, 0, len(t.nodes))
	for pid, n := range t.nodes {
		nodes = append(nodes, n)
		t.closed[pid] = true
	}
	t.nodes = make(map[ProcessID]*tcpnet.Node)
	t.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}
