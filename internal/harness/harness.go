// Package harness wires protocol replicas, clients, the simulator and the
// correctness checker into ready-made clusters for integration tests and
// latency experiments. Replicas are built by protocol.New from one
// template Config, so the same random workloads, fault schedules and
// checks run against Skeen's protocol, FT-Skeen, FastCast, the white-box
// protocol and genmcast.
package harness

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/check"
	"wbcast/internal/client"
	"wbcast/internal/faults"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/protocol"
	"wbcast/internal/sim"
	"wbcast/internal/wal"
)

// Options configures a simulated cluster.
type Options struct {
	Groups     int
	GroupSize  int
	NumClients int
	// Latency defaults to sim.Uniform(10ms).
	Latency sim.Latency
	Seed    int64
	// Retry is the client re-multicast interval; zero disables retries.
	Retry time.Duration
	// Batching, when non-nil, replaces the plain protocol clients with
	// batching clients (internal/batch): submissions are aggregated into
	// batch envelopes per destination set and unpacked into per-payload
	// deliveries at the replicas. Zero-valued fields take their defaults.
	Batching *batch.Options
	// Trace is forwarded to the simulator.
	Trace func(sim.TraceEvent)
	// Faults, when non-nil, installs a deterministic fault schedule
	// (internal/faults): crash/restart, partitions, per-link
	// drop/duplicate/delay/reorder and clock skew, fired at virtual-time or
	// message-count triggers. Pair it with timers in the template's Timing
	// (retries, heartbeats) — fault recovery is timer-driven.
	Faults *faults.Plan
	// Storage, when non-nil, gives every replica a durable store (Skeen
	// has no durable state and refuses one): persist effects are
	// appended and synced before the sends of the same Handle call, restarts
	// rebuild the replica by replaying its store instead of resurrecting its
	// in-memory state, and a storage error crash-stops the process. Pair a
	// wal.Flaky fake with a Faults restart schedule for crash-consistency
	// chaos.
	Storage func(pid mcast.ProcessID) (wal.Storage, error)
	// OnFault, when non-nil, receives a narration line per fired action.
	OnFault func(at time.Duration, desc string)
	// TraceSample enables message-lifecycle tracing (internal/obs): every
	// TraceSample-th message per sender is traced through its stages, with
	// recovery events and fault-injection steps interleaved. The clock is
	// the simulator's virtual time, so a seeded run's trace is
	// byte-for-byte reproducible (TestTraceDeterministic). 0 disables.
	TraceSample int
	// TraceBuffer bounds retained trace events (0 = default).
	TraceBuffer int
}

// Cluster is a simulated deployment of one protocol.
type Cluster struct {
	Sim *sim.Sim
	Top *mcast.Topology
	// Clients holds the client handlers: *client.Client, or *batch.Client
	// when Options.Batching is set.
	Clients  []node.Handler
	Replicas map[mcast.ProcessID]node.Handler

	// Engine is the fault engine, non-nil when Options.Faults was set.
	Engine *faults.Engine
	// Stores holds each replica's durable store when Options.Storage was
	// set; tests reach in to inspect recovered state or trip fault fakes.
	Stores map[mcast.ProcessID]wal.Storage
	// Tracer records message-lifecycle and fault events, non-nil when
	// Options.TraceSample was set. Render with obs.FormatTimeline.
	Tracer *obs.Tracer
	// Monitor checks every delivery continuously (poured by RunChecked and
	// CollectHistory).
	Monitor *check.Monitor

	hist      *check.History
	collected int // prefix of Sim.Deliveries() already poured into hist
	monitored int // prefix already poured into Monitor
	nextSeq   uint32
	crashed   map[mcast.ProcessID]bool
	// conflicts is the partial-order conflict relation of a genmcast run;
	// nil for the total-order protocols.
	conflicts  func(a, b mcast.AppMsg) bool
	onComplete func(id mcast.MsgID)
}

// ClientPID returns the process ID of client i (placed after all replicas).
func ClientPID(top *mcast.Topology, i int) mcast.ProcessID {
	return mcast.ProcessID(top.NumReplicas() + i)
}

// NewCluster builds a cluster: replicas per the topology, plus clients.
// Every replica is protocol.New of tmpl with its PID, the topology, an
// instrumentation handle (when tracing) and its recovered state (with
// Storage) filled in.
func NewCluster(tmpl protocol.Config, opts Options) (*Cluster, error) {
	if opts.Groups <= 0 || opts.GroupSize <= 0 {
		return nil, fmt.Errorf("harness: need positive Groups and GroupSize")
	}
	if opts.Storage != nil && tmpl.Kind == protocol.Skeen {
		return nil, fmt.Errorf("harness: Options.Storage set but skeen has no durable state")
	}
	if opts.NumClients <= 0 {
		opts.NumClients = 1
	}
	top := mcast.UniformTopology(opts.Groups, opts.GroupSize)
	c := &Cluster{
		Top:      top,
		Replicas: make(map[mcast.ProcessID]node.Handler),
		hist:     check.NewHistory(),
		crashed:  make(map[mcast.ProcessID]bool),
	}
	c.Monitor = check.NewMonitor(top)
	if tmpl.Kind == protocol.Genmcast {
		// Generic multicast orders only conflicting deliveries: the
		// monitor and Check verify the partial-order contract over the
		// replicas' own relation (a nil holder is all-conflict).
		c.conflicts = tmpl.Conflicts.Conflicts
		c.Monitor = check.NewPartialMonitor(top, c.conflicts)
	}
	// The trace clock is virtual time; the closure reads c.Sim, assigned
	// below, before any handler runs.
	var clock obs.Clock
	if opts.TraceSample > 0 {
		clock = func() time.Duration { return c.Sim.Now() }
		c.Tracer = obs.NewTracer(opts.TraceSample, opts.TraceBuffer, clock)
	}
	// Storage-backed restarts: sim.Restart consults Rebuild, which replays
	// the process's store into a fresh handler. The map is populated by the
	// replica loop below; the closure only runs once the simulation does.
	rebuilds := make(map[mcast.ProcessID]func() (node.Handler, error))
	simCfg := sim.Config{Latency: opts.Latency, Seed: opts.Seed, Trace: opts.Trace}
	if opts.Storage != nil {
		simCfg.Rebuild = func(p mcast.ProcessID) (node.Handler, error) {
			if rb := rebuilds[p]; rb != nil {
				return rb()
			}
			return nil, nil
		}
		// A storage crash-stop counts as a crash for the Termination check
		// (a FaultPlan restart revives the process and clears the mark).
		simCfg.OnStorageCrash = func(p mcast.ProcessID, err error) { c.crashed[p] = true }
	}
	if opts.Faults != nil {
		// Fault actions land in the trace too, so a chaos timeline shows
		// crashes, partitions and heals interleaved with protocol stages.
		onFault := opts.OnFault
		if tr := c.Tracer; tr != nil {
			user := onFault
			onFault = func(at time.Duration, desc string) {
				tr.Fault(at, desc)
				if user != nil {
					user(at, desc)
				}
			}
		}
		c.Engine = faults.New(faults.Config{
			Plan:      *opts.Faults,
			OnEvent:   onFault,
			OnCrash:   func(p mcast.ProcessID) { c.crashed[p] = true },
			OnRestart: func(p mcast.ProcessID) { delete(c.crashed, p) },
		})
		simCfg.Filter = c.Engine.Filter
		simCfg.TimerScale = c.Engine.ScaleTimer
	}
	s := sim.New(simCfg)
	c.Sim = s
	if c.Engine != nil {
		c.Engine.Bind(s)
	}
	if opts.Storage != nil {
		c.Stores = make(map[mcast.ProcessID]wal.Storage)
	}
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		cfg := tmpl
		cfg.PID, cfg.Top = pid, top
		if c.Tracer != nil {
			// Trace-only handles: a nil registry keeps the metrics
			// unscrapeable but the stage events flowing into the tracer.
			cfg.Obs = obs.NewProto(nil, clock, c.Tracer, pid)
		}
		if opts.Storage != nil {
			st, err := opts.Storage(pid)
			if err != nil {
				return nil, fmt.Errorf("harness: storage for replica %d: %w", pid, err)
			}
			c.Stores[pid] = st
			if cfg.Recovered, err = st.Load(); err != nil {
				return nil, fmt.Errorf("harness: recovering replica %d: %w", pid, err)
			}
			s.SetStorage(pid, st)
			rebuilds[pid] = func() (node.Handler, error) {
				rs, err := st.Load()
				if err != nil {
					return nil, err
				}
				cfg := cfg
				cfg.Recovered = rs
				return protocol.New(cfg)
			}
		}
		h, err := protocol.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: replica %d: %w", pid, err)
		}
		c.Replicas[pid] = h
		s.Add(h)
	}
	contacts := protocol.Contacts(top)
	blanket := func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) }
	complete := func(id mcast.MsgID) {
		if c.onComplete != nil {
			c.onComplete(id)
		}
	}
	for i := 0; i < opts.NumClients; i++ {
		pid := ClientPID(top, i)
		var co *obs.Client
		if c.Tracer != nil {
			co = obs.NewClient(nil, clock, c.Tracer, pid)
		}
		cl := batch.NewHandler(client.Config{
			PID:           pid,
			Contacts:      contacts,
			Retry:         opts.Retry,
			RetryContacts: blanket,
			OnComplete:    complete,
			Obs:           co,
		}, opts.Batching)
		c.Clients = append(c.Clients, cl)
		s.Add(cl)
	}
	return c, nil
}

// OnComplete registers a callback invoked when any client's multicast
// completes (replies from all destination groups received).
func (c *Cluster) OnComplete(f func(id mcast.MsgID)) { c.onComplete = f }

// Submit schedules a multicast of payload to dest from client idx at time
// at, and returns the assigned message ID.
func (c *Cluster) Submit(at time.Duration, idx int, dest mcast.GroupSet, payload []byte) mcast.MsgID {
	cl := c.Clients[idx]
	c.nextSeq++
	m := mcast.AppMsg{ID: mcast.MakeMsgID(cl.ID(), c.nextSeq), Dest: dest, Payload: payload}
	c.hist.AddSubmit(cl.ID(), m)
	c.Monitor.NoteSubmit(cl.ID(), m)
	c.Sim.SubmitAt(at, cl.ID(), m)
	return m.ID
}

// SubmitDirect records a multicast of payload to dest attributed to client
// idx, but delivers the MULTICAST message straight to the process target at
// time at, bypassing the client handler (no retries, no reply tracking).
// Scenario tests use it to hand a message to a specific leader.
func (c *Cluster) SubmitDirect(at time.Duration, idx int, dest mcast.GroupSet, payload []byte, target mcast.ProcessID) mcast.MsgID {
	cl := c.Clients[idx]
	c.nextSeq++
	m := mcast.AppMsg{ID: mcast.MakeMsgID(cl.ID(), c.nextSeq), Dest: dest, Payload: payload}
	c.hist.AddSubmit(cl.ID(), m)
	c.Monitor.NoteSubmit(cl.ID(), m)
	c.Sim.NoteSubmit(at, cl.ID(), m)
	c.Sim.Inject(at, target, node.Recv{From: cl.ID(), Msg: msgs.Multicast{M: m}})
	return m.ID
}

// Crash crashes process pid at the current simulation time and records it
// for the Termination check.
func (c *Cluster) Crash(pid mcast.ProcessID) {
	c.crashed[pid] = true
	c.Sim.Crash(pid)
}

// Restart brings a crashed process back (crash-recovery with durable
// state, sim.Restart) and marks it correct again: the Termination check
// requires it to deliver everything from then on.
func (c *Cluster) Restart(pid mcast.ProcessID) {
	delete(c.crashed, pid)
	c.Sim.Restart(pid)
}

// RandomWorkload submits n messages at random times within window, each to a
// uniformly random non-empty destination set of size ≤ maxDest, from random
// clients.
func (c *Cluster) RandomWorkload(rng *rand.Rand, n int, maxDest int, window time.Duration) []mcast.MsgID {
	if maxDest > c.Top.NumGroups() {
		maxDest = c.Top.NumGroups()
	}
	ids := make([]mcast.MsgID, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(maxDest)
		perm := rng.Perm(c.Top.NumGroups())[:k]
		gs := make([]mcast.GroupID, k)
		for j, g := range perm {
			gs[j] = mcast.GroupID(g)
		}
		at := time.Duration(rng.Int63n(int64(window) + 1))
		idx := rng.Intn(len(c.Clients))
		ids = append(ids, c.Submit(at, idx, mcast.NewGroupSet(gs...), []byte(fmt.Sprintf("msg-%d", i))))
	}
	return ids
}

// CollectHistory pours the simulator's delivery records into the checker
// history and the continuous monitor. It is idempotent: repeated calls
// only append new records.
func (c *Cluster) CollectHistory() *check.History {
	ds := c.Sim.Deliveries()
	for _, d := range ds[c.collected:] {
		c.hist.AddDelivery(d.Proc, d.D)
	}
	c.collected = len(ds)
	c.pourMonitor()
	return c.hist
}

func (c *Cluster) pourMonitor() {
	ds := c.Sim.Deliveries()
	for _, d := range ds[c.monitored:] {
		c.Monitor.NoteDelivery(d.Proc, d.D)
	}
	c.monitored = len(ds)
}

// RunChecked advances virtual time to until in slices of step, feeding
// every new delivery through the continuous invariant monitor after each
// slice. It stops early and returns the violations as soon as any
// invariant breaks, so a chaos failure is pinned near the virtual time it
// occurred; nil means the run reached until with every check green.
func (c *Cluster) RunChecked(until, step time.Duration) []error {
	if step <= 0 {
		step = 10 * time.Millisecond
	}
	for c.Sim.Now() < until {
		next := c.Sim.Now() + step
		if next > until {
			next = until
		}
		c.Sim.Run(next)
		c.pourMonitor()
		if errs := c.Monitor.Errs(); len(errs) > 0 {
			return errs
		}
	}
	return nil
}

// DeliveryLog renders every delivery observed so far as one canonical text
// line per delivery, in processing order. Two runs of the same seeded
// schedule must produce byte-identical logs — the reproducibility contract
// of the chaos harness (TestChaosDeterministic).
func (c *Cluster) DeliveryLog() []byte {
	var b strings.Builder
	for _, d := range c.Sim.Deliveries() {
		fmt.Fprintf(&b, "t=%d p%d %v gts=(%d,g%d) sub=%d payload=%q\n",
			int64(d.At), d.Proc, d.D.Msg.ID, d.D.GTS.Time, d.D.GTS.Group, d.D.Sub, d.D.Msg.Payload)
	}
	return []byte(b.String())
}

// TraceLog renders the recorded message-lifecycle trace as the canonical
// timeline, one line per event in recording order. Like DeliveryLog, two
// runs of the same seeded schedule must produce byte-identical trace logs
// (TestTraceDeterministic) — the tracer samples by sequence number and
// timestamps by virtual time, never by RNG or wall clock.
func (c *Cluster) TraceLog() []byte {
	return []byte(obs.FormatTimeline(c.Tracer.Events()))
}

// Check runs the full correctness check (with GTS checks on) and the
// genuineness audit, returning all violations.
func (c *Cluster) Check(atQuiescence bool) []error {
	h := c.CollectHistory()
	errs := h.Check(check.Config{
		Topology:     c.Top,
		Crashed:      c.crashed,
		AtQuiescence: atQuiescence,
		CheckGTS:     true,
		Conflicts:    c.conflicts,
	})
	errs = append(errs, c.Sim.AuditGenuineness(c.Top)...)
	return errs
}

// DeliveryLatency returns, for message id, the latency from its submission
// to its first delivery in group g (the paper's per-group delivery latency).
func (c *Cluster) DeliveryLatency(id mcast.MsgID, g mcast.GroupID) (time.Duration, bool) {
	sub, ok := c.Sim.SubmitTime(id)
	if !ok {
		return 0, false
	}
	at, ok := c.Sim.FirstDelivery(c.Top, id, g)
	if !ok {
		return 0, false
	}
	return at - sub, true
}

// MaxDeliveryLatency returns the maximum over dest groups of the first
// delivery latency of id — the paper's "delivery latency with respect to
// all groups in dest(m)".
func (c *Cluster) MaxDeliveryLatency(id mcast.MsgID, dest mcast.GroupSet) (time.Duration, bool) {
	var max time.Duration
	for _, g := range dest {
		l, ok := c.DeliveryLatency(id, g)
		if !ok {
			return 0, false
		}
		if l > max {
			max = l
		}
	}
	return max, true
}

// PayloadClasses returns a synthetic conflict relation that hashes payloads
// into k classes: two payloads conflict iff they land in the same class.
// Genmcast chaos runs use it so roughly 1/k of message pairs conflict —
// enough commuting pairs for early releases (and cross-replica
// reorderings) to actually occur, while every class still exercises the
// ordered path. k ≤ 1 returns nil (every pair conflicts).
func PayloadClasses(k int) mcast.ConflictRelation {
	if k <= 1 {
		return nil
	}
	class := func(p []byte) uint32 {
		h := fnv.New32a()
		h.Write(p)
		return h.Sum32() % uint32(k)
	}
	return func(a, b []byte) bool { return class(a) == class(b) }
}
