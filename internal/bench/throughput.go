package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/client"
	"wbcast/internal/harness"
	"wbcast/internal/live"
	"wbcast/internal/mcast"
	"wbcast/internal/protocol"
)

// atomicInt64 wraps atomic.Int64 for use as a work counter.
type atomicInt64 struct{ v atomic.Int64 }

// ThroughputConfig parametrises one point of the Fig. 7/8 curves.
type ThroughputConfig struct {
	// Groups and GroupSize define the topology (the paper uses 10 × 3).
	Groups    int
	GroupSize int
	// Clients is the number of closed-loop clients.
	Clients int
	// Outstanding is the number of multicasts each client keeps in flight
	// (its pipelining depth). Default 1, the paper's strict closed loop.
	// Batching only pays off with Outstanding > 1: a client with a single
	// outstanding payload never has anything to aggregate.
	Outstanding int
	// DestGroups is the number of destination groups per message (the
	// per-panel parameter of Figs. 7–8).
	DestGroups int
	// PayloadSize is the message payload (the paper uses 20 bytes).
	PayloadSize int
	// Batching, when non-nil, batches client payloads into protocol-level
	// envelopes (internal/batch). Zero-valued fields take their defaults.
	Batching *batch.Options
	// Latency is the injected network profile (live.LAN(), live.WAN(...)).
	Latency live.LatencyFunc
	// Warmup and Measure are the warm-up and measurement windows.
	Warmup  time.Duration
	Measure time.Duration
	// Seed randomises destination choices.
	Seed int64
}

// ThroughputResult is one measured point.
type ThroughputResult struct {
	Config   ThroughputConfig
	Protocol string
	// Throughput is completed application multicasts (payloads) per
	// second — msgs/sec.
	Throughput float64
	// Batches is protocol-level multicasts per second: the rate the
	// ordering protocol actually sustained. Without batching it equals
	// Throughput; with batching, Throughput/Batches is the achieved mean
	// batch size.
	Batches float64
	Latency LatencyStats
}

// clientProbe is the per-client measurement state shared between the
// submitter goroutine and the client handler's completion callback.
type clientProbe struct {
	sem chan struct{} // occupied slots of the pipelining window

	mu                sync.Mutex
	t0                map[uint32]time.Time // submit time per in-flight seq
	samples           []time.Duration
	completedInWindow int64

	batcher *batch.Client // nil when batching is off
}

// Throughput runs a closed-loop benchmark: each client keeps Outstanding
// multicasts in flight to DestGroups random groups, submitting a new
// message whenever a completion (delivery replies from every destination
// group) frees a window slot — the evaluation methodology of the paper
// (§VI, following Coelho et al.), generalised with client pipelining and
// optional batching.
func Throughput(k protocol.Kind, cfg ThroughputConfig) (ThroughputResult, error) {
	if cfg.Groups <= 0 || cfg.GroupSize <= 0 || cfg.Clients <= 0 {
		return ThroughputResult{}, fmt.Errorf("bench: invalid topology/client config")
	}
	if cfg.DestGroups <= 0 || cfg.DestGroups > cfg.Groups {
		return ThroughputResult{}, fmt.Errorf("bench: DestGroups %d out of range", cfg.DestGroups)
	}
	if cfg.PayloadSize <= 0 {
		cfg.PayloadSize = 20
	}
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 1
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 500 * time.Millisecond
	}
	if cfg.Measure <= 0 {
		cfg.Measure = 2 * time.Second
	}
	top := mcast.UniformTopology(cfg.Groups, cfg.GroupSize)
	net := live.New(live.Config{Latency: cfg.Latency})
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		h, err := protocol.New(protocol.Config{Kind: k, PID: pid, Top: top})
		if err != nil {
			return ThroughputResult{}, err
		}
		if err := net.Add(h); err != nil {
			return ThroughputResult{}, err
		}
	}
	contacts := protocol.Contacts(top)
	blanket := func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) }

	// measureFrom/deadline are written before the first Submit and only
	// read from callbacks that are downstream of a Submit, so the channel
	// send of Submit orders the accesses.
	var measureFrom, deadline time.Time
	probes := make([]*clientProbe, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		probe := &clientProbe{
			sem: make(chan struct{}, cfg.Outstanding),
			t0:  make(map[uint32]time.Time),
		}
		probes[i] = probe
		onComplete := func(id mcast.MsgID) {
			t1 := time.Now()
			probe.mu.Lock()
			if t0, ok := probe.t0[id.Seq()]; ok {
				delete(probe.t0, id.Seq())
				if t1.After(measureFrom) && t1.Before(deadline) {
					probe.samples = append(probe.samples, t1.Sub(t0))
					probe.completedInWindow++
				}
			}
			probe.mu.Unlock()
			<-probe.sem
		}
		cl := batch.NewHandler(client.Config{
			PID:           harness.ClientPID(top, i),
			Contacts:      contacts,
			Retry:         5 * time.Second, // safety net; unused without faults
			RetryContacts: blanket,
			OnComplete:    onComplete,
		}, cfg.Batching)
		if bc, ok := cl.(*batch.Client); ok {
			probe.batcher = bc // sampled for the batch/s report
		}
		if err := net.Add(cl); err != nil {
			return ThroughputResult{}, err
		}
	}
	if err := net.Start(); err != nil {
		return ThroughputResult{}, err
	}
	defer net.Close()

	start := time.Now()
	measureFrom = start.Add(cfg.Warmup)
	deadline = measureFrom.Add(cfg.Measure)

	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			probe := probes[i]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			pid := harness.ClientPID(top, i)
			payload := make([]byte, cfg.PayloadSize)
			var seq uint32
			for time.Now().Before(deadline) {
				probe.sem <- struct{}{} // wait for a window slot
				seq++
				perm := rng.Perm(cfg.Groups)[:cfg.DestGroups]
				gs := make([]mcast.GroupID, cfg.DestGroups)
				for j, g := range perm {
					gs[j] = mcast.GroupID(g)
				}
				m := mcast.AppMsg{
					ID:      mcast.MakeMsgID(pid, seq),
					Dest:    mcast.NewGroupSet(gs...),
					Payload: payload,
				}
				probe.mu.Lock()
				probe.t0[seq] = time.Now()
				probe.mu.Unlock()
				if err := net.Submit(pid, m); err != nil {
					<-probe.sem
					return
				}
			}
		}(i)
	}

	// Sample the protocol-level batch counters at the window edges.
	batchCount := func() int64 {
		var n int64
		for _, probe := range probes {
			if probe.batcher != nil {
				n += probe.batcher.BatchesSent()
			}
		}
		return n
	}
	time.Sleep(time.Until(measureFrom))
	batchesAtWarmup := batchCount()
	time.Sleep(time.Until(deadline))
	batchesAtDeadline := batchCount()
	wg.Wait()

	var all []time.Duration
	var completed int64
	for _, probe := range probes {
		probe.mu.Lock()
		all = append(all, probe.samples...)
		completed += probe.completedInWindow
		probe.mu.Unlock()
	}
	res := ThroughputResult{
		Config:     cfg,
		Protocol:   k.String(),
		Throughput: float64(completed) / cfg.Measure.Seconds(),
		Latency:    Summarise(all),
	}
	if cfg.Batching != nil {
		res.Batches = float64(batchesAtDeadline-batchesAtWarmup) / cfg.Measure.Seconds()
	} else {
		res.Batches = res.Throughput
	}
	return res, nil
}

// RunN drives exactly n closed-loop multicasts through a live cluster and
// returns the wall-clock duration and latency statistics. testing.B
// benchmarks use it to pump b.N messages.
func RunN(k protocol.Kind, cfg ThroughputConfig, n int) (time.Duration, LatencyStats, error) {
	if cfg.Groups <= 0 || cfg.GroupSize <= 0 || cfg.Clients <= 0 {
		return 0, LatencyStats{}, fmt.Errorf("bench: invalid topology/client config")
	}
	if cfg.DestGroups <= 0 || cfg.DestGroups > cfg.Groups {
		return 0, LatencyStats{}, fmt.Errorf("bench: DestGroups %d out of range", cfg.DestGroups)
	}
	if cfg.PayloadSize <= 0 {
		cfg.PayloadSize = 20
	}
	top := mcast.UniformTopology(cfg.Groups, cfg.GroupSize)
	net := live.New(live.Config{Latency: cfg.Latency})
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		h, err := protocol.New(protocol.Config{Kind: k, PID: pid, Top: top})
		if err != nil {
			return 0, LatencyStats{}, err
		}
		if err := net.Add(h); err != nil {
			return 0, LatencyStats{}, err
		}
	}
	contacts := protocol.Contacts(top)
	doneCh := make([]chan struct{}, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		doneCh[i] = make(chan struct{}, 1)
		ch := doneCh[i]
		cl := client.New(client.Config{
			PID:           harness.ClientPID(top, i),
			Contacts:      contacts,
			Retry:         5 * time.Second,
			RetryContacts: func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) },
			OnComplete:    func(mcast.MsgID) { ch <- struct{}{} },
		})
		if err := net.Add(cl); err != nil {
			return 0, LatencyStats{}, err
		}
	}
	if err := net.Start(); err != nil {
		return 0, LatencyStats{}, err
	}
	defer net.Close()

	var remaining atomicInt64
	remaining.v.Store(int64(n))
	samples := make([][]time.Duration, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			pid := harness.ClientPID(top, i)
			payload := make([]byte, cfg.PayloadSize)
			var seq uint32
			for remaining.v.Add(-1) >= 0 {
				seq++
				perm := rng.Perm(cfg.Groups)[:cfg.DestGroups]
				gs := make([]mcast.GroupID, cfg.DestGroups)
				for j, g := range perm {
					gs[j] = mcast.GroupID(g)
				}
				m := mcast.AppMsg{
					ID:      mcast.MakeMsgID(pid, seq),
					Dest:    mcast.NewGroupSet(gs...),
					Payload: payload,
				}
				t0 := time.Now()
				if err := net.Submit(pid, m); err != nil {
					return
				}
				<-doneCh[i]
				samples[i] = append(samples[i], time.Since(t0))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []time.Duration
	for i := range samples {
		all = append(all, samples[i]...)
	}
	return elapsed, Summarise(all), nil
}
