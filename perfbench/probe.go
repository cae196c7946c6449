package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wbcast"
)

// probes are the traced run's measuring points, all installed through the
// public API: a counting Config.Latency (internal/live message routing), a
// timing wrapper around each Config.Storage store (internal/wal), a timing
// wrapper around the conflict relation (internal/mcast, genmcast) and the
// delivery taps. They record only while armed, i.e. during the phase.
type probes struct {
	armed atomic.Bool
	t0    time.Time // set before armed

	msgs       atomic.Int64 // in-process messages routed
	retrySends atomic.Int64 // client sends to a non-initial-leader replica
	client     wbcast.ProcessID
	leaders    atomic.Pointer[map[wbcast.ProcessID]bool]

	confCalls atomic.Int64
	confNs    atomic.Int64

	mu     sync.Mutex
	stores []*timedStore
}

func (p *probes) now() int64 {
	if !p.armed.Load() {
		return 0
	}
	return int64(time.Since(p.t0))
}

// arm starts recording for a phase starting at t0 with n operations.
func (p *probes) arm(t0 time.Time, n int, taps []*tap) {
	p.t0 = t0
	for _, t := range taps {
		t.arm(n)
	}
	p.armed.Store(true)
}

// countingLatency wraps the injected-delay function so that every message
// the in-process transport routes is counted. base nil means no delay. A
// client sends to a group's initial leader first and to every member only
// when it retries, so sends to other members count retries.
func (p *probes) countingLatency(base func(from, to wbcast.ProcessID) time.Duration, client wbcast.ProcessID) func(from, to wbcast.ProcessID) time.Duration {
	p.client = client
	return func(from, to wbcast.ProcessID) time.Duration {
		if p.armed.Load() {
			p.msgs.Add(1)
			if from == p.client {
				if l := p.leaders.Load(); l != nil && !(*l)[to] {
					p.retrySends.Add(1)
				}
			}
		}
		if base == nil {
			return 0
		}
		return base(from, to)
	}
}

func (p *probes) setLeaders(c *wbcast.Cluster) {
	l := make(map[wbcast.ProcessID]bool)
	for g := 0; g < c.NumGroups(); g++ {
		l[c.InitialLeader(wbcast.GroupID(g))] = true
	}
	p.leaders.Store(&l)
}

// timedConflicts wraps the conflict relation to count and time its calls.
func (p *probes) timedConflicts(rel wbcast.ConflictRelation) wbcast.ConflictRelation {
	return func(a, b []byte) bool {
		if !p.armed.Load() {
			return rel(a, b)
		}
		start := time.Now()
		c := rel(a, b)
		p.confNs.Add(int64(time.Since(start)))
		p.confCalls.Add(1)
		return c
	}
}

// timedStorage wraps every store the factory opens.
func (p *probes) timedStorage(open func(wbcast.ProcessID) (wbcast.Storage, error)) func(wbcast.ProcessID) (wbcast.Storage, error) {
	return func(pid wbcast.ProcessID) (wbcast.Storage, error) {
		inner, err := open(pid)
		if err != nil {
			return nil, err
		}
		ts := &timedStore{inner: inner, p: p}
		p.mu.Lock()
		p.stores = append(p.stores, ts)
		p.mu.Unlock()
		return ts, nil
	}
}

// timedStore times Append, Sync and Snapshot of one replica's store. The
// replica serialises calls into its store, so mu is uncontended.
type timedStore struct {
	inner wbcast.Storage
	p     *probes

	mu      sync.Mutex
	entries int64
	appends []int64 // ns per call
	syncs   []int64
	busy    int64 // ns inside Append, Sync and Snapshot
}

func (t *timedStore) Load() (*wbcast.DurableState, error) { return t.inner.Load() }
func (t *timedStore) Close() error                        { return t.inner.Close() }

func (t *timedStore) Append(entries ...wbcast.StorageEntry) error {
	start := time.Now()
	err := t.inner.Append(entries...)
	t.record(&t.appends, len(entries), time.Since(start))
	return err
}

func (t *timedStore) Sync() error {
	start := time.Now()
	err := t.inner.Sync()
	t.record(&t.syncs, 0, time.Since(start))
	return err
}

func (t *timedStore) Snapshot() error {
	start := time.Now()
	err := t.inner.Snapshot()
	t.record(nil, 0, time.Since(start))
	return err
}

func (t *timedStore) record(samples *[]int64, entries int, d time.Duration) {
	if !t.p.armed.Load() {
		return
	}
	t.mu.Lock()
	if samples != nil {
		*samples = append(*samples, int64(d))
	}
	t.entries += int64(entries)
	t.busy += int64(d)
	t.mu.Unlock()
}

// walStats merges every store's samples.
type walStats struct {
	appends, syncs []float64
	entries, busy  int64
	stores         int
}

func (p *probes) wal() walStats {
	var w walStats
	p.mu.Lock()
	stores := p.stores
	p.mu.Unlock()
	for _, t := range stores {
		t.mu.Lock()
		for _, a := range t.appends {
			w.appends = append(w.appends, float64(a))
		}
		for _, s := range t.syncs {
			w.syncs = append(w.syncs, float64(s))
		}
		w.entries += t.entries
		w.busy += t.busy
		t.mu.Unlock()
	}
	w.stores = len(stores)
	sort.Float64s(w.appends)
	sort.Float64s(w.syncs)
	return w
}
