package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wbcast"
	"wbcast/kv"
)

// Topology and client shape shared by every workload: 3 groups × 3
// replicas, default protocol timing (Delta = 2ms), one client.
const (
	groups   = 3
	replicas = 3
)

// workload is one traffic mix. rate and limit are the nominal offered rate
// and the p99 latency limit that defines capacity; the capacity ramp
// offers rampFrom × rate rising to rampTop × rate.
type workload struct {
	name     string
	rate     float64
	limit    time.Duration
	rampFrom float64
	rampTop  float64

	// mcast selects raw multicast over TCP loopback; otherwise the kv
	// service runs on the in-process transport.
	mcast    bool
	protocol wbcast.Protocol
	lan      bool    // inject the paper's LAN delay (50µs one way)
	durable  bool    // DirStorage + SyncBatched + kv Persist
	reads    float64 // kv read fraction of single-key accesses
	failover bool    // crash InitialLeader(0) during the window

	kvwl *kv.Workload // the kv key distribution, built once by keys
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json gives the
// reason for each, and design.json what each per-layer metric should move.
var workloads = []*workload{
	{name: "kv-lan", rate: 5000, limit: 10 * time.Millisecond, rampFrom: 2, rampTop: 7,
		protocol: wbcast.WhiteBox, lan: true, reads: 0.5},
	{name: "mcast-tcp", rate: 1000, limit: 10 * time.Millisecond, rampFrom: 3, rampTop: 12,
		mcast: true, protocol: wbcast.WhiteBox},
	{name: "kv-durable", rate: 200, limit: 100 * time.Millisecond, rampFrom: 4.5, rampTop: 18,
		protocol: wbcast.WhiteBox, durable: true, reads: 0.1},
	{name: "kv-genmcast", rate: 3000, limit: 50 * time.Millisecond, rampFrom: 5.0 / 3, rampTop: 20.0 / 3,
		protocol: wbcast.Genmcast, lan: true, reads: 0.9},
	{name: "kv-failover", rate: 3000, limit: 150 * time.Millisecond, rampFrom: 2, rampTop: 10,
		protocol: wbcast.WhiteBox, lan: true, reads: 0.5, failover: true},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) transport() string {
	if w.mcast {
		return "tcp-loopback"
	}
	return "in-process"
}

func (w *workload) delay() string {
	if w.lan {
		return "lan-50us"
	}
	return "none"
}

// Operation kinds.
const (
	opGet = iota
	opPut
	opTxn
	opMcast
)

// op is one generated operation. Every operation that carries bytes the
// benchmark chose (a Put value, a multicast payload) embeds its index
// behind tagMagic, so the traced run can join deliveries to operations.
type op struct {
	kind   int
	key    []byte
	val    []byte
	subs   []kv.Op
	dests  []wbcast.GroupID
	mask   uint8 // bit g set when the operation is addressed to group g
	tagged bool
}

var tagMagic = []byte{0xfe, 'w', 'b', 0x01}

const tagLen = 12 // magic + 8-byte operation index

func putTag(b []byte, idx int) {
	copy(b, tagMagic)
	binary.LittleEndian.PutUint64(b[len(tagMagic):], uint64(idx))
}

// tagIndex returns the operation index embedded in payload, or -1.
func tagIndex(payload []byte) int {
	i := bytes.Index(payload, tagMagic)
	if i < 0 || len(payload) < i+tagLen {
		return -1
	}
	return int(binary.LittleEndian.Uint64(payload[i+len(tagMagic):]))
}

// source generates a workload's operations deterministically from a seed.
type source struct {
	w   *workload
	gen *kv.WorkloadGen
	rng *rand.Rand
}

func newSource(w *workload, wl *kv.Workload, seed int64) *source {
	s := &source{w: w, rng: rand.New(rand.NewSource(seed))}
	if wl != nil {
		s.gen = wl.Generator(seed)
	}
	return s
}

func (s *source) next(idx int) op {
	if s.w.mcast {
		// 20-byte payload; half to one group, half to two.
		o := op{kind: opMcast, val: make([]byte, 20), tagged: true}
		putTag(o.val, idx)
		s.rng.Read(o.val[tagLen:])
		first := s.rng.Intn(groups)
		o.dests = []wbcast.GroupID{wbcast.GroupID(first)}
		if s.rng.Intn(2) == 1 {
			o.dests = append(o.dests, wbcast.GroupID((first+1+s.rng.Intn(groups-1))%groups))
		}
		for _, g := range o.dests {
			o.mask |= 1 << g
		}
		return o
	}
	wop := s.gen.Next()
	o := op{key: wop.Op.Key}
	for _, sh := range wop.Shards {
		o.mask |= 1 << sh
	}
	switch wop.Op.Kind {
	case kv.OpGet:
		o.kind = opGet
	case kv.OpPut:
		o.kind, o.val, o.tagged = opPut, wop.Op.Val, true
		putTag(o.val, idx)
	default:
		o.kind, o.subs = opTxn, wop.Op.Subs
		for _, sub := range o.subs {
			if sub.Kind == kv.OpPut {
				putTag(sub.Val, idx)
				o.tagged = true
			}
		}
	}
	return o
}

// sut is one set-up system under test: the cluster, the kv service or the
// multicast application, the single client, and the traced run's probes.
type sut struct {
	w       *workload
	cluster *wbcast.Cluster
	svc     *kv.Service
	kvc     *kv.Client
	mc      *wbcast.Client
	taps    []*tap // subscription consumers: every replica on mcast-tcp and in traced runs
	pr      *probes
	wl      *kv.Workload
	dir     string
	crashed wbcast.ProcessID
}

// setup builds a fresh system for w. pr is nil in untraced runs.
func setup(w *workload, workdir string, pr *probes) (*sut, error) {
	s := &sut{w: w, pr: pr, crashed: wbcast.NoProcess}
	cfg := wbcast.Config{Protocol: w.protocol, Groups: groups, Replicas: replicas}
	if w.lan {
		cfg.Latency = wbcast.LAN()
	}
	if pr != nil && !w.mcast {
		cfg.Latency = pr.countingLatency(cfg.Latency, wbcast.ClientID(cfg, 0))
	}
	if w.mcast {
		peers := make(map[wbcast.ProcessID]string)
		for pid := 0; pid <= groups*replicas; pid++ { // replicas + one client
			peers[wbcast.ProcessID(pid)] = "127.0.0.1:0"
		}
		cfg.Transport = wbcast.TCP("", peers)
	}
	if w.durable {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		// SyncBatched fsyncs every 8th Sync of each store: real fsyncs
		// stay on the persist-before-release path, but not on every step
		// of every operation. Under SyncAlways the median latency followed
		// the shared virtual disk and host steal, from 1.3 ms to 4.5 ms
		// between runs of one set.
		cfg.Storage = wbcast.DirStorageWith(dir, wbcast.StorageOptions{Policy: wbcast.SyncBatched})
		if pr != nil {
			cfg.Storage = pr.timedStorage(cfg.Storage)
		}
	}
	c, err := wbcast.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.cluster = c
	if pr != nil {
		pr.setLeaders(c)
	}
	if w.mcast || pr != nil {
		for _, r := range c.Replicas() {
			s.taps = append(s.taps, newTap(r, pr, w.mcast))
		}
	}
	if w.mcast {
		if s.mc, err = c.NewClient(); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	s.svc, err = kv.NewService(c, kv.Options{Persist: w.durable, RecordApplied: pr != nil, Partitioner: kv.HashPartitioner{}})
	if err != nil {
		s.close()
		return nil, err
	}
	if pr != nil {
		c.Replica(0).SetConflictRelation(pr.timedConflicts(kv.Conflicts))
	}
	if s.kvc, err = s.svc.NewClient(); err != nil {
		s.close()
		return nil, err
	}
	if s.wl, err = w.keys(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// keys returns the kv workload's key distribution, building it on the
// first call. Building it sums the Zipfian zeta over 1M keys, 50-140 ms of
// CPU whose length followed the host's CPU speed, so run builds it before
// it times any set-up: timed inside every set-up it made up most of
// setup_s and hid the system's own set-up.
func (w *workload) keys() (*kv.Workload, error) {
	if w.kvwl != nil {
		return w.kvwl, nil
	}
	part := kv.HashPartitioner{} // the kv service's default
	wl, err := kv.NewWorkload(kv.WorkloadConfig{
		Keys:         1_000_000,
		Dist:         kv.Zipfian,
		Theta:        0.99,
		ReadFraction: w.reads,
		MultiShard:   0.1,
		ValueSize:    64,
		Shards:       groups,
		Shard:        func(key []byte) int { return part.Shard(key, groups) },
	})
	w.kvwl = wl
	return wl, err
}

// do issues one operation and waits for its completion or ctx.
func (s *sut) do(ctx context.Context, o op) error {
	var err error
	switch o.kind {
	case opMcast:
		var done <-chan struct{}
		if _, done, err = s.mc.MulticastAsync(o.val, o.dests...); err != nil {
			return err
		}
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	case opGet:
		_, _, err = s.kvc.Get(ctx, o.key)
	case opPut:
		err = s.kvc.Put(ctx, o.key, o.val)
	case opTxn:
		_, err = s.kvc.Txn(ctx, o.subs...)
	}
	return err
}

// crash injects the failover workload's fault: the initial leader of
// group 0 crash-stops.
func (s *sut) crash() {
	s.crashed = s.cluster.InitialLeader(0)
	s.cluster.CrashReplica(s.crashed)
}

// live returns the replicas that were not crashed.
func (s *sut) live() []*wbcast.Replica {
	var out []*wbcast.Replica
	for _, r := range s.cluster.Replicas() {
		if r.ID() != s.crashed {
			out = append(out, r)
		}
	}
	return out
}

// verdict checks the outputs once the phase has drained: every live
// replica of a group reached the same state, and every operation the
// generator issued was applied exactly once per addressed group (at least
// the completed ones, at most the issued ones when some failed).
func (s *sut) verdict(ph *phase) error {
	var issued, completed [groups]int64
	for i := 0; i < ph.attempted(); i++ {
		r := &ph.recs[i]
		st := r.status.Load()
		for g := 0; g < groups; g++ {
			if r.mask&(1<<g) == 0 {
				continue
			}
			if st != stRefused {
				issued[g]++
			}
			if st == stOK {
				completed[g]++
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := s.converged(issued, completed)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (s *sut) converged(issued, completed [groups]int64) error {
	type state struct {
		digest uint64
		front  string
		n      int64
	}
	byGroup := make(map[wbcast.GroupID][]state)
	if s.w.mcast {
		for _, t := range s.taps {
			if t.r.ID() == s.crashed {
				continue
			}
			if err := t.orderErr(); err != nil {
				return err
			}
			d, n := t.digest()
			byGroup[t.r.Group()] = append(byGroup[t.r.Group()], state{digest: d, n: n})
		}
	} else {
		if err := s.svc.Err(); err != nil {
			return err
		}
		// Shards are listed in replica order, one per replica.
		for i, sh := range s.svc.Replicas() {
			if wbcast.ProcessID(i) == s.crashed {
				continue
			}
			gts, sub := sh.Frontier()
			applied, _, _ := sh.Counters()
			byGroup[sh.Group()] = append(byGroup[sh.Group()],
				state{digest: sh.Digest(), front: fmt.Sprint(gts, sub), n: int64(applied)})
		}
	}
	for g, sts := range byGroup {
		for _, st := range sts {
			if st != sts[0] {
				return fmt.Errorf("group %d replicas diverge: %+v vs %+v", g, st, sts[0])
			}
			if st.n < completed[g] || st.n > issued[g] {
				return fmt.Errorf("group %d replica applied %d operations; issued %d, completed %d",
					g, st.n, issued[g], completed[g])
			}
		}
	}
	return nil
}

func (s *sut) close() {
	if s.svc != nil {
		s.svc.Close()
	}
	for _, t := range s.taps {
		t.close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// tap consumes one replica's delivery subscription. On mcast-tcp it is the
// application: it checks that (GTS, Sub) strictly increases and folds the
// delivered message IDs into a digest. In traced runs it also stamps the
// first delivery time of every tagged operation at its replica.
type tap struct {
	r     *wbcast.Replica
	sub   *wbcast.Subscription
	pr    *probes
	check bool
	done  chan struct{}
	seen  atomic.Int64

	mu    sync.Mutex
	n     int64
	h     uint64
	last  wbcast.Delivery
	bad   error
	times []int64 // per operation index, ns since the phase start; 0 = not seen
}

func newTap(r *wbcast.Replica, pr *probes, check bool) *tap {
	t := &tap{r: r, pr: pr, check: check, done: make(chan struct{}), h: fnvOffset}
	t.sub = r.Subscribe(1<<14, wbcast.Backpressure)
	go t.run()
	return t
}

const fnvOffset = 14695981039346656037

func (t *tap) run() {
	defer close(t.done)
	first := true
	for d := range t.sub.C() {
		var at int64
		if t.pr != nil {
			at = t.pr.now()
		}
		t.mu.Lock()
		if t.check {
			if !first && !t.last.Before(d) && t.bad == nil {
				t.bad = fmt.Errorf("replica %d delivered (%v,%d) after (%v,%d)", t.r.ID(), d.GTS, d.Sub, t.last.GTS, t.last.Sub)
			}
			first = false
			t.last = d
			h := fnv.New64a()
			var b [16]byte
			binary.LittleEndian.PutUint64(b[:8], t.h)
			binary.LittleEndian.PutUint64(b[8:], uint64(d.Msg.ID))
			h.Write(b[:])
			t.h = h.Sum64()
			t.n++
		}
		if at > 0 && t.times != nil {
			if i := tagIndex(d.Msg.Payload); i >= 0 && i < len(t.times) && t.times[i] == 0 {
				t.times[i] = at
			}
		}
		t.mu.Unlock()
		t.seen.Add(1)
	}
}

func (t *tap) orderErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bad
}

func (t *tap) digest() (uint64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h, t.n
}

// arm gives the tap a fresh per-operation timing table.
func (t *tap) arm(n int) {
	t.mu.Lock()
	t.times = make([]int64, n)
	t.mu.Unlock()
}

func (t *tap) close() {
	t.sub.Close()
	<-t.done
}

// walFS names the filesystem under dir, for the environment block.
func walFS(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	abs, _ := filepath.Abs(dir)
	return fsType(abs)
}
