package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wbcast"
)

// Metric names read from Replica.Metrics and Client.Metrics; the catalog
// is docs/OBSERVABILITY.md.
const (
	mDeliveries  = "wbcast_deliveries_total"
	mRetransmits = "wbcast_retransmits_total"
	mElections   = "wbcast_elections_total"
	mEarly       = "genmcast_early_releases_total"
	mBlocked     = "genmcast_release_blocked_total"
	mRetries     = "wbcast_client_retries_total"
	mEncoded     = "wbcast_messages_encoded_total"
	mFramesSent  = "wbcast_frames_sent_total"
	mCoalesced   = "wbcast_frames_coalesced_total"
	mReconnects  = "wbcast_reconnects_total"
	mAckBatch    = "wbcast_ack_batch_size"
	mEncode      = "wbcast_encode_stage_seconds"
	mDecode      = "wbcast_decode_stage_seconds"
)

// layerBase is what the traced run samples just before the phase starts.
type layerBase struct {
	snap wbcast.MetricsSnapshot
	rt   rt
	gor  *sampler
}

// metricsNow merges every replica's and the multicast client's metrics.
func (s *sut) metricsNow() wbcast.MetricsSnapshot {
	snap := s.cluster.Metrics()
	if s.mc != nil {
		snap = wbcast.MergeMetrics(snap, s.mc.Metrics())
	}
	return snap
}

func (s *sut) layerBase() layerBase {
	return layerBase{snap: s.metricsNow(), rt: readRT(), gor: startSampler()}
}

// sampler records the largest goroutine count seen every 10ms; finish
// reads max after the sampling goroutine has exited.
type sampler struct {
	max  uint64
	stop chan struct{}
	done chan struct{}
}

func startSampler() *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			sm.max = max(sm.max, goroutines())
			select {
			case <-sm.stop:
				return
			case <-t.C:
			}
		}
	}()
	return sm
}

func (sm *sampler) finish() uint64 {
	close(sm.stop)
	<-sm.done
	return sm.max
}

// drainTaps waits until every live replica's tap has consumed all the
// deliveries the replica made, so the timing tables are complete.
func (s *sut) drainTaps() error {
	deadline := time.Now().Add(5 * time.Second)
	for _, t := range s.taps {
		if t.r.ID() == s.crashed {
			continue
		}
		for {
			want := t.r.Metrics().Counters[mDeliveries]
			if t.seen.Load() >= want {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %d tap consumed %d of %d deliveries", t.r.ID(), t.seen.Load(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// spans joins each tagged operation to its deliveries: for every
// destination group, the first delivery at any replica, and the lag of
// every other replica behind it.
type spans struct {
	order, reply, lag []float64 // ns
	recover           float64   // ns from the crash; -1 when not measured
}

func (s *sut) spans(ph *phase, crashAt time.Duration) spans {
	out := spans{recover: -1}
	times := make([][]int64, len(s.taps))
	for i, t := range s.taps {
		t.mu.Lock()
		times[i] = t.times
		t.mu.Unlock()
	}
	lo, hi := ph.measured()
	for i := lo; i < hi; i++ {
		r := &ph.recs[i]
		if !r.tagged || r.status.Load() != stOK {
			continue
		}
		var last int64
		complete := true
		for g := 0; g < groups; g++ {
			if r.mask&(1<<g) == 0 {
				continue
			}
			first := int64(math.MaxInt64)
			for ti, t := range s.taps {
				if int(t.r.Group()) == g && times[ti][i] > 0 && times[ti][i] < first {
					first = times[ti][i]
				}
			}
			if first == math.MaxInt64 {
				complete = false
				break
			}
			for ti, t := range s.taps {
				if int(t.r.Group()) == g && times[ti][i] > first {
					out.lag = append(out.lag, float64(times[ti][i]-first))
				}
			}
			if g == 0 && crashAt >= 0 && r.due > int64(crashAt) {
				if d := float64(first - int64(crashAt)); out.recover < 0 || d < out.recover {
					out.recover = d
				}
			}
			last = max(last, first)
		}
		if !complete {
			continue
		}
		out.order = append(out.order, float64(last-r.submit))
		out.reply = append(out.reply, float64(r.done.Load()-last))
	}
	sort.Float64s(out.order)
	sort.Float64s(out.reply)
	sort.Float64s(out.lag)
	return out
}

// layers computes the per-layer metrics of a drained traced phase.
func (s *sut) layers(ph *phase, base layerBase, nr *nominalRun) []metric {
	ops := float64(ph.measuredCount())
	per := func(v float64) float64 { return v / ops }
	snap := s.metricsNow()
	delta := func(name string) float64 { return float64(snap.Counters[name] - base.snap.Counters[name]) }
	sp := s.spans(ph, nr.crashAt)
	if s.svc == nil {
		sp.reply = nil // the kv reply path exists on kv workloads only
	}
	elapsed := time.Duration(ph.since())
	s.pr.armed.Store(false)
	gmax := base.gor.finish()

	// live.* covers the in-process transport only; TCP mailboxes belong
	// to tcpnet.
	var hw int64
	if !s.w.mcast {
		for _, r := range s.live() {
			hw = max(hw, r.Stats().MailboxHighWater)
		}
	}
	retries := delta(mRetries)
	if !s.w.mcast {
		retries = float64(s.pr.retrySends.Load()) / (replicas - 1)
	}
	var applied float64
	if s.svc != nil {
		for _, sh := range s.svc.Replicas() {
			a, _, _ := sh.Counters()
			applied += float64(a)
		}
	}
	ack := snap.Latencies[mAckBatch]
	ack0 := base.snap.Latencies[mAckBatch]
	ackMean := 0.0
	if n := ack.Count - ack0.Count; n > 0 {
		ackMean = (ack.Sum - ack0.Sum).Seconds() / float64(n)
	}
	w := s.pr.wal()
	busy := 0.0
	if w.stores > 0 {
		busy = float64(w.busy) / (float64(elapsed) * float64(w.stores))
	}
	calls := float64(s.pr.confCalls.Load())
	nsPerCall := 0.0
	if calls > 0 {
		nsPerCall = float64(s.pr.confNs.Load()) / calls
	}
	early := 0.0
	if d := delta(mDeliveries); d > 0 {
		early = delta(mEarly) / d
	}
	gcFrac := 0.0
	if d := nr.rt1.totalCPU - base.rt.totalCPU; d > 0 {
		gcFrac = (nr.rt1.gcCPU - base.rt.gcCPU) / d
	}
	recoverMs := 0.0
	if sp.recover >= 0 {
		recoverMs = sp.recover / 1e6
	}
	return []metric{
		{"live.msgs_per_op", per(float64(s.pr.msgs.Load())), "1/op"},
		{"live.mailbox_hw", float64(hw), "count"},
		{"go.sched_lat_p99_us", schedP99(base.rt, nr.rt1) * 1e6, "us"},
		{"proc.ctxsw_per_op", per(float64(nr.cpu.ctxsw)), "1/op"},
		{"core.order_p50_ms", quantile(sp.order, 0.50) / 1e6, "ms"},
		{"core.order_p99_ms", quantile(sp.order, 0.99) / 1e6, "ms"},
		{"core.follower_lag_p50_ms", quantile(sp.lag, 0.50) / 1e6, "ms"},
		{"core.deliveries_per_op", per(delta(mDeliveries)), "1/op"},
		{"core.retransmits_per_kop", 1000 * per(delta(mRetransmits)), "1/kop"},
		{"core.elections", delta(mElections), "count"},
		{"client.retries_per_kop", 1000 * per(retries), "1/kop"},
		{"core.recover_ms", recoverMs, "ms"},
		{"client.unavail_ms", nr.unavail, "ms"},
		{"kv.reply_p50_ms", quantile(sp.reply, 0.50) / 1e6, "ms"},
		{"kv.reply_p99_ms", quantile(sp.reply, 0.99) / 1e6, "ms"},
		{"kv.applied_per_op", per(applied), "1/op"},
		{"tcpnet.frames_per_op", per(delta(mFramesSent)), "1/op"},
		{"tcpnet.encodes_per_op", per(delta(mEncoded)), "1/op"},
		{"tcpnet.coalesced_frac", ratio(delta(mCoalesced), delta(mFramesSent)), "frac"},
		{"tcpnet.ack_batch_mean", ackMean, "count"},
		{"tcpnet.reconnects", delta(mReconnects), "count"},
		{"wire.encode_p50_us", histQuantile(base.snap.Latencies[mEncode], snap.Latencies[mEncode], 0.5) / 1e3, "us"},
		{"wire.decode_p50_us", histQuantile(base.snap.Latencies[mDecode], snap.Latencies[mDecode], 0.5) / 1e3, "us"},
		{"wal.appends_per_op", per(float64(len(w.appends))), "1/op"},
		{"wal.syncs_per_op", per(float64(len(w.syncs))), "1/op"},
		{"wal.entries_per_op", per(float64(w.entries)), "1/op"},
		{"wal.append_p50_us", quantile(w.appends, 0.50) / 1e3, "us"},
		{"wal.sync_p50_us", quantile(w.syncs, 0.50) / 1e3, "us"},
		{"wal.sync_p99_us", quantile(w.syncs, 0.99) / 1e3, "us"},
		{"wal.busy_frac", busy, "frac"},
		{"conflict.calls_per_op", per(calls), "1/op"},
		{"conflict.ns_per_call", nsPerCall, "ns"},
		{"genmcast.early_release_frac", early, "frac"},
		{"genmcast.blocked_per_op", per(delta(mBlocked)), "1/op"},
		{"go.alloc_bytes_per_op", per(float64(nr.rt1.allocBytes - base.rt.allocBytes)), "B/op"},
		{"go.gc_cpu_frac", gcFrac, "frac"},
		{"go.goroutines_max", float64(gmax), "count"},
		{"gen.late_p99_ms", quantile(ph.lateness(), 0.99) / 1e6, "ms"},
		{"gen.inflight_max", float64(ph.maxIn.Load()), "count"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histQuantile returns the q-quantile (ns) of the observations a histogram
// gained between snapshots a and b, interpolating linearly inside the
// log2 bucket that holds it (bucket i covers [2^(i-1), 2^i) ns).
func histQuantile(a, b wbcast.LatencyStats, q float64) float64 {
	if len(b.Buckets) == 0 {
		return 0
	}
	diff := make([]float64, len(b.Buckets))
	total := 0.0
	for i := range diff {
		diff[i] = float64(b.Buckets[i])
		if i < len(a.Buckets) {
			diff[i] -= float64(a.Buckets[i])
		}
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	cum := 0.0
	for i, c := range diff {
		if c > 0 && cum+c >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return 0
}
