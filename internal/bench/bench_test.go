package bench_test

import (
	"testing"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/bench"
	"wbcast/internal/live"
	"wbcast/internal/protocol"
)

func TestSummarise(t *testing.T) {
	if s := bench.Summarise(nil); s.Count != 0 {
		t.Error("empty sample should be zero stats")
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	s := bench.Summarise(samples)
	if s.Count != 100 || s.P50 != 50*time.Millisecond || s.Max != 100*time.Millisecond {
		t.Errorf("stats = %+v", s)
	}
	if s.P99 != 99*time.Millisecond { // nearest-rank (lower) percentile
		t.Errorf("P99 = %v", s.P99)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Errorf("Mean = %v", s.Mean)
	}
}

// TestLatencyTable regenerates experiment E3 with a reduced probe count and
// checks that the measured collision-free latencies match the paper exactly
// and the failure-free latencies are within the paper's bounds.
func TestLatencyTable(t *testing.T) {
	rows, err := bench.LatencyTable(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CollisionFree != r.PaperCF {
			t.Errorf("%s: collision-free = %.2fδ, paper says %.0fδ", r.Protocol, r.CollisionFree, r.PaperCF)
		}
		if r.FailureFree < r.PaperCF {
			t.Errorf("%s: failure-free %.2fδ below collision-free", r.Protocol, r.FailureFree)
		}
		if r.FailureFree > r.PaperFF+0.1 {
			t.Errorf("%s: failure-free = %.2fδ exceeds the paper's bound %.0fδ", r.Protocol, r.FailureFree, r.PaperFF)
		}
	}
	// The relative ordering that is the paper's headline: WbCast beats
	// FastCast beats FT-Skeen on both metrics.
	byName := map[string]bench.LatencyRow{}
	for _, r := range rows {
		byName[r.Protocol] = r
	}
	if !(byName["wbcast"].CollisionFree < byName["fastcast"].CollisionFree &&
		byName["fastcast"].CollisionFree < byName["ftskeen"].CollisionFree) {
		t.Error("collision-free ordering wbcast < fastcast < ftskeen violated")
	}
	if !(byName["wbcast"].FailureFree < byName["fastcast"].FailureFree &&
		byName["fastcast"].FailureFree < byName["ftskeen"].FailureFree) {
		t.Error("failure-free ordering wbcast < fastcast < ftskeen violated")
	}
}

// TestThroughputSmoke runs a miniature Fig. 7 point for each protocol and
// sanity-checks the outputs.
func TestThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark")
	}
	for _, p := range []protocol.Kind{protocol.WhiteBox, protocol.FastCast, protocol.FTSkeen} {
		res, err := bench.Throughput(p, bench.ThroughputConfig{
			Groups: 3, GroupSize: 3, Clients: 8, DestGroups: 2,
			Latency: live.LAN(),
			Warmup:  100 * time.Millisecond,
			Measure: 400 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Throughput <= 0 {
			t.Errorf("%s: throughput = %v", p, res.Throughput)
		}
		if res.Latency.Mean <= 0 {
			t.Errorf("%s: mean latency = %v", p, res.Latency.Mean)
		}
		t.Logf("%s: %.0f msg/s, mean %v, p99 %v", p, res.Throughput, res.Latency.Mean, res.Latency.P99)
	}
}

// TestBatchingThroughputGain is the batching acceptance benchmark: with
// MaxMsgs=64 batches, the white-box protocol on the in-process harness
// must sustain at least 2× the msgs/sec of the identically loaded
// unbatched configuration (the achieved ratio is far larger — batching
// divides the per-message ordering cost by the mean batch size).
func TestBatchingThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark")
	}
	p := protocol.WhiteBox
	base := bench.ThroughputConfig{
		Groups: 2, GroupSize: 3, Clients: 4, DestGroups: 2,
		Outstanding: 256,
		Warmup:      200 * time.Millisecond,
		Measure:     500 * time.Millisecond,
	}
	plainCfg := base
	plain, err := bench.Throughput(p, plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	batchedCfg := base
	batchedCfg.Batching = &batch.Options{MaxMsgs: 64, MaxDelay: 200 * time.Microsecond}
	batched, err := bench.Throughput(p, batchedCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unbatched: %.0f msg/s (%.0f batch/s); batched: %.0f msg/s (%.0f batch/s, mean batch %.1f)",
		plain.Throughput, plain.Batches, batched.Throughput, batched.Batches,
		batched.Throughput/batched.Batches)
	if plain.Throughput <= 0 || batched.Throughput <= 0 {
		t.Fatalf("degenerate throughput: plain %v, batched %v", plain.Throughput, batched.Throughput)
	}
	if batched.Throughput < 2*plain.Throughput {
		t.Errorf("batched throughput %.0f msg/s < 2× unbatched %.0f msg/s", batched.Throughput, plain.Throughput)
	}
	// The protocol must have ordered fewer multicasts than payloads:
	// amortisation is the mechanism of the gain.
	if batched.Batches <= 0 || batched.Throughput/batched.Batches < 2 {
		t.Errorf("mean batch size %.2f < 2 — batching did not aggregate", batched.Throughput/batched.Batches)
	}
}

// TestThroughputOutstanding checks the pipelining generalisation alone:
// Outstanding > 1 must not break the measurement plumbing.
func TestThroughputOutstanding(t *testing.T) {
	if testing.Short() {
		t.Skip("live benchmark")
	}
	res, err := bench.Throughput(protocol.WhiteBox, bench.ThroughputConfig{
		Groups: 2, GroupSize: 3, Clients: 2, DestGroups: 1,
		Outstanding: 8,
		Latency:     live.LAN(),
		Warmup:      100 * time.Millisecond,
		Measure:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %v", res.Throughput)
	}
	if res.Batches != res.Throughput {
		t.Errorf("unbatched Batches %.0f != Throughput %.0f", res.Batches, res.Throughput)
	}
}
