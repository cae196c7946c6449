// Benchmarks regenerating the paper's evaluation artefacts, one per table
// or figure (see the experiment index and the recorded paper-vs-measured
// results in EXPERIMENTS.md):
//
//	E1 (Fig. 2)  BenchmarkFig2ConvoyEffectSkeen
//	E2 (Fig. 5)  BenchmarkFig5CollisionFreeWbCast
//	E3 (table)   BenchmarkLatencyTable/<protocol>
//	E4 (Fig. 7)  BenchmarkFig7LAN/<protocol>/dest=D
//	E5 (Fig. 8)  BenchmarkFig8WAN/<protocol>/dest=D
//
// The latency benchmarks run on the deterministic simulator and report the
// measured delivery latency in multiples of δ via the "δ-multiple" metric;
// the throughput benchmarks run closed-loop clients on the live runtime and
// report "msg/s" and mean client latency.
package wbcast_test

import (
	"fmt"
	"testing"

	"wbcast/internal/bench"
	"wbcast/internal/live"
	"wbcast/internal/mcast"
	"wbcast/internal/protocol"
)

// BenchmarkFig2ConvoyEffectSkeen measures Skeen's worst-case (failure-free)
// latency under the adversarial schedule of paper Fig. 2. Expect ≈ 4δ
// (double the 2δ collision-free latency).
func BenchmarkFig2ConvoyEffectSkeen(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		ff, err := bench.FailureFree(protocol.Skeen, 1, 16)
		if err != nil {
			b.Fatal(err)
		}
		last = ff
	}
	b.ReportMetric(last, "δ-multiple")
}

// BenchmarkFig5CollisionFreeWbCast measures the white-box protocol's
// collision-free delivery latency (paper Fig. 5 / Theorem 3). Expect
// exactly 3δ at the destination leaders.
func BenchmarkFig5CollisionFreeWbCast(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		cf, _, err := bench.CollisionFree(protocol.WhiteBox, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = cf
	}
	b.ReportMetric(last, "δ-multiple")
}

// BenchmarkLatencyTable measures both latency metrics for every protocol
// (experiment E3: the paper's 2δ/4δ, 6δ/12δ, 4δ/8δ, 3δ/5δ comparison).
func BenchmarkLatencyTable(b *testing.B) {
	for _, tc := range []struct {
		p         protocol.Kind
		groupSize int
	}{
		{protocol.Skeen, 1}, {protocol.FTSkeen, 3}, {protocol.FastCast, 3}, {protocol.WhiteBox, 3},
	} {
		b.Run(tc.p.String(), func(b *testing.B) {
			p := tc.p
			var cf, ff float64
			var err error
			for i := 0; i < b.N; i++ {
				cf, _, err = bench.CollisionFree(p, tc.groupSize)
				if err != nil {
					b.Fatal(err)
				}
				ff, err = bench.FailureFree(p, tc.groupSize, 16)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cf, "CFδ")
			b.ReportMetric(ff, "FFδ")
		})
	}
}

// throughputBench pumps b.N closed-loop multicasts through a live cluster.
func throughputBench(b *testing.B, p protocol.Kind, groups, clients, dest int, lat live.LatencyFunc) {
	b.Helper()
	b.ResetTimer()
	elapsed, stats, err := bench.RunN(p, bench.ThroughputConfig{
		Groups: groups, GroupSize: 3,
		Clients: clients, DestGroups: dest,
		Latency: lat,
	}, b.N)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msg/s")
	}
	b.ReportMetric(float64(stats.Mean.Microseconds()), "µs-mean-lat")
}

// BenchmarkFig7LAN reproduces points of the paper's Fig. 7: LAN profile,
// 10 groups × 3 replicas, 32 closed-loop clients, varying destination
// groups. Compare msg/s and latency across the three protocol sub-benches.
func BenchmarkFig7LAN(b *testing.B) {
	for _, dest := range []int{1, 2, 4} {
		for _, proto := range []protocol.Kind{protocol.WhiteBox, protocol.FastCast, protocol.FTSkeen} {
			b.Run(fmt.Sprintf("%s/dest=%d", proto, dest), func(b *testing.B) {
				throughputBench(b, proto, 10, 32, dest, live.LAN())
			})
		}
	}
}

// BenchmarkFig8WAN reproduces points of the paper's Fig. 8: WAN profile
// (Oregon / N. Virginia / England round-trip matrix), one replica per data
// centre per group. Operations take tens of milliseconds by design.
func BenchmarkFig8WAN(b *testing.B) {
	top := mcast.UniformTopology(10, 3)
	wan := live.WAN(live.PaperWANAssign(top))
	for _, dest := range []int{2} {
		for _, proto := range []protocol.Kind{protocol.WhiteBox, protocol.FastCast, protocol.FTSkeen} {
			b.Run(fmt.Sprintf("%s/dest=%d", proto, dest), func(b *testing.B) {
				throughputBench(b, proto, 10, 64, dest, wan)
			})
		}
	}
}

// BenchmarkGenuinenessScaling shows why genuineness matters (paper §I):
// doubling the number of groups does not slow down messages addressed to
// disjoint pairs — throughput scales with the number of groups.
func BenchmarkGenuinenessScaling(b *testing.B) {
	for _, groups := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			throughputBench(b, protocol.WhiteBox, groups, 4*groups, 2, live.LAN())
		})
	}
}
