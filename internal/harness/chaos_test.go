package harness_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/faults"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/protocol"
	"wbcast/internal/sim"
)

// Chaos schedule exploration: every seed deterministically generates a
// workload plus a fault schedule (crashes, restarts, partitions, link
// faults, clock skew), runs it against all three protocols with the
// continuous invariant monitor on, and checks Termination and genuineness
// at the horizon. A failing seed replays exactly:
//
//	go test ./internal/harness -run TestChaos -seed=<N>
//
// and -seeds=<N> widens the exploration (CI runs -seeds=5 under -race).
var (
	chaosSeeds = flag.Int("seeds", 3, "number of random chaos schedules to explore per protocol")
	chaosSeed  = flag.Int64("seed", -1, "replay exactly this chaos schedule seed (overrides -seeds)")
)

const (
	chaosDelta   = 10 * time.Millisecond
	chaosHorizon = 40 * time.Second // virtual; faults cease well before
	chaosQuiet   = 6 * time.Second  // all faults healed/cleared by here
)

// chaosRow is one protocol's entry in the chaos matrix: the replica
// template with its liveness machinery enabled, plus the cluster shape and
// fault budget it tolerates.
type chaosRow struct {
	proto protocol.Config
	// groupSize is 3 for the replicated protocols and 1 for plain Skeen,
	// which has no intra-group replication.
	groupSize int
	// benign restricts the schedule to link faults and clock skew: plain
	// Skeen assumes reliable processes, so crash/restart and partitions are
	// off the table (the pattern the kv chaos suite uses for it too).
	benign bool
	// durable reports whether the protocol keeps durable state; rows
	// without it are skipped by the durable chaos variants.
	durable bool
}

// name is the row's subtest name.
func (r chaosRow) name() string { return r.proto.Kind.String() }

// chaosRows returns the five-protocol chaos matrix. The fault-tolerant
// protocols get retries, heartbeats and failure detection — fault recovery
// is timer-driven, so chaos runs need the timers the quiescence tests turn
// off. The genmcast row uses a sparse synthetic conflict relation so
// commuting reorderings actually occur under the partial-order monitor.
func chaosRows() []chaosRow {
	timing := protocol.DefaultTiming(chaosDelta)
	return []chaosRow{
		{proto: protocol.Config{Kind: protocol.WhiteBox, Timing: timing}, groupSize: 3, durable: true},
		{proto: protocol.Config{Kind: protocol.FastCast, Timing: timing}, groupSize: 3, durable: true},
		{proto: protocol.Config{Kind: protocol.FTSkeen, Timing: timing}, groupSize: 3, durable: true},
		{proto: protocol.Config{Kind: protocol.Skeen}, groupSize: 1, benign: true},
		{proto: protocol.Config{
			Kind:      protocol.Genmcast,
			Timing:    timing,
			Conflicts: mcast.NewConflictHolder(batch.Conflicts(harness.PayloadClasses(4))),
		}, groupSize: 3, durable: true},
	}
}

// genPlan derives a random fault schedule from rng over the topology,
// within the liveness budget: at most one member of each group is crashed
// at a time, every crash is restarted, and every partition, link fault and
// clock skew is lifted by chaosQuiet so the Termination check at the
// horizon is fair. With benign set, crashes and partitions are skipped —
// only link degradation and clock skew remain (the fault budget of plain
// Skeen, which assumes reliable processes).
func genPlan(rng *rand.Rand, top *mcast.Topology, clients int, benign bool) *faults.Plan {
	plan := &faults.Plan{}
	replicas := top.NumReplicas()
	procs := replicas + clients
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond
	}

	// Crash/restart pairs, one group at a time.
	downUntil := make(map[mcast.GroupID]time.Duration)
	for i, n := 0, 1+rng.Intn(2); i < n && !benign; i++ {
		p := mcast.ProcessID(rng.Intn(replicas))
		g := top.GroupOf(p)
		at := ms(500, 4000)
		if at < downUntil[g] {
			at = downUntil[g] + ms(50, 200)
		}
		dur := ms(300, 1000)
		plan.At(at, faults.Crash{P: p})
		plan.At(at+dur, faults.Restart{P: p})
		downUntil[g] = at + dur
	}

	// One partition window: isolate a random replica (possibly a leader),
	// or split one replica off symmetrically.
	if !benign && rng.Intn(4) > 0 {
		p := mcast.ProcessID(rng.Intn(replicas))
		at := ms(500, 3000)
		if rng.Intn(2) == 0 {
			plan.At(at, faults.Isolate{P: p})
		} else {
			var rest []mcast.ProcessID
			for q := mcast.ProcessID(0); int(q) < procs; q++ {
				if q != p {
					rest = append(rest, q)
				}
			}
			plan.At(at, faults.Partition{Sides: [][]mcast.ProcessID{{p}, rest}})
		}
		plan.At(at+ms(400, 1500), faults.Heal{})
	}

	// Probabilistic link faults on a couple of random directed links
	// (replica or client endpoints), cleared before the quiet period.
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		from := mcast.ProcessID(rng.Intn(procs))
		to := mcast.ProcessID(rng.Intn(procs))
		plan.At(ms(200, 1500), faults.SetLink{From: from, To: to, Fault: faults.LinkFault{
			DropProb:    0.25 * rng.Float64(),
			DupProb:     0.2 * rng.Float64(),
			ReorderProb: 0.3 * rng.Float64(),
			Delay:       time.Duration(rng.Intn(int(2 * chaosDelta))),
			Jitter:      chaosDelta,
		}})
	}

	// One clock-skewed replica.
	skewed := mcast.ProcessID(rng.Intn(replicas))
	plan.At(ms(100, 1000), faults.ClockSkew{P: skewed, Factor: 0.6 + 1.2*rng.Float64()})

	// Quiet period: lift everything that could impede termination.
	plan.At(chaosQuiet, faults.Heal{})
	plan.At(chaosQuiet, faults.ClearLinks{})
	plan.At(chaosQuiet, faults.ClockSkew{P: skewed, Factor: 1})
	return plan
}

// runChaos executes one seeded schedule against one matrix row and returns
// the canonical delivery log plus the message-lifecycle trace log. Any
// invariant violation fails t.
func runChaos(t *testing.T, row chaosRow, seed int64) (delivery, trace []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top := mcast.UniformTopology(2, row.groupSize)
	const clients = 2
	var events []string
	plan := genPlan(rng, top, clients, row.benign)
	c, err := harness.NewCluster(row.proto, harness.Options{
		Groups: 2, GroupSize: row.groupSize, NumClients: clients,
		Latency: sim.Uniform(chaosDelta),
		Seed:    seed,
		Retry:   30 * chaosDelta,
		Faults:  plan,
		OnFault: func(at time.Duration, desc string) {
			events = append(events, fmt.Sprintf("t=%v %s", at, desc))
		},
		TraceSample: 1, // trace every message: chaos runs are small
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	c.RandomWorkload(rng, 30, 2, 4*time.Second)
	if errs := c.RunChecked(chaosHorizon, 50*time.Millisecond); len(errs) > 0 {
		t.Logf("seed %d fault schedule:\n%s", seed, joinLines(events))
		t.Fatalf("seed %d: continuous invariant violated at t=%v (replay with -run TestChaos -seed=%d):\n%v",
			seed, c.Sim.Now(), seed, errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		t.Logf("seed %d fault schedule:\n%s", seed, joinLines(events))
		for _, e := range errs {
			t.Errorf("seed %d: %v", seed, e)
		}
		t.Fatalf("seed %d: %d violation(s) at the horizon (replay with -run TestChaos -seed=%d)",
			seed, len(errs), seed)
	}
	return c.DeliveryLog(), c.TraceLog()
}

func joinLines(ls []string) string {
	out := ""
	for _, l := range ls {
		out += "  " + l + "\n"
	}
	return out
}

// TestChaos explores -seeds random schedules per protocol (or replays
// -seed exactly).
func TestChaos(t *testing.T) {
	seeds := make([]int64, 0, *chaosSeeds)
	if *chaosSeed >= 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		for i := 0; i < *chaosSeeds; i++ {
			seeds = append(seeds, int64(i))
		}
	}
	for _, row := range chaosRows() {
		row := row
		t.Run(row.name(), func(t *testing.T) {
			for _, seed := range seeds {
				runChaos(t, row, seed)
			}
		})
	}
}

// TestChaosDeterministic runs one seed twice per protocol and requires
// byte-identical delivery logs: the replay contract that makes -seed a
// faithful reproducer.
func TestChaosDeterministic(t *testing.T) {
	seed := int64(7)
	if *chaosSeed >= 0 {
		seed = *chaosSeed
	}
	for _, row := range chaosRows() {
		row := row
		t.Run(row.name(), func(t *testing.T) {
			a, ta := runChaos(t, row, seed)
			b, tb := runChaos(t, row, seed)
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d: delivery logs differ between two runs (%d vs %d bytes)", seed, len(a), len(b))
			}
			if len(a) == 0 {
				t.Fatalf("seed %d: empty delivery log", seed)
			}
			if !bytes.Equal(ta, tb) {
				t.Fatalf("seed %d: trace logs differ between two runs (%d vs %d bytes)", seed, len(ta), len(tb))
			}
			if len(ta) == 0 {
				t.Fatalf("seed %d: empty trace log", seed)
			}
			// Fault-injection steps must appear interleaved with the
			// protocol stages (every plan has at least the quiet-period
			// heal), and sampled messages must reach delivery — stage
			// events only exist for instrumented protocols (plain Skeen
			// has none).
			if !bytes.Contains(ta, []byte("fault")) {
				t.Errorf("seed %d: no fault events in the trace", seed)
			}
			if row.proto.Kind != protocol.Skeen {
				if !bytes.Contains(ta, []byte("deliver")) {
					t.Errorf("seed %d: no deliver stages in the trace", seed)
				}
			}
		})
	}
}

// TestChaosLeaderPartitionReplicaRestart is the named scenario of the
// acceptance criteria: the leader of group 0 is partitioned away while a
// follower of group 1 crashes and restarts; after the heal, every
// protocol must satisfy every invariant, including Termination.
func TestChaosLeaderPartitionReplicaRestart(t *testing.T) {
	for _, row := range chaosRows() {
		proto := row.proto
		t.Run(row.name(), func(t *testing.T) {
			if row.benign {
				t.Skip("plain Skeen assumes reliable processes; no crash/partition budget")
			}
			plan := &faults.Plan{}
			plan.At(500*time.Millisecond, faults.Isolate{P: 0}) // leader of group 0
			plan.At(700*time.Millisecond, faults.Crash{P: 4})   // follower in group 1
			plan.At(1500*time.Millisecond, faults.Restart{P: 4})
			plan.At(2500*time.Millisecond, faults.Heal{})
			c, err := harness.NewCluster(proto, harness.Options{
				Groups: 2, GroupSize: 3, NumClients: 2,
				Latency: sim.Uniform(chaosDelta),
				Seed:    1,
				Retry:   30 * chaosDelta,
				Faults:  plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			c.RandomWorkload(rng, 20, 2, 3*time.Second)
			if errs := c.RunChecked(chaosHorizon, 50*time.Millisecond); len(errs) > 0 {
				t.Fatalf("continuous invariant violated at t=%v: %v", c.Sim.Now(), errs[0])
			}
			if errs := c.Check(true); len(errs) > 0 {
				for _, e := range errs {
					t.Errorf("%v", e)
				}
			}
			if n := c.Sim.TotalDropped(); n == 0 {
				t.Errorf("expected the partition to drop transmissions, dropped=0")
			}
		})
	}
}
