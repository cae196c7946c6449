package fastcast_test

import (
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/node"
	"wbcast/internal/protocol"
	"wbcast/internal/sim"
)

const delta = 10 * time.Millisecond

// TestCollisionFreeLatency4Delta verifies FastCast's headline latency
// (paper §VI): speculation overlaps the two consensus instances, so a
// destination leader delivers at max(3δ + δ, 2δ + 2δ) = 4δ; followers
// receive DELIVER one hop later (5δ).
func TestCollisionFreeLatency4Delta(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FastCast}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1, Latency: sim.Uniform(delta),
	})
	if err != nil {
		t.Fatal(err)
	}
	dest := mcast.NewGroupSet(0, 1)
	id := c.Submit(0, 0, dest, []byte("m"))
	c.Sim.Run(time.Second)
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("check failed: %v", errs[0])
	}
	for _, g := range dest {
		lat, ok := c.DeliveryLatency(id, g)
		if !ok {
			t.Fatalf("no delivery in group %d", g)
		}
		if lat != 4*delta {
			t.Errorf("leader latency in group %d = %v, want exactly 4δ = %v", g, lat, 4*delta)
		}
	}
	for _, pid := range []mcast.ProcessID{1, 2, 4, 5} {
		ds := c.Sim.DeliveriesAt(pid)
		if len(ds) != 1 || ds[0].At != 5*delta {
			t.Errorf("follower %d delivered at %v, want 5δ", pid, ds[0].At)
		}
	}
}

// TestSingleGroupLatency: for a single-group message the speculative paths
// collapse to δ + max(2δ+0, 0+2δ) = 3δ at the leader.
func TestSingleGroupLatency(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FastCast}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1, Latency: sim.Uniform(delta),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := c.Submit(0, 0, mcast.NewGroupSet(0), nil)
	c.Sim.Run(time.Second)
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("check failed: %v", errs[0])
	}
	lat, _ := c.DeliveryLatency(id, 0)
	if lat != 3*delta {
		t.Errorf("single-group latency = %v, want 3δ", lat)
	}
}

// TestRandomWorkloads: full specification under conflicting workloads.
func TestRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c, err := harness.NewCluster(protocol.Config{Kind: protocol.FastCast}, harness.Options{
			Groups: 3, GroupSize: 3, NumClients: 4,
			Latency: sim.UniformJitter(delta/2, delta), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		c.RandomWorkload(rng, 50, 3, 300*time.Millisecond)
		c.Sim.Run(10 * time.Second)
		if errs := c.Check(true); len(errs) > 0 {
			t.Fatalf("seed %d: %d violations, first: %v", seed, len(errs), errs[0])
		}
	}
}

// TestHighContention: conflicting burst to the same groups.
func TestHighContention(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FastCast}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 4,
		Latency: sim.UniformJitter(delta/4, delta), Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	dest := mcast.NewGroupSet(0, 1)
	for i := 0; i < 40; i++ {
		c.Submit(time.Duration(i%5)*time.Millisecond, i%4, dest, nil)
	}
	c.Sim.Run(30 * time.Second)
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	if got := c.CollectHistory().NumDeliveries(); got != 40*6 {
		t.Errorf("deliveries = %d, want %d", got, 40*6)
	}
}

// TestLeaderCrashRecovery: leader failover with retry-driven confirm
// re-collection (the speculation-recovery path).
func TestLeaderCrashRecovery(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FastCast, Timing: protocol.Timing{Retry: 25 * delta}}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Retry: 25 * delta, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1 := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(100 * time.Millisecond)
	c.Crash(0)
	c.Sim.Inject(110*time.Millisecond, 1, node.Timer{Kind: node.TimerCandidacy, Data: 1})
	m2 := c.Submit(200*time.Millisecond, 1, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(15 * time.Second)
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	for _, id := range []mcast.MsgID{m1, m2} {
		for _, g := range []mcast.GroupID{0, 1} {
			if _, ok := c.DeliveryLatency(id, g); !ok {
				t.Errorf("%v not delivered in group %d", id, g)
			}
		}
	}
}

// TestMidSpeculationLeaderCrash: the leader crashes with a tentative
// timestamp in flight; the new leader (or the client retry) must finish the
// message without violating the ordering.
func TestMidSpeculationLeaderCrash(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FastCast, Timing: protocol.Timing{Retry: 25 * delta}}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1,
		Latency: sim.Uniform(delta), Retry: 25 * delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	// Crash group 0's leader right after it issued the tentative timestamp
	// (t = δ+ε) — before consensus₁ completes anywhere.
	c.Sim.Run(delta + delta/2)
	c.Crash(0)
	c.Sim.Inject(2*delta, 1, node.Timer{Kind: node.TimerCandidacy, Data: 1})
	c.Sim.Run(20 * time.Second)
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	for _, g := range []mcast.GroupID{0, 1} {
		if _, ok := c.DeliveryLatency(m, g); !ok {
			t.Errorf("m not delivered in group %d", g)
		}
	}
}

// TestAutomaticFailover: heartbeat-driven failover end to end.
func TestAutomaticFailover(t *testing.T) {
	proto := protocol.Config{
		Kind: protocol.FastCast,
		Timing: protocol.Timing{
			Retry:     30 * delta,
			Heartbeat: 5 * delta,
			Suspect:   20 * delta,
		},
	}
	c, err := harness.NewCluster(proto, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Retry: 30 * delta, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(100 * time.Millisecond)
	c.Crash(0)
	m2 := c.Submit(200*time.Millisecond, 1, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(30 * time.Second)
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	if _, ok := c.DeliveryLatency(m2, 0); !ok {
		t.Error("m2 not delivered after automatic failover")
	}
}
