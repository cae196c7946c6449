package ftskeen_test

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

// TestCollisionFreeLatency6Delta verifies the baseline's latency quoted in
// the paper (§IV, §VI): MULTICAST (δ) + consensus (2δ) + PROPOSE (δ) +
// consensus (2δ) = 6δ at destination leaders; followers learn one hop later.
func TestCollisionFreeLatency6Delta(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FTSkeen}, harness.Options{
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
		if lat != 6*delta {
			t.Errorf("leader latency in group %d = %v, want exactly 6δ = %v", g, lat, 6*delta)
		}
	}
	// Followers apply the commit via Learn: 7δ.
	for _, pid := range []mcast.ProcessID{1, 2, 4, 5} {
		ds := c.Sim.DeliveriesAt(pid)
		if len(ds) != 1 || ds[0].At != 7*delta {
			t.Errorf("follower %d delivered at %v, want 7δ", pid, ds[0].At)
		}
	}
}

// TestSingleGroupLatency: a single-group message still costs two consensus
// instances in the black-box design: δ + 2δ + 0 (self PROPOSE) + 2δ = 5δ.
func TestSingleGroupLatency(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FTSkeen}, harness.Options{
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
	if lat != 5*delta {
		t.Errorf("single-group latency = %v, want 5δ", lat)
	}
}

// TestRandomWorkloads: full specification under conflicting workloads.
func TestRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c, err := harness.NewCluster(protocol.Config{Kind: protocol.FTSkeen}, harness.Options{
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
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FTSkeen}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 4,
		Latency: sim.UniformJitter(delta/4, delta), Seed: 2,
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

// TestLeaderCrashRecovery: the Paxos leader of one group crashes; a new
// leader takes over the log, the retry machinery re-drives in-flight
// messages, and Termination holds.
func TestLeaderCrashRecovery(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FTSkeen, Timing: protocol.Timing{Retry: 25 * delta}}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Retry: 25 * delta, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1 := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(100 * time.Millisecond)
	c.Crash(0)
	c.Sim.Inject(110*time.Millisecond, 1, node.Timer{Kind: node.TimerCandidacy, Data: 1})
	m2 := c.Submit(200*time.Millisecond, 1, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(10 * time.Second)
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

// TestMidFlightLeaderCrash: the leader crashes after persisting the local
// timestamp but before the commit consensus; the new leader must finish the
// job from the recovered log.
func TestMidFlightLeaderCrash(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.FTSkeen, Timing: protocol.Timing{Retry: 25 * delta}}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1,
		Latency: sim.Uniform(delta), Retry: 25 * delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	// At 3δ+ε the first consensus (AssignLTS) has just applied at group 0's
	// leader; the commit consensus has not started. Crash it there.
	c.Sim.Run(3*delta + delta/2)
	c.Crash(0)
	c.Sim.Inject(4*delta, 1, node.Timer{Kind: node.TimerCandidacy, Data: 1})
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

// TestAutomaticFailover: heartbeat-driven failover without manual help.
func TestAutomaticFailover(t *testing.T) {
	proto := protocol.Config{
		Kind: protocol.FTSkeen,
		Timing: protocol.Timing{
			Retry:     30 * delta,
			Heartbeat: 5 * delta,
			Suspect:   20 * delta,
		},
	}
	c, err := harness.NewCluster(proto, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Retry: 30 * delta, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(100 * time.Millisecond)
	c.Crash(0)
	m2 := c.Submit(200*time.Millisecond, 1, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(20 * time.Second)
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	if _, ok := c.DeliveryLatency(m2, 0); !ok {
		t.Error("m2 not delivered after automatic failover")
	}
}
