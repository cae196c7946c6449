package batch_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/protocol"
	"wbcast/internal/sim"
)

// protocols under test: the three fault-tolerant implementations, all of
// which unpack batch envelopes on their delivery paths.
func protocolsUnderTest() []protocol.Config {
	return []protocol.Config{{Kind: protocol.WhiteBox}, {Kind: protocol.FastCast}, {Kind: protocol.FTSkeen}}
}

// deliverySeq returns, per process, the payload IDs it delivered in order.
func deliverySeq(c *harness.Cluster) map[mcast.ProcessID][]mcast.MsgID {
	out := make(map[mcast.ProcessID][]mcast.MsgID)
	for _, rec := range c.Sim.Deliveries() {
		out[rec.Proc] = append(out[rec.Proc], rec.D.Msg.ID)
	}
	return out
}

// runSequentialWorkload submits n payloads from one client to groups
// {0, 1} at 1ms intervals and runs to quiescence.
func runSequentialWorkload(t *testing.T, p protocol.Config, batching *batch.Options, n int) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(p, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1,
		Latency:  sim.Uniform(10 * time.Millisecond),
		Batching: batching,
	})
	if err != nil {
		t.Fatal(err)
	}
	dest := mcast.NewGroupSet(0, 1)
	for i := 0; i < n; i++ {
		c.Submit(time.Duration(i)*time.Millisecond, 0, dest, []byte(fmt.Sprintf("payload-%03d", i)))
	}
	c.Sim.RunQuiescent(30 * time.Second)
	return c
}

// TestBatchedOrderMatchesUnbatched is the batching-transparency theorem in
// test form: for a deterministic workload, the batched run delivers
// exactly the same per-payload sequence at every replica as the unbatched
// run, for every protocol.
func TestBatchedOrderMatchesUnbatched(t *testing.T) {
	const n = 60
	for _, p := range protocolsUnderTest() {
		t.Run(p.Kind.String(), func(t *testing.T) {
			plain := runSequentialWorkload(t, p, nil, n)
			batched := runSequentialWorkload(t, p, &batch.Options{
				MaxMsgs: 8, MaxDelay: 5 * time.Millisecond, Window: 2,
			}, n)

			plainSeq := deliverySeq(plain)
			batchedSeq := deliverySeq(batched)
			if len(plainSeq) == 0 {
				t.Fatal("unbatched run delivered nothing")
			}
			for pid, want := range plainSeq {
				if len(want) != n {
					t.Fatalf("p%d delivered %d of %d payloads unbatched", pid, len(want), n)
				}
				if got := batchedSeq[pid]; !reflect.DeepEqual(got, want) {
					t.Errorf("p%d: batched order diverges from unbatched\nbatched:   %v\nunbatched: %v", pid, got, want)
				}
			}
			// Both runs must satisfy the full multicast specification.
			for _, errs := range map[string][]error{
				"plain": plain.Check(true), "batched": batched.Check(true),
			} {
				for _, err := range errs {
					t.Error(err)
				}
			}
			// The batched run must actually have batched: fewer protocol
			// messages than the unbatched run.
			if bs, ps := batched.Sim.TotalSent(), plain.Sim.TotalSent(); bs >= ps {
				t.Errorf("batched run sent %d protocol messages, unbatched %d — no amortisation", bs, ps)
			}
		})
	}
}

// TestBatchedRandomWorkload runs a concurrent multi-client, multi-bucket
// random workload under batching and verifies the full specification:
// Validity, Integrity, Ordering, Termination, the (GTS, Sub) invariants
// and the genuineness audit.
func TestBatchedRandomWorkload(t *testing.T) {
	for _, p := range protocolsUnderTest() {
		t.Run(p.Kind.String(), func(t *testing.T) {
			c, err := harness.NewCluster(p, harness.Options{
				Groups: 3, GroupSize: 3, NumClients: 4,
				Latency: sim.Uniform(5 * time.Millisecond),
				Seed:    42,
				Batching: &batch.Options{
					MaxMsgs: 4, MaxDelay: 3 * time.Millisecond, Window: 2,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			c.RandomWorkload(rng, 80, 3, 150*time.Millisecond)
			c.Sim.RunQuiescent(60 * time.Second)
			for _, err := range c.Check(true) {
				t.Error(err)
			}
			if got := c.CollectHistory().NumDeliveries(); got == 0 {
				t.Fatal("no deliveries recorded")
			}
		})
	}
}

// TestBatchedCompletionSemantics verifies the client-facing contract under
// batching: every submitted payload's completion fires exactly once.
func TestBatchedCompletionSemantics(t *testing.T) {
	c, err := harness.NewCluster(protocol.Config{Kind: protocol.WhiteBox}, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency:  sim.Uniform(5 * time.Millisecond),
		Batching: &batch.Options{MaxMsgs: 4, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	completions := make(map[mcast.MsgID]int)
	c.OnComplete(func(id mcast.MsgID) { completions[id]++ })
	var ids []mcast.MsgID
	dest := mcast.NewGroupSet(0, 1)
	for i := 0; i < 10; i++ {
		ids = append(ids, c.Submit(time.Duration(i)*time.Millisecond, i%2, dest, []byte{byte(i)}))
	}
	c.Sim.RunQuiescent(30 * time.Second)
	for _, id := range ids {
		if completions[id] != 1 {
			t.Errorf("payload %v completed %d times, want 1", id, completions[id])
		}
	}
}
