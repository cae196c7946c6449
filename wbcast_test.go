package wbcast_test

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"wbcast"
)

func TestConfigValidation(t *testing.T) {
	if _, err := wbcast.New(wbcast.Config{}); err == nil {
		t.Error("zero Groups accepted")
	}
	if _, err := wbcast.New(wbcast.Config{Groups: 1, Replicas: 2}); err == nil {
		t.Error("even Replicas accepted")
	}
	// Validate is the same check construction applies — including the
	// per-transport ones.
	bad := wbcast.Config{
		Groups:    1,
		Latency:   wbcast.LAN(),
		Transport: wbcast.TCP("", map[wbcast.ProcessID]string{}),
	}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted Latency on a TCP transport")
	}
	if _, err := wbcast.New(bad); err == nil {
		t.Error("New accepted Latency on a TCP transport")
	}
	if err := (wbcast.Config{Groups: 2}).Validate(); err != nil {
		t.Errorf("Validate rejected a valid config: %v", err)
	}
}

// collectDeliveries subscribes to every replica of c and gathers each
// replica's deliveries in order on a goroutine of its own. The returned
// function snapshots what has arrived so far.
func collectDeliveries(c *wbcast.Cluster) func() map[wbcast.ProcessID][]wbcast.Delivery {
	var mu sync.Mutex
	got := map[wbcast.ProcessID][]wbcast.Delivery{}
	for _, r := range c.Replicas() {
		sub := r.Deliveries()
		go func(p wbcast.ProcessID) {
			for d := range sub.C() {
				mu.Lock()
				got[p] = append(got[p], d)
				mu.Unlock()
			}
		}(r.ID())
	}
	return func() map[wbcast.ProcessID][]wbcast.Delivery {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(got)
	}
}

func TestQuickstartFlow(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	collected := collectDeliveries(c)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Multicast(ctx, []byte("to-both"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Multicast(ctx, []byte("to-g0"), 0); err != nil {
		t.Fatal(err)
	}
	// The synchronous Multicast already guarantees first delivery per
	// group; give followers a beat to catch up.
	time.Sleep(50 * time.Millisecond)
	delivered := collected()
	for _, p := range c.GroupMembers(0) {
		if len(delivered[p]) != 2 {
			t.Errorf("group-0 replica %d delivered %d messages, want 2", p, len(delivered[p]))
		}
	}
	for _, p := range c.GroupMembers(1) {
		if len(delivered[p]) != 1 {
			t.Errorf("group-1 replica %d delivered %d messages, want 1", p, len(delivered[p]))
		}
	}
}

func TestMulticastValidation(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Multicast(ctx, []byte("x")); err == nil {
		t.Error("empty destination accepted")
	}
	if _, err := cl.Multicast(ctx, []byte("x"), 7); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	// Crash the whole group so the multicast cannot complete.
	for _, p := range c.GroupMembers(0) {
		c.CrashReplica(p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := cl.Multicast(ctx, []byte("x"), 0); err != context.DeadlineExceeded {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	c.Close()
}

// TestAllProtocolsEndToEnd drives every protocol through the public API.
func TestAllProtocolsEndToEnd(t *testing.T) {
	for _, proto := range []wbcast.Protocol{wbcast.WhiteBox, wbcast.FastCast, wbcast.FTSkeen} {
		t.Run(proto.String(), func(t *testing.T) {
			c, err := wbcast.New(wbcast.Config{Protocol: proto, Groups: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			collected := collectDeliveries(c)
			cl, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for i := 0; i < 10; i++ {
				dest := []wbcast.GroupID{wbcast.GroupID(i % 3), wbcast.GroupID((i + 1) % 3)}
				if _, err := cl.Multicast(ctx, []byte(fmt.Sprintf("m%d", i)), dest...); err != nil {
					t.Fatalf("multicast %d: %v", i, err)
				}
			}
			time.Sleep(100 * time.Millisecond)
			count := 0
			for _, ds := range collected() {
				count += len(ds)
			}
			if count != 10*2*3 { // 10 messages × 2 groups × 3 replicas
				t.Errorf("deliveries = %d, want %d", count, 60)
			}
		})
	}
}

// TestFailoverThroughPublicAPI: crash a group leader mid-stream; the
// cluster must keep accepting multicasts.
func TestFailoverThroughPublicAPI(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 2, Delta: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cl.Multicast(ctx, []byte("before"), 0, 1); err != nil {
		t.Fatal(err)
	}
	c.CrashReplica(c.InitialLeader(0))
	if _, err := cl.Multicast(ctx, []byte("after"), 0, 1); err != nil {
		t.Fatalf("multicast after leader crash: %v", err)
	}
}

// TestBatchingPublicAPI drives batched multicasts through the public API
// on the live runtime: concurrent submitters, payload-level deliveries,
// identical (GTS, Sub) total order at every replica.
func TestBatchingPublicAPI(t *testing.T) {
	const (
		submitters = 4
		perWorker  = 25
	)
	c, err := wbcast.New(wbcast.Config{
		Groups: 2,
		Batching: &wbcast.Batching{
			MaxBatchMsgs:  8,
			MaxBatchDelay: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	collected := collectDeliveries(c)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for j := 0; j < perWorker; j++ {
				if _, err := cl.Multicast(ctx, []byte(fmt.Sprintf("w%d-%d", w, j)), 0, 1); err != nil {
					errs <- fmt.Errorf("worker %d multicast %d: %w", w, j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // followers catch up
	delivered := collected()
	total := submitters * perWorker
	var reference []string
	for _, p := range append(c.GroupMembers(0), c.GroupMembers(1)...) {
		ds := delivered[p]
		if len(ds) != total {
			t.Fatalf("replica %d delivered %d payloads, want %d", p, len(ds), total)
		}
		var seq []string
		for i, d := range ds {
			if i > 0 && !ds[i-1].Before(d) {
				t.Errorf("replica %d: delivery %d not above its predecessor in (GTS, Sub)", p, i)
			}
			seq = append(seq, string(d.Msg.Payload))
		}
		// All replicas deliver to both groups here, so every replica must
		// observe the identical per-payload total order.
		if reference == nil {
			reference = seq
		} else {
			for i := range reference {
				if seq[i] != reference[i] {
					t.Fatalf("replica %d diverges from total order at %d: %q vs %q", p, i, seq[i], reference[i])
				}
			}
		}
	}
}

// TestConcurrentClients: multiple clients hammer the cluster concurrently.
func TestConcurrentClients(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4*20)
	for i := 0; i < 4; i++ {
		cl, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *wbcast.Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for j := 0; j < 20; j++ {
				if _, err := cl.Multicast(ctx, []byte("x"), 0, 1); err != nil {
					errs <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
