package live_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wbcast/internal/live"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

// linkProbe sends numbered, timestamped messages and checks the ones it
// receives: none may be handled before its send time plus the link's
// latency, and each link's numbers must arrive in order without gaps.
// Timestamps are monotonic offsets from epoch.
type linkProbe struct {
	pid   mcast.ProcessID
	peers []mcast.ProcessID
	burst int
	lat   live.LatencyFunc
	epoch time.Time

	sent map[mcast.ProcessID]uint64 // per-peer send counter (Handle only)
	last map[mcast.ProcessID]uint64 // per-peer receive counter (Handle only)

	received *atomic.Int64
	mu       *sync.Mutex
	errs     *[]string
}

func (l *linkProbe) ID() mcast.ProcessID { return l.pid }

func (l *linkProbe) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Timer:
		// Executed numbers a link's messages; Seq carries the send time.
		for i := 0; i < l.burst; i++ {
			for _, q := range l.peers {
				l.sent[q]++
				fx.Send(q, msgs.HeartbeatAck{Executed: l.sent[q], Seq: uint64(time.Since(l.epoch))})
			}
		}
	case node.Recv:
		m := in.Msg.(msgs.HeartbeatAck)
		now := time.Since(l.epoch)
		due := time.Duration(m.Seq) + l.lat(in.From, l.pid)
		var err string
		if now < due {
			err = fmt.Sprintf("p%d→p%d #%d handled %v before its deadline", in.From, l.pid, m.Executed, due-now)
		}
		if m.Executed != l.last[in.From]+1 {
			err = fmt.Sprintf("p%d→p%d: got #%d after #%d", in.From, l.pid, m.Executed, l.last[in.From])
		}
		l.last[in.From] = m.Executed
		if err != "" {
			l.mu.Lock()
			*l.errs = append(*l.errs, err)
			l.mu.Unlock()
		}
		l.received.Add(1)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlinesAndLinkOrderUnderLatencyMatrix: four processes send bursts
// to each other at once, over a matrix of distinct per-pair latencies
// spanning both of the clock's wait paths (under and over 1 ms). No
// message may be handled early, and every link stays FIFO.
func TestDeadlinesAndLinkOrderUnderLatencyMatrix(t *testing.T) {
	const procs, burst, rounds = 4, 8, 20
	lat := func(from, to mcast.ProcessID) time.Duration {
		return time.Duration(from*procs+to) * 150 * time.Microsecond
	}
	n := live.New(live.Config{Latency: lat})
	var (
		received atomic.Int64
		mu       sync.Mutex
		errs     []string
	)
	epoch := time.Now()
	for pid := mcast.ProcessID(0); pid < procs; pid++ {
		var peers []mcast.ProcessID
		for q := mcast.ProcessID(0); q < procs; q++ {
			if q != pid {
				peers = append(peers, q)
			}
		}
		p := &linkProbe{pid: pid, peers: peers, burst: burst, lat: lat, epoch: epoch,
			sent: map[mcast.ProcessID]uint64{}, last: map[mcast.ProcessID]uint64{},
			received: &received, mu: &mu, errs: &errs}
		if err := n.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var wg sync.WaitGroup
	for pid := mcast.ProcessID(0); pid < procs; pid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := n.Inject(pid, node.Timer{}); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(r%3) * 100 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	const want = procs * (procs - 1) * burst * rounds
	waitFor(t, "every message", func() bool { return received.Load() == want })
	mu.Lock()
	defer mu.Unlock()
	for i, e := range errs {
		if i == 10 {
			t.Errorf("... and %d more", len(errs)-10)
			break
		}
		t.Error(e)
	}
}

// TestLateProcessReceivesDelayedMessages: a process added after Start (a
// late-joining client) sends and receives delayed messages.
func TestLateProcessReceivesDelayedMessages(t *testing.T) {
	const lat = 2 * time.Millisecond
	n := live.New(live.Config{Latency: func(from, to mcast.ProcessID) time.Duration { return lat }})
	a, late := &echo{pid: 1}, &echo{pid: 2}
	if err := n.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Add(late); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// p1 acks a heartbeat "from" the late process, over a delayed link.
	if err := n.Inject(1, node.Recv{From: 2, Msg: msgs.Heartbeat{}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the late process's first message", func() bool { return late.seen.Load() == 1 })
	if got := time.Duration(late.first.Load() - start.UnixNano()); got < lat {
		t.Errorf("late process received after %v, want ≥ %v", got, lat)
	}
	// And the other way round.
	if err := n.Inject(2, node.Recv{From: 1, Msg: msgs.Heartbeat{}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the late process's reply", func() bool { return a.seen.Load() == 2 })
}

// TestCrashDiscardsDelayedInput: a message already in flight to a process
// when it crashes is never handled.
func TestCrashDiscardsDelayedInput(t *testing.T) {
	const lat = 40 * time.Millisecond
	n := live.New(live.Config{Latency: func(from, to mcast.ProcessID) time.Duration { return lat }})
	b := &echo{pid: 2}
	if err := n.Add(&echo{pid: 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Inject(1, node.Recv{From: 2, Msg: msgs.Heartbeat{}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(lat / 4) // the ack to p2 is now held, not yet due
	n.Crash(2)
	time.Sleep(2 * lat)
	if got := b.seen.Load(); got != 0 {
		t.Fatalf("crashed process handled %d delayed messages", got)
	}
}

// liveGoroutines counts the goroutines running in package live.
func liveGoroutines() (procs, clocks int) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "live.(*proc).mainLoop("), strings.Count(stacks, "live.(*Network).clockLoop(")
}

// TestCloseJoinsEveryGoroutine: Close returns only after every process
// goroutine and the clock have exited, including those of processes added
// after Start and with messages still held.
func TestCloseJoinsEveryGoroutine(t *testing.T) {
	n := live.New(live.Config{Latency: func(from, to mcast.ProcessID) time.Duration { return time.Second }})
	if err := n.Add(&echo{pid: 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(&echo{pid: 2}); err != nil {
		t.Fatal(err)
	}
	if err := n.Inject(1, node.Recv{From: 2, Msg: msgs.Heartbeat{}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two process goroutines and a clock", func() bool {
		procs, clocks := liveGoroutines()
		return procs == 2 && clocks == 1
	})
	n.Close()
	if procs, clocks := liveGoroutines(); procs != 0 || clocks != 0 {
		t.Fatalf("after Close: %d process goroutines, %d clocks still running", procs, clocks)
	}
	if err := n.Inject(1, node.Recv{From: 2, Msg: msgs.Heartbeat{}}); err == nil {
		t.Error("Inject after Close succeeded")
	}
}

// pingPong bounces a message between two processes; process 1 closes
// done after rounds round trips.
type pingPong struct {
	pid, peer mcast.ProcessID
	rounds    int
	done      chan struct{}
}

func (p *pingPong) ID() mcast.ProcessID { return p.pid }

func (p *pingPong) Handle(in node.Input, fx *node.Effects) {
	switch in.(type) {
	case node.Timer: // the first serve
	case node.Recv:
		if p.pid == 1 {
			if p.rounds--; p.rounds <= 0 {
				close(p.done)
				return
			}
		}
	default:
		return
	}
	fx.Send(p.peer, msgs.Heartbeat{})
}

// BenchmarkPingPongLAN measures one round trip between two processes under
// the LAN profile: two injected 50 µs delays plus the runtime's hand-offs.
func BenchmarkPingPongLAN(b *testing.B) {
	done := make(chan struct{})
	n := live.New(live.Config{Latency: live.LAN()})
	if err := n.Add(&pingPong{pid: 1, peer: 2, rounds: b.N, done: done}); err != nil {
		b.Fatal(err)
	}
	if err := n.Add(&pingPong{pid: 2, peer: 1}); err != nil {
		b.Fatal(err)
	}
	if err := n.Start(); err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	b.ReportAllocs()
	b.ResetTimer()
	if err := n.Inject(1, node.Timer{}); err != nil {
		b.Fatal(err)
	}
	<-done
}
