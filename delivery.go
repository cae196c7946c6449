package wbcast

import (
	"sync"
	"sync/atomic"
)

// DeliveryPolicy decides what a Subscription does when its buffer is full
// and the replica produces another delivery.
type DeliveryPolicy int

const (
	// Backpressure blocks the delivering process until the subscriber
	// frees buffer space. Lossless; a subscriber that stops consuming
	// eventually stalls its replica, which the rest of the group treats
	// like a slow (and ultimately crashed) process.
	Backpressure DeliveryPolicy = iota
	// DropOldest discards the oldest buffered delivery to make room. The
	// subscriber always sees the most recent deliveries; drops are counted
	// by Subscription.Dropped.
	DropOldest
	// DropNewest discards the incoming delivery when the buffer is full,
	// and every later one until the subscriber has drained the buffer.
	// The subscriber thus sees uninterrupted runs, each ending at an
	// overflow and the next starting only once it has caught up; a
	// subscriber that never falls behind by more than the buffer sees
	// every delivery. Drops are counted by Subscription.Dropped.
	DropNewest
)

// String names the policy for logs and test output.
func (p DeliveryPolicy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	default:
		return "DeliveryPolicy(?)"
	}
}

// Subscription is a pull-based stream of one replica's deliveries, created
// by Replica.Deliveries or Replica.Subscribe. Deliveries arrive on C in the
// replica's delivery order — increasing (GTS, Sub) — buffered up to the
// subscription's capacity and handled per its DeliveryPolicy beyond that.
// Close unsubscribes; the replica's own shutdown also closes C.
type Subscription struct {
	policy DeliveryPolicy

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Delivery // fixed-capacity ring
	head   int
	count  int
	closed bool
	// dropping is set by a DropNewest overflow and cleared once the
	// buffer has drained.
	dropping bool

	dropped atomic.Uint64
	out     chan Delivery
	quit    chan struct{}
}

func newSubscription(buffer int, policy DeliveryPolicy) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{
		policy: policy,
		buf:    make([]Delivery, buffer),
		out:    make(chan Delivery),
		quit:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

// C returns the channel deliveries arrive on. It is closed when the
// subscription is closed (by Close or by the replica shutting down).
func (s *Subscription) C() <-chan Delivery { return s.out }

// Dropped returns how many deliveries this subscription has discarded
// under the DropOldest/DropNewest policies. Always zero for Backpressure.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close unsubscribes: the replica stops feeding the subscription and C is
// closed. Buffered deliveries not yet consumed are discarded. Close is
// idempotent.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.quit)
}

// push hands one delivery to the subscription, applying the policy. It is
// called from the delivering process's goroutine, one producer at a time.
func (s *Subscription) push(d Delivery) {
	s.mu.Lock()
	if s.policy == Backpressure {
		for s.count == len(s.buf) && !s.closed {
			s.cond.Wait()
		}
	}
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.policy == DropNewest {
		s.dropping = s.count == len(s.buf) || (s.dropping && s.count > 0)
		if s.dropping {
			s.mu.Unlock()
			s.dropped.Add(1)
			return
		}
	}
	if s.count == len(s.buf) && s.policy == DropOldest {
		s.head = (s.head + 1) % len(s.buf)
		s.count--
		s.dropped.Add(1)
	}
	s.buf[(s.head+s.count)%len(s.buf)] = d
	s.count++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pump moves buffered deliveries onto the out channel at the consumer's
// pace. Exactly one pump per subscription; it is the only sender on out
// and the only closer of out.
func (s *Subscription) pump() {
	for {
		s.mu.Lock()
		for s.count == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.count == 0 && s.closed {
			s.mu.Unlock()
			close(s.out)
			return
		}
		d := s.buf[s.head]
		s.buf[s.head] = Delivery{}
		s.head = (s.head + 1) % len(s.buf)
		s.count--
		s.cond.Broadcast()
		s.mu.Unlock()
		select {
		case s.out <- d:
		case <-s.quit:
			close(s.out)
			return
		}
	}
}
