package live

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/ring"
	"wbcast/internal/wal"
)

// LatencyFunc returns the one-way injected delay between two processes. It
// must be constant per ordered pair to preserve FIFO ordering.
type LatencyFunc func(from, to mcast.ProcessID) time.Duration

// Config parametrises a Network.
type Config struct {
	// Latency is the injected one-way delay; nil means no injection.
	Latency LatencyFunc
	// MailboxSize is the lock-free ring capacity of each process's input
	// mailbox (internal/ring). Enqueues beyond it spill to an unbounded
	// overflow, so senders never block: in-flight load is limited by the
	// closed-loop pacing of the submitters, and non-blocking mailboxes
	// make the blocking-channel deadlock (a cycle of processes stalled
	// on each other's full mailboxes) impossible by construction.
	MailboxSize int
	// OnDeliver receives every application delivery; it is invoked from
	// the delivering process's goroutine and must not block for long.
	OnDeliver func(p mcast.ProcessID, d mcast.Delivery)
	// Logf, if non-nil, receives diagnostics (storage-failure crash-stops).
	Logf func(format string, args ...any)
}

// Network hosts a set of processes. Construct with New, register handlers
// with Add, then Start; Close stops and joins every goroutine.
type Network struct {
	cfg Config
	// epoch is the origin of the network clock (now): deadlines are
	// monotonic nanoseconds since it.
	epoch time.Time
	// procs is the copy-on-write process table, read without locking on
	// every send and by the clock; Add replaces it under mu.
	procs   atomic.Pointer[procTable]
	mu      sync.Mutex
	started bool
	closed  bool
	quit    chan struct{}
	wg      sync.WaitGroup

	// clockAt is the deadline the clock goroutine sleeps until (never
	// when it has nothing to wait for); kick wakes it early.
	clockAt atomic.Int64
	kick    chan struct{}
}

type procTable struct {
	byID map[mcast.ProcessID]*proc
	all  []*proc
}

// never is the deadline of "nothing to wait for".
const never = math.MaxInt64

// heldCap is the preallocated capacity of each process's deadline heap,
// 48 KiB of envelopes: the bytes of the per-process delay channel it
// replaced (1024 slots of a 48-byte envelope). Set-up time is paced by
// the GC: with less memory held per process, building a cluster in a
// benchmark ran an extra GC cycle.
const heldCap = 1536

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.MailboxSize <= 0 {
		cfg.MailboxSize = 64
	}
	n := &Network{
		cfg:   cfg,
		epoch: time.Now(),
		quit:  make(chan struct{}),
		kick:  make(chan struct{}, 1),
	}
	n.procs.Store(&procTable{byID: map[mcast.ProcessID]*proc{}})
	n.clockAt.Store(never)
	return n
}

// now reads the network clock: monotonic nanoseconds since New.
func (n *Network) now() int64 { return int64(time.Since(n.epoch)) }

func (n *Network) lookup(pid mcast.ProcessID) *proc { return n.procs.Load().byID[pid] }

type envelope struct {
	in node.Input
	// deliverAt is the network-clock time before which the input must
	// not be handled; 0 means immediately.
	deliverAt int64
	// seq orders held envelopes with equal deadlines by arrival.
	seq uint64
}

type proc struct {
	net     *Network
	pid     mcast.ProcessID
	h       node.Handler
	store   wal.Storage
	crashed chan struct{}
	crashMu sync.Once

	// The input mailbox: a bounded MPSC ring with overflow fallback
	// (internal/ring), consumed only by this process's mainLoop — the
	// process is one ordering shard (groups are disjoint, so one
	// process serves exactly one group). Envelopes from one sender are
	// enqueued by that sender's goroutine in send order, and the ring
	// preserves per-producer FIFO, so per-link FIFO is preserved.
	box *ring.MPSC[envelope]
	// wake nudges mainLoop after an enqueue or a due deadline (capacity
	// 1: a pending wake-up covers any number of them).
	wake chan struct{}

	// held keeps the dequeued envelopes that are not yet due, ordered
	// by (deliverAt, seq); owned by mainLoop.
	held    delayHeap
	heldSeq uint64
	// due is the earliest held deadline while mainLoop is parked, or
	// never: the clock wakes the process once it passes.
	due atomic.Int64
}

// post enqueues an input for the process. It never blocks (ring spills
// to the overflow instead), which is what rules out buffer-deadlock
// cycles between processes.
func (p *proc) post(env envelope) {
	p.box.Enqueue(env)
	p.nudge()
}

func (p *proc) nudge() {
	select {
	case p.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// Add registers a handler. Handlers added after Start (e.g. late-joining
// clients) are launched immediately.
func (n *Network) Add(h node.Handler) error { return n.AddStored(h, nil) }

// AddStored registers a handler backed by a durable store: persist effects
// are appended and synced before any send or delivery of the same Handle
// call, and a storage error crash-stops the process. A nil store discards
// persist effects (no durability).
func (n *Network) AddStored(h node.Handler, st wal.Storage) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("live: Add after Close")
	}
	pid := h.ID()
	old := n.procs.Load()
	if _, dup := old.byID[pid]; dup {
		return fmt.Errorf("live: duplicate process %d", pid)
	}
	p := &proc{
		net:     n,
		pid:     pid,
		h:       h,
		store:   st,
		crashed: make(chan struct{}),
		box:     ring.New[envelope](n.cfg.MailboxSize),
		wake:    make(chan struct{}, 1),
		held:    make(delayHeap, 0, heldCap),
	}
	p.due.Store(never)
	tab := &procTable{byID: maps.Clone(old.byID), all: append(slices.Clip(old.all), p)}
	tab.byID[pid] = p
	n.procs.Store(tab)
	if n.started {
		n.launch(p)
	}
	return nil
}

func (n *Network) launch(p *proc) {
	n.wg.Add(1)
	go p.mainLoop()
	p.post(envelope{in: node.Start{}})
}

// Start launches every process goroutine, plus the clock when a latency
// is configured, and delivers the Start input.
func (n *Network) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("live: already started")
	}
	n.started = true
	if n.cfg.Latency != nil {
		n.wg.Add(1)
		go n.clockLoop()
	}
	for _, p := range n.procs.Load().all {
		n.launch(p)
	}
	return nil
}

// Close stops all processes and the clock and waits for their goroutines
// to exit.
func (n *Network) Close() {
	n.mu.Lock()
	if !n.closed {
		n.closed = true
		close(n.quit)
	}
	n.mu.Unlock()
	n.wg.Wait()
}

// Crash stops delivering inputs to pid (crash-stop fault injection). The
// process goroutine keeps draining its queue but discards everything,
// delayed input included.
func (n *Network) Crash(pid mcast.ProcessID) {
	if p := n.lookup(pid); p != nil {
		p.crashMu.Do(func() { close(p.crashed) })
	}
}

// MailboxHighWater returns the largest input-mailbox depth observed at
// pid so far, or 0 if pid is unknown. Mailboxes never block senders
// (ring + overflow), so sustained overload shows up here rather than as
// sender backpressure.
func (n *Network) MailboxHighWater(pid mcast.ProcessID) int64 {
	if p := n.lookup(pid); p != nil {
		return p.box.HighWater()
	}
	return 0
}

// MailboxDepth returns the current input-mailbox depth at pid, or 0 if
// pid is unknown (an instantaneous gauge; MailboxHighWater is its
// maximum).
func (n *Network) MailboxDepth(pid mcast.ProcessID) int64 {
	if p := n.lookup(pid); p != nil {
		return p.box.Depth()
	}
	return 0
}

// Submit posts a Submit input to a client process. It never blocks;
// submitters are expected to pace themselves on completions (closed loop
// or a pipelining window), since queues grow elastically.
func (n *Network) Submit(pid mcast.ProcessID, m mcast.AppMsg) error {
	return n.Inject(pid, node.Submit{Msg: m})
}

// Inject posts an arbitrary input to a process.
func (n *Network) Inject(pid mcast.ProcessID, in node.Input) error {
	p := n.lookup(pid)
	if p == nil {
		return fmt.Errorf("live: unknown process %d", pid)
	}
	select {
	case <-n.quit:
		return fmt.Errorf("live: network closed")
	default:
	}
	p.post(envelope{in: in})
	return nil
}

// passMax bounds one drain of the mailbox, so held envelopes that fall
// due during a long drain are not starved by new arrivals.
const passMax = 64

// mainLoop serialises a handler's inputs. It is the single consumer of
// p.box. Each pass first handles the held envelopes that are due, then
// drains the mailbox: due envelopes are handled at once and the others
// held. Per-link FIFO holds because a link's deadlines are monotone: a
// due mailbox envelope's predecessors on its link were due too, and were
// handled before it (from the mailbox, or from held at the start of this
// pass).
func (p *proc) mainLoop() {
	defer p.net.wg.Done()
	var fx node.Effects
	for {
		now := p.net.now()
		for len(p.held) > 0 && p.held[0].deliverAt <= now {
			if !p.handle(p.held.popMin(), &fx) {
				return
			}
		}
		drained := false
		for i := 0; i < passMax; i++ {
			env, ok := p.box.Dequeue()
			if !ok {
				drained = true
				break
			}
			if env.deliverAt > now {
				p.heldSeq++
				env.seq = p.heldSeq
				p.held.push(env)
				continue
			}
			if !p.handle(env, &fx) {
				return
			}
		}
		if drained && !p.park() {
			return
		}
	}
}

// handle runs one input through the handler, unless the process has
// crashed. It reports false once the network is closed.
func (p *proc) handle(env envelope, fx *node.Effects) bool {
	select {
	case <-p.net.quit:
		return false
	case <-p.crashed:
		// Crashed processes discard all input.
	default:
		fx.Reset()
		p.h.Handle(env.in, fx)
		p.apply(fx)
	}
	return true
}

// park blocks until an enqueue or until the earliest held deadline
// passes. It reports false once the network is closed. The deadline is
// published before the clock's target is read, and the clock publishes
// its target before rescanning deadlines, so either this process kicks
// the clock or the clock sees the deadline: no wake-up is lost. An
// enqueue racing with park leaves a token in p.wake.
func (p *proc) park() bool {
	d := int64(never)
	if len(p.held) > 0 {
		d = p.held[0].deliverAt
	}
	p.due.Store(d)
	if d < p.net.clockAt.Load() {
		select {
		case p.net.kick <- struct{}{}:
		default:
		}
	}
	select {
	case <-p.net.quit:
		return false
	case <-p.wake:
		return true
	}
}

func (p *proc) apply(fx *node.Effects) {
	// Durability first: nothing below is released unless the persist
	// entries of this Handle call are durable. A storage failure
	// crash-stops the process (its remaining effects are discarded).
	if len(fx.Persists) > 0 && p.store != nil {
		err := p.store.Append(fx.Persists...)
		if err == nil {
			err = p.store.Sync()
		}
		if err != nil {
			if p.net.cfg.Logf != nil {
				p.net.cfg.Logf("live: p%d crash-stopping on storage failure: %v", p.pid, err)
			}
			p.crashMu.Do(func() { close(p.crashed) })
			return
		}
	}
	for _, d := range fx.Deliveries {
		if p.net.cfg.OnDeliver != nil {
			p.net.cfg.OnDeliver(p.pid, d)
		}
	}
	for _, tm := range fx.Timers {
		in := node.Timer{Kind: tm.Kind, Data: tm.Data}
		pp := p
		time.AfterFunc(tm.After, func() {
			select {
			case <-pp.net.quit:
			default:
				pp.post(envelope{in: in})
			}
		})
	}
	if len(fx.Sends) == 0 {
		return
	}
	now := p.net.now()
	for _, snd := range fx.Sends {
		for i := 0; i < snd.NumRecipients(); i++ {
			p.net.route(p.pid, snd.Recipient(i), snd.Msg, now)
		}
	}
}

// route enqueues a message sent at network-clock time now at the
// destination, stamped with its deadline when a latency is configured.
func (n *Network) route(from, to mcast.ProcessID, m msgs.Message, now int64) {
	q := n.lookup(to)
	if q == nil {
		return // unknown destination: drop (e.g. client already gone)
	}
	env := envelope{in: node.Recv{From: from, Msg: m}}
	if n.cfg.Latency != nil && from != to {
		if lat := n.cfg.Latency(from, to); lat > 0 {
			env.deliverAt = now + int64(lat)
		}
	}
	q.post(env)
}

// clockLoop is the network's one timer for injected delay: it wakes every
// parked process whose earliest held deadline has passed, then sleeps
// until the next one. Waits under a millisecond use preciseSleep where
// the runtime timer would round them up (clock_linux.go).
func (n *Network) clockLoop() {
	defer n.wg.Done()
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for {
		next := n.wakeDue()
		n.clockAt.Store(next)
		if n.wakeDue() < next {
			continue // a deadline published during the first scan
		}
		if next == never {
			select {
			case <-n.quit:
				return
			case <-n.kick:
			}
			continue
		}
		wait := time.Duration(next - n.now())
		if wait <= 0 {
			continue
		}
		if preciseSleep(wait) {
			select {
			case <-n.quit:
				return
			case <-n.kick: // the rescan below covers it
			default:
			}
			continue
		}
		t.Reset(wait)
		select {
		case <-n.quit:
			return
		case <-n.kick:
		case <-t.C:
		}
	}
}

// wakeDue nudges every parked process whose deadline has passed and
// returns the earliest deadline still pending, or never.
func (n *Network) wakeDue() int64 {
	now := n.now()
	next := int64(never)
	for _, p := range n.procs.Load().all {
		d := p.due.Load()
		switch {
		case d == never:
		case d <= now:
			if p.due.CompareAndSwap(d, never) {
				p.nudge()
			}
		case d < next:
			next = d
		}
	}
	return next
}

// delayHeap is a binary min-heap of held envelopes by (deliverAt, seq).
type delayHeap []envelope

func (h delayHeap) less(i, j int) bool {
	if h[i].deliverAt != h[j].deliverAt {
		return h[i].deliverAt < h[j].deliverAt
	}
	return h[i].seq < h[j].seq
}

func (h *delayHeap) push(e envelope) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *delayHeap) popMin() envelope {
	old := *h
	min := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[last] = envelope{} // release the input for the GC
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*h) && h.less(l, small) {
			small = l
		}
		if r < len(*h) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return min
}
