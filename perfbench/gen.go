package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Generator limits. An operation still running opTimeout after it was due
// fails; an operation due while maxInflight others are running is refused
// and fails.
const (
	opTimeout   = 2 * time.Second
	maxInflight = 4096
	ctxBucket   = 100 * time.Millisecond // operations due in one bucket share a deadline
)

// warmup is how long a fresh system runs at the phase's starting rate
// before measuring starts, so connection set-up, first allocations and
// stack growth are not timed.
const warmup = 500 * time.Millisecond

// Operation outcomes.
const (
	stPending = iota
	stOK
	stFailed
	stRefused
)

// rec is one scheduled operation. Times are nanoseconds since the phase
// start (the due time of operation 0). done and status are written by the
// operation's goroutine and read concurrently by the capacity monitor.
type rec struct {
	due    int64
	issued int64
	submit int64
	mask   uint8
	tagged bool
	status atomic.Int32
	done   atomic.Int64
}

// phase is one open-loop run against one system: a fixed schedule of due
// times, dispatched by a single goroutine whether or not earlier
// operations have completed. Operations due before warm are issued but
// not measured.
type phase struct {
	t0    time.Time
	warm  int64
	recs  []rec
	n     atomic.Int64 // operations attempted so far (issued or refused)
	stop  atomic.Bool
	inflt atomic.Int64
	maxIn atomic.Int64
	wg    sync.WaitGroup

	ctxs    []context.Context
	cancels []context.CancelFunc
}

// newPhase draws Poisson due times over [0, warmup+length) for the rate
// function rate(t), t in seconds since the phase start.
func newPhase(rng *rand.Rand, length time.Duration, rate func(t float64) float64) *phase {
	p := &phase{warm: int64(warmup)}
	end := (warmup + length).Seconds()
	for t := 0.0; t < end; t += rng.ExpFloat64() / rate(t) {
		p.recs = append(p.recs, rec{due: int64(t * 1e9)})
	}
	return p
}

func (p *phase) since() int64 { return int64(time.Since(p.t0)) }

func (p *phase) attempted() int { return int(p.n.Load()) }

// measured returns the index range of the measured operations dispatched.
func (p *phase) measured() (lo, hi int) {
	hi = p.attempted()
	lo = sort.Search(hi, func(i int) bool { return p.recs[i].due >= p.warm })
	return lo, hi
}

func (p *phase) measuredCount() int {
	lo, hi := p.measured()
	return hi - lo
}

// ctxFor returns the shared deadline context of the bucket due falls in.
// Only the dispatching goroutine calls it.
func (p *phase) ctxFor(due int64) context.Context {
	b := int(time.Duration(due) / ctxBucket)
	for len(p.ctxs) <= b {
		dl := p.t0.Add(time.Duration(len(p.ctxs)+1)*ctxBucket + opTimeout)
		ctx, cancel := context.WithDeadline(context.Background(), dl)
		p.ctxs = append(p.ctxs, ctx)
		p.cancels = append(p.cancels, cancel)
	}
	return p.ctxs[b]
}

// hooks observe a phase. start runs on the dispatching goroutine when
// measuring starts and end when the schedule ends, before the drain; tick
// runs every 20ms on its own goroutine until the schedule ends.
type hooks struct {
	start, end func()
	tick       func(now time.Duration)
}

// run dispatches the schedule against s, starting now, and returns once
// every issued operation has finished.
func (p *phase) run(s *sut, src *source, h hooks) {
	p.t0 = time.Now()
	tickDone := make(chan struct{})
	stopTick := make(chan struct{})
	if h.tick != nil {
		go func() {
			defer close(tickDone)
			t := time.NewTicker(20 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopTick:
					return
				case <-t.C:
					h.tick(time.Since(p.t0))
				}
			}
		}()
	} else {
		close(tickDone)
	}
	started := false
	for i := range p.recs {
		if p.stop.Load() {
			break
		}
		r := &p.recs[i]
		o := src.next(i)
		r.mask, r.tagged = o.mask, o.tagged
		if d := time.Duration(r.due - p.since()); d > 0 {
			time.Sleep(d)
		}
		if !started && r.due >= p.warm {
			started = true
			if h.start != nil {
				h.start()
			}
		}
		r.issued = p.since()
		p.n.Store(int64(i + 1))
		if p.inflt.Load() >= maxInflight {
			r.status.Store(stRefused)
			r.done.Store(r.issued)
			continue
		}
		if n := p.inflt.Add(1); n > p.maxIn.Load() {
			p.maxIn.Store(n)
		}
		ctx := p.ctxFor(r.due)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			r.submit = p.since()
			err := s.do(ctx, o)
			end := p.since()
			if err != nil {
				r.status.Store(stFailed)
			} else {
				r.status.Store(stOK)
			}
			r.done.Store(end)
			p.inflt.Add(-1)
		}()
	}
	if h.end != nil {
		h.end()
	}
	close(stopTick)
	<-tickDone
	p.wg.Wait()
	for _, c := range p.cancels {
		c()
	}
}

// counts returns the attempted and failed operations, warm-up included.
func (p *phase) counts() (attempted, failed int) {
	attempted = p.attempted()
	for i := 0; i < attempted; i++ {
		if st := p.recs[i].status.Load(); st == stFailed || st == stRefused {
			failed++
		}
	}
	return attempted, failed
}

// latencies returns the sorted latencies (ns, from the due time) of the
// completed measured operations due in [from, to).
func (p *phase) latencies(from, to int64) []float64 {
	var out []float64
	lo, hi := p.measured()
	for i := lo; i < hi; i++ {
		r := &p.recs[i]
		if r.due >= from && r.due < to && r.status.Load() == stOK {
			out = append(out, float64(r.done.Load()-r.due))
		}
	}
	sort.Float64s(out)
	return out
}

// latencySlices is the number of equal slices of the measured window whose
// own percentiles the latency metrics take the median of: a stall of the
// shared host then moves one slice, not the whole run.
const latencySlices = 10

// sliceMedian returns the median over the slices of the measured window
// of each slice's q-quantile latency (ns).
func (p *phase) sliceMedian(length time.Duration, q float64) float64 {
	return median(p.sliceQuantiles(length, q))
}

// sliceQuantiles returns each slice's q-quantile latency (ns).
func (p *phase) sliceQuantiles(length time.Duration, q float64) []float64 {
	var qs []float64
	step := int64(length) / latencySlices
	for k := int64(0); k < latencySlices; k++ {
		from := p.warm + k*step
		if l := p.latencies(from, from+step); len(l) > 0 {
			qs = append(qs, quantile(l, q))
		}
	}
	return qs
}

// lateness returns how late the generator issued each measured operation
// (ns), sorted.
func (p *phase) lateness() []float64 {
	lo, hi := p.measured()
	out := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, float64(p.recs[i].issued-p.recs[i].due))
	}
	sort.Float64s(out)
	return out
}

// Capacity ramp. After the warm-up at its starting rate, the offered rate
// grows exponentially. Each window of rampWindow due time passes when at
// most 1% of its operations failed or took longer than the latency limit,
// i.e. when its p99 meets the limit with no failures; a backlog that grows
// shows up as latencies that grow past the limit. The ramp stops at the
// first failing window, so the system is driven no further into overload
// than the definition needs; capacity is the offered rate where the miss
// fraction crosses 1% between the last passing window and that one.
const (
	rampWindow = 100 * time.Millisecond
	missLimit  = 0.01
)

type ramp struct {
	from, top float64 // ops/s
	length    time.Duration
}

// rate is the offered rate t seconds after the phase start.
func (r ramp) rate(t float64) float64 {
	t = max(0, t-warmup.Seconds())
	return r.from * math.Pow(r.top/r.from, t/r.length.Seconds())
}

// windowMiss returns the fraction of window k's operations that missed
// the limit (failed, refused, too slow, or still running past the limit),
// judged at time now. ok reports whether the window is already decided.
func (p *phase) windowMiss(k int, limit, now time.Duration) (miss float64, ok bool) {
	lo := p.warm + int64(time.Duration(k)*rampWindow)
	hi := lo + int64(rampWindow)
	if now < time.Duration(hi)+limit {
		return 0, false
	}
	att := p.attempted()
	first := sort.Search(att, func(i int) bool { return p.recs[i].due >= lo })
	n, missed := 0, 0
	for i := first; i < att && p.recs[i].due < hi; i++ {
		n++
		r := &p.recs[i]
		d := r.done.Load()
		switch {
		case d == 0:
			if int64(now)-r.due > int64(limit) {
				missed++
			}
		case r.status.Load() != stOK || d-r.due > int64(limit):
			missed++
		}
	}
	if n == 0 {
		return 0, true
	}
	return float64(missed) / float64(n), true
}

// kneeMonitor returns a tick hook that stops the phase at the first
// window that misses the limit.
func (p *phase) kneeMonitor(limit time.Duration) func(time.Duration) {
	next := 0
	return func(now time.Duration) {
		for {
			miss, ok := p.windowMiss(next, limit, now)
			if !ok {
				return
			}
			if miss > missLimit {
				p.stop.Store(true)
				return
			}
			next++
		}
	}
}

// capacity evaluates the drained ramp. censored reports that no window
// failed (the result is the ramp's top) or that the first one did (the
// result is the ramp's start).
func (p *phase) capacity(r ramp, limit time.Duration) (capacity float64, censored bool) {
	decided := time.Duration(p.since()) + time.Hour // after the drain every window is decided
	mid := func(k int) float64 { return r.rate(warmup.Seconds() + (float64(k)+0.5)*rampWindow.Seconds()) }
	prev := 0.0
	for k := 0; k < int(r.length/rampWindow); k++ {
		miss, _ := p.windowMiss(k, limit, decided)
		if miss <= missLimit {
			prev = miss
			continue
		}
		if k == 0 {
			return mid(0), true
		}
		return mid(k-1) + (mid(k)-mid(k-1))*(missLimit-prev)/(miss-prev), false
	}
	return r.top, true
}
