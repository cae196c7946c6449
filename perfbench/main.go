// Command perfbench is the repository benchmark. It hosts a 3-group ×
// 3-replica deployment in this process, drives it with one open-loop
// client through the public API (packages wbcast and kv), checks the
// outputs, and prints its metrics; the last line of standard output is
// one JSON object. BENCHMARK.json lists the workloads and metrics and
// design.json what each per-layer metric should move. Build and run it
// from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload kv-lan --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) spends --seconds at the workload's nominal
// rate and reports the end-to-end metrics. A traced run (--trace 1) spends
// half of --seconds at the nominal rate untraced and half at the nominal
// rate with the probes installed, and reports the per-layer metrics.
// --capacity adds three capacity ramps to an untraced run, each on a
// freshly set-up system and a sixth of --seconds long; they drive the
// system past its knee, where operations fail by design, so the benchmark
// command leaves them out. The self-test runs every workload briefly:
//
//	cd perfbench && go test .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// ramps is how many capacity ramps a --capacity run makes, each on a
// fresh system; capacity_ops_s is their median, so one disturbance of the
// shared host during a ramp does not move it.
const ramps = 3

// extraSetups is how many set-ups a run times on top of the one it
// measures, so setup_s is a median of 25.
const extraSetups = 24

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	workdir := flag.String("workdir", ".bench_build", "directory for the durable workload's stores")
	commit := flag.String("commit", "unknown", "commit recorded in the environment block")
	withCapacity := flag.Bool("capacity", false, "also measure capacity_ops_s with three overload ramps")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n")
		os.Exit(2)
	}
	res, err := run(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *withCapacity, *workdir, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// run measures one workload and prints a report; the result carries the
// metrics of the final line.
func run(out io.Writer, w *workload, seed int64, seconds time.Duration, traced, withCapacity bool, workdir, commit string) (result, error) {
	env := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    seconds.Seconds(),
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"transport":  w.transport(),
		"delay":      w.delay(),
		"rate":       w.rate,
		"limit_ms":   ms(w.limit),
		"store":      "none",
	}
	if w.durable {
		env["store"] = "dir+sync-batched(8) on " + walFS(workdir)
	}
	b, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", b)
	if !w.mcast {
		if _, err := w.keys(); err != nil {
			return result{}, err
		}
	}
	if traced {
		return runTraced(out, w, seed, seconds/2, workdir)
	}
	return runTimed(out, w, seed, seconds, withCapacity, workdir)
}

// runTimed is the untraced run: nominal phase, the capacity ramps when
// asked for, and extra set-ups for the set-up time median.
func runTimed(out io.Writer, w *workload, seed int64, length time.Duration, withCapacity bool, workdir string) (result, error) {
	nom, err := nominal(w, seed, length, workdir, nil)
	if err != nil {
		return result{}, err
	}
	setups := []float64{nom.setup.Seconds()}
	rp := ramp{from: w.rampFrom * w.rate, top: w.rampTop * w.rate, length: length / 6}
	var caps []float64
	var capErr error
	for i := 0; withCapacity && i < ramps; i++ {
		c, err := capacity(w, seed+1+int64(i), rp, workdir)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, c.setup.Seconds())
		caps = append(caps, c.capacity)
		if c.censored {
			fmt.Fprintf(out, "capacity ramp %d censored at %.1f ops/s\n", i, c.capacity)
		}
		if capErr == nil {
			capErr = c.verdict
		}
	}
	for i := 0; i < extraSetups; i++ {
		settle()
		start := time.Now()
		s, _, _, err := prepare(w, seed, length, func(float64) float64 { return w.rate }, workdir, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		s.close()
	}

	ph := nom.ph
	attempted, failed := ph.counts()
	lo, hi := ph.measured()
	late := ph.lateness()
	res := result{correct: true, attempted: attempted, failed: failed}
	for _, e := range []struct {
		what string
		err  error
	}{{"nominal phase", nom.verdict}, {"capacity ramps", capErr}} {
		if e.err != nil {
			fmt.Fprintf(out, "verdict FAIL (%s): %v\n", e.what, e.err)
			res.correct = false
		}
	}
	// A generator that issued most operations later than the latency limit
	// fell behind schedule: the offered rate was not the nominal one, so
	// the run is invalid. Lateness spikes from a busy host only show in
	// gen.late_p99_ms; latency counts them anyway, from the due time.
	if l := quantile(late, 0.5); l > float64(w.limit) {
		fmt.Fprintf(out, "verdict INVALID: generator ran %.3f ms late at p50 (limit %v)\n", l/1e6, w.limit)
		res.correct = false
	}
	fmt.Fprintf(out, "nominal: %d attempted, %d failed, gen.late_p50_ms %.4f, gen.late_p99_ms %.4f\n",
		attempted, failed, quantile(late, 0.5)/1e6, quantile(late, 0.99)/1e6)
	if w.failover {
		fmt.Fprintf(out, "failover: crash at %.1f ms\n", ms(nom.crashAt))
	}
	if withCapacity {
		fmt.Fprintf(out, "capacity: %.1f ops/s over %d ramps of %.0f-%.0f ops/s\n", caps, ramps, rp.from, rp.top)
	}
	fmt.Fprintf(out, "set-ups: %.4f s\n", setups)
	fmt.Fprintf(out, "slice p50s: %.4f ms\n", msAll(ph.sliceQuantiles(length, 0.5)))
	if !res.correct {
		return res, nil
	}
	// These end-to-end metrics move with the load of the shared host more
	// than a bound can allow, so they are printed but not gated (see
	// design.json).
	report := []metric{
		{"lat_p99_ms", ph.sliceMedian(length, 0.99) / 1e6, "ms"},
		{"fail_frac", frac(failed, attempted), "frac"},
	}
	if withCapacity {
		report = append(report, metric{"capacity_ops_s", median(caps), "ops/s"})
	}
	if w.failover {
		report = append(report, metric{"unavail_ms", nom.unavail, "ms"})
	}
	for _, m := range report {
		fmt.Fprintf(out, "report %-21s %14.6f %s\n", m.name, m.value, m.unit)
	}
	res.metrics = []metric{
		{"setup_s", median(setups), "s"},
		{"lat_p50_ms", ph.sliceMedian(length, 0.50) / 1e6, "ms"},
		{"cpu_us_per_op", float64(nom.cpu.cpu) / 1e3 / float64(hi-lo), "us"},
		{"heap_mb", float64(nom.heap) / 1e6, "MB"},
	}
	return res, nil
}

// settle collects the previous system's garbage, so that one set-up does
// not pay for another's teardown.
func settle() { runtime.GC() }

// nominalRun is the outcome of one phase at the nominal rate.
type nominalRun struct {
	setup   time.Duration
	ph      *phase
	cpu     usage // over the measured schedule, excluding the drain
	rt1     rt    // runtime metrics when the schedule ended (traced only)
	heap    uint64
	crashAt time.Duration
	unavail float64 // ms
	verdict error
	layers  []metric // traced only
}

// prepare sets up a system and an operation source and draws the
// schedule; everything it does counts as set-up time.
func prepare(w *workload, seed int64, length time.Duration, rate func(float64) float64, workdir string, pr *probes) (*sut, *phase, *source, error) {
	s, err := setup(w, workdir, pr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	src := newSource(w, s.wl, seed)
	ph := newPhase(rand.New(rand.NewSource(seed^0x5eed)), length, rate)
	return s, ph, src, nil
}

// nominal runs a fresh system at the workload's nominal rate for length
// after the warm-up, with the probes installed when pr is not nil.
func nominal(w *workload, seed int64, length time.Duration, workdir string, pr *probes) (*nominalRun, error) {
	settle()
	start := time.Now()
	s, ph, src, err := prepare(w, seed, length, func(float64) float64 { return w.rate }, workdir, pr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	nr := &nominalRun{ph: ph, crashAt: -1}
	var u0 usage
	var base layerBase
	h := hooks{
		start: func() {
			u0 = getUsage()
			if pr != nil {
				base = s.layerBase()
				pr.arm(ph.t0, len(ph.recs), s.taps)
			}
		},
		end: func() {
			nr.cpu = getUsage().sub(u0)
			if pr != nil {
				nr.rt1 = readRT()
			}
		},
	}
	if w.failover {
		// The crash happens at a fixed point of the measured window;
		// operations keep arriving on schedule through it.
		at := warmup + length/4
		h.tick = func(now time.Duration) {
			if now >= at && nr.crashAt < 0 {
				nr.crashAt = time.Duration(ph.since())
				s.crash()
			}
		}
	}
	ph.run(s, src, h)
	nr.setup = ph.t0.Sub(start)
	nr.verdict = s.verdict(ph)
	if w.failover {
		nr.unavail = unavailable(ph, nr.crashAt)
	}
	if pr != nil && nr.verdict == nil {
		nr.verdict = s.drainTaps()
		if nr.verdict == nil && s.svc != nil {
			nr.verdict = s.svc.Verify(true)
		}
		nr.layers = s.layers(ph, base, nr)
	}
	nr.heap = liveHeap()
	return nr, nil
}

// unavailable returns the time (ms) from the crash to the first completion
// of an operation due after the crash and addressed to the crashed group.
func unavailable(ph *phase, crashAt time.Duration) float64 {
	best := int64(math.MaxInt64)
	for i := 0; i < ph.attempted(); i++ {
		r := &ph.recs[i]
		if r.due > int64(crashAt) && r.mask&1 != 0 && r.status.Load() == stOK {
			if d := r.done.Load(); d < best {
				best = d
			}
		}
	}
	if best == math.MaxInt64 {
		return 0
	}
	return float64(best-int64(crashAt)) / 1e6
}

type capacityRun struct {
	setup    time.Duration
	capacity float64
	censored bool
	verdict  error
}

// capacity runs the ramp on a fresh system. The failover workload ramps
// on the degraded system: the crash comes before the warm-up.
func capacity(w *workload, seed int64, rp ramp, workdir string) (*capacityRun, error) {
	settle()
	start := time.Now()
	s, ph, src, err := prepare(w, seed+1, rp.length, rp.rate, workdir, nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setupTime := time.Since(start)
	if w.failover {
		s.crash()
	}
	ph.run(s, src, hooks{tick: ph.kneeMonitor(w.limit)})
	c, censored := ph.capacity(rp, w.limit)
	return &capacityRun{setup: setupTime, capacity: c, censored: censored, verdict: s.verdict(ph)}, nil
}

// runTraced runs the nominal phase untraced, then again with the probes,
// and reports the per-layer metrics.
func runTraced(out io.Writer, w *workload, seed int64, half time.Duration, workdir string) (result, error) {
	plain, err := nominal(w, seed, half, workdir, nil)
	if err != nil {
		return result{}, err
	}
	tr, err := nominal(w, seed, half, workdir, &probes{})
	if err != nil {
		return result{}, err
	}
	attempted, failed := tr.ph.counts()
	res := result{correct: true, attempted: attempted, failed: failed}
	for _, v := range []error{plain.verdict, tr.verdict} {
		if v != nil {
			fmt.Fprintf(out, "verdict FAIL: %v\n", v)
			res.correct = false
		}
	}
	if !res.correct {
		return res, nil
	}
	plainCPU := float64(plain.cpu.cpu) / float64(plain.ph.measuredCount())
	tracedCPU := float64(tr.cpu.cpu) / float64(tr.ph.measuredCount())
	res.metrics = append(tr.layers, metric{"bench.trace_overhead_frac", tracedCPU/plainCPU - 1, "frac"})
	return res, nil
}

func printResult(out io.Writer, res result) error {
	var b strings.Builder
	b.WriteString(`{"correct": ` + strconv.FormatBool(res.correct))
	fmt.Fprintf(&b, `, "attempted": %d, "failed": %d, "metrics": {`, res.attempted, res.failed)
	for i, m := range res.metrics {
		fmt.Fprintf(out, "%-28s %14.6f %s\n", m.name, m.value, m.unit)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	_, err := fmt.Fprintln(out, b.String())
	return err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msAll(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e6
	}
	return out
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
