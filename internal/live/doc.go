// Package live runs protocol handlers in real time: one goroutine per
// process, in-memory links with configurable injected latency, and real
// timers. It drives the same deterministic node.Handler state machines as
// the discrete-event simulator, so protocol code is identical between
// simulated experiments and live benchmarks.
//
// Latency injection models the paper's testbeds on a single machine: the
// LAN profile injects a uniform sub-millisecond delay, the WAN profile the
// inter-datacenter round-trip matrix of §VI. Per-link latencies are
// constant, so FIFO ordering is preserved by construction (delivery
// deadlines on a link are monotone).
//
// # Goroutines and the clock
//
// A Network runs one goroutine per process plus, when a latency is
// configured, one clock goroutine. A send stamps the message with its
// deadline and enqueues it straight into the receiver's mailbox. The
// receiver handles it once due; until then it keeps it in a
// process-local deadline heap. A process with nothing due parks and
// publishes its earliest deadline, and the clock wakes every process
// whose deadline has passed, then sleeps until the next one.
//
// The clock has to be precise: the LAN delay is 50 µs, but the runtime's
// timers on Linux wait in epoll_wait, whose timeout is in whole
// milliseconds, so an idle process would turn every delay into 1 ms. So
// on Linux the clock sleeps waits under 1 ms in nanosleep. Longer waits,
// and every wait elsewhere, use one runtime timer. Protocol timers
// (node.Effects.Timers) are separate time.AfterFunc timers.
//
// # Layering
//
// live is the goroutine runtime driving node.Handler in real time — the
// public InProcess transport and the throughput benchmarks
// (internal/bench) run on it.
package live
