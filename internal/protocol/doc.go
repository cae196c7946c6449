// Package protocol is the one construction point for protocol replicas.
// It names the five multicast protocols (Kind), derives their timer
// periods from the network delay δ (DefaultTiming), and builds the
// node.Handler of one replica from a Config (New).
//
// Every layer that hosts replicas goes through New: the public wbcast
// package on every transport, the simulated test harness
// (internal/harness), the benchmarks (internal/bench) and cmd/wbcast-sim.
// The harness and the public API therefore run the very same handlers
// with the very same timeouts, so the paper's comparison of WhiteBox with
// Skeen, FT-Skeen and FastCast (§VI) cannot drift between them.
//
// # Layering
//
// protocol sits directly above the protocol packages (core, fastcast,
// ftskeen, skeen) and below every runtime that hosts them. Genmcast is not
// a package of its own: it is core run under a conflict relation
// (core.Config.Conflicts).
package protocol
