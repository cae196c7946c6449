// Package fastcast implements the FastCast protocol of Coelho, Schiper and
// Pedone (DSN 2017) — the state-of-the-art black-box baseline the paper
// compares against (§VI "Competitor protocols").
//
// FastCast optimises FT-Skeen with speculative execution. On receiving an
// application message, the group's Paxos leader issues a tentative local
// timestamp, starts consensus to persist it, and — without waiting —
// announces the timestamp to the other destination leaders (PROPOSE). On a
// full set of (tentative) timestamps, leaders speculatively compute the
// global timestamp, advance their clocks in line with it, and start a
// second consensus to persist the commit. When the first consensus decides,
// leaders exchange CONFIRM messages; a message is committed once the second
// consensus has completed and every destination group has confirmed the
// timestamp used. In failure-free runs the speculation always succeeds:
//
//	MULTICAST (δ) + max(consensus₁ (2δ) + CONFIRM (δ), PROPOSE (δ) +
//	consensus₂ (2δ)) = 4δ
//
// at destination leaders — the 4δ collision-free latency the paper quotes,
// with failure-free latency 8δ (the durable clock advance completes with
// consensus₂, so the convoy window is C = 4δ).
//
// Delivery is leader-gated: followers deliver on DELIVER messages from
// their leader (off the critical path), one hop after the leader (5δ).
//
// # Layering
//
// fastcast implements node.Handler on top of internal/paxos and
// internal/rsm, like ftskeen but with the speculative fast path;
// internal/protocol builds it for every runtime.
package fastcast
