// Package ftskeen implements the fault-tolerant version of Skeen's protocol
// that uses consensus as a black box — the classical design of Fritzke et
// al. [17] that the paper's §IV strawman describes: each group simulates a
// reliable Skeen process (Fig. 1) via state-machine replication over a
// Paxos log.
//
// Both key actions of Skeen's protocol are replicated commands: assigning a
// local timestamp (CmdAssign) and committing the global timestamp while
// advancing the clock (CmdCommit). Each costs a Paxos round trip from the
// group leader to a quorum, so a multicast takes
//
//	MULTICAST (δ) + consensus (2δ) + PROPOSE (δ) + consensus (2δ) = 6δ
//
// to deliver at a destination leader — the collision-free latency of 6δ the
// paper quotes, with a failure-free latency of 12δ due to the convoy effect
// (the clock only advances past a message's global timestamp when the
// second consensus completes).
//
// # Layering
//
// ftskeen implements node.Handler on top of internal/paxos and
// internal/rsm; internal/protocol builds it for every runtime, so it runs
// the same workloads, fault schedules and checks as the other protocols.
package ftskeen
