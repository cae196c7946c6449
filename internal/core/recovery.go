package core

import (
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// Leader recovery (Fig. 4 lines 35–68).
//
// A new leader is elected in two stages. First, processes vote to join the
// ballot of a prospective leader (NEWLEADER / NEWLEADER_ACK, analogous to
// Paxos "1a"/"1b"), which the candidate uses to compute a recovered state
// preserving Invariants 2 and 5 of Fig. 6. Second, the candidate brings a
// quorum of followers in sync with that state (NEW_STATE / NEWSTATE_ACK,
// in the style of Viewstamped Replication and Zab) before resuming normal
// operation — without this second stage, a later recovery could resurrect a
// local timestamp the deposed leader did not know about when it delivered a
// message, violating the delivery order (see the p1/p2/p3 scenario in §IV).

// startCandidacy implements recover() (lines 35–36): pick a ballot led by
// this process that is higher than any ballot it has joined, and ask the
// group to adopt it.
func (r *Replica) startCandidacy(fx *node.Effects) {
	b := mcast.Ballot{N: r.ballot.N + 1, Proc: r.pid}
	r.cfg.Obs.Mark(obs.EventElection, "bal="+b.String())
	fx.SendAll(r.cfg.Top.Members(r.group), msgs.NewLeader{Bal: b})
	// If the candidacy stalls (lost votes, a duel with another candidate),
	// retry with a fresh ballot after a backoff.
	if r.cfg.HeartbeatInterval > 0 {
		fx.SetTimer(r.candidacyBackoff(), node.TimerCandidacy, 0)
	}
}

// onNewLeader handles a ballot proposal (lines 37–41). Any process —
// follower, leader or recovering — joins a strictly higher ballot, stopping
// normal processing until it learns the new state.
func (r *Replica) onNewLeader(from mcast.ProcessID, m msgs.NewLeader, fx *node.Effects) {
	if !r.ballot.Less(m.Bal) { // line 38
		return
	}
	if r.status == StatusLeader {
		r.cfg.Obs.Mark(obs.EventStepDown, "bal="+m.Bal.String())
	}
	r.status = StatusRecovering // line 39
	r.ballot = m.Bal            // line 40
	// Abandon any candidacy bookkeeping of older ballots.
	clear(r.nlAcks)
	clear(r.nsAcks)
	// The vote is a promise never to vote in a lower ballot again; it must
	// survive a crash, or a restarted replica could vote twice and two
	// leaders could recover conflicting states from disjoint quorums.
	if r.cfg.durable() {
		fx.Persist(wal.Entry{Kind: wal.EntryBallot, Bal: r.ballot, CBal: r.cballot, Clock: r.clock})
	}
	// line 41: vote, reporting the full local state. Only ACCEPTED and
	// COMMITTED entries matter: PROPOSED state is leader-local and is never
	// consulted by the merge rule (lines 46–54).
	fx.Send(from, msgs.NewLeaderAck{
		Bal:   m.Bal,
		CBal:  r.cballot,
		Clock: r.clock,
		State: r.exportState(),
	})
}

// exportState snapshots the ACCEPTED/COMMITTED message records. The records
// share the replica's stored (owned, immutable) application messages rather
// than cloning them: sending never mutates, network receivers decode their
// own copies, and in-process receivers clone at their retention boundary.
func (r *Replica) exportState() []msgs.MsgRecord {
	recs := make([]msgs.MsgRecord, 0, len(r.state))
	for _, st := range r.state {
		if !st.hasApp {
			continue
		}
		if st.phase != msgs.PhaseAccepted && st.phase != msgs.PhaseCommitted {
			continue
		}
		recs = append(recs, msgs.MsgRecord{
			M:     st.app,
			Phase: st.phase,
			LTS:   st.lts,
			GTS:   st.gts,
		})
	}
	return recs
}

// onNewLeaderAck collects votes; at a quorum the candidate computes its
// initial state (lines 42–56).
func (r *Replica) onNewLeaderAck(from mcast.ProcessID, m msgs.NewLeaderAck, fx *node.Effects) {
	if r.status != StatusRecovering || r.ballot != m.Bal { // line 43
		return
	}
	if r.cballot == r.ballot {
		return // merge already performed for this ballot
	}
	// Retention boundary: the vote outlives this Handle call, and its
	// records may alias a borrowed network frame. Clone once here; the
	// merge below then adopts the records without further copying.
	m.State = msgs.CloneRecords(m.State)
	r.nlAcks[from] = m
	if len(r.nlAcks) < r.cfg.Top.QuorumSize(r.group) {
		return
	}

	// line 44: reinitialise Phase, LocalTS, GlobalTS.
	merged := make(map[mcast.MsgID]*mstate)
	// line 45: J = the voters with maximal cballot.
	var maxCB mcast.Ballot
	for _, ack := range r.nlAcks {
		if maxCB.Less(ack.CBal) {
			maxCB = ack.CBal
		}
	}
	// lines 46–54: COMMITTED anywhere wins; otherwise ACCEPTED at a voter
	// in J is adopted with its local timestamp. ACCEPTED entries reported
	// by voters outside J are deliberately discarded — this is what
	// prevents the resurrection of forgotten timestamps (Invariant 5).
	var clock uint64
	for from, ack := range r.nlAcks {
		if ack.Clock > clock {
			clock = ack.Clock
		}
		inJ := ack.CBal == maxCB
		for _, rec := range ack.State {
			cur := merged[rec.M.ID]
			switch rec.Phase {
			case msgs.PhaseCommitted: // lines 47–50
				if cur == nil || cur.phase != msgs.PhaseCommitted {
					merged[rec.M.ID] = &mstate{
						app: rec.M, hasApp: true,
						phase: msgs.PhaseCommitted, lts: rec.LTS, gts: rec.GTS,
					}
				}
			case msgs.PhaseAccepted: // lines 51–53
				if inJ && cur == nil {
					merged[rec.M.ID] = &mstate{
						app: rec.M, hasApp: true,
						phase: msgs.PhaseAccepted, lts: rec.LTS,
					}
				}
			}
		}
		_ = from
	}
	r.state = merged
	if r.clock < clock {
		r.clock = clock // line 54
	}
	r.cballot = r.ballot // line 55
	if r.conflictMode() {
		// A new ballot restarts the release sequence from 1 and re-releases
		// every committed message (followers' cursors reset with NEW_STATE,
		// and the new release log must cover everything a lagging follower
		// may still need). Leave all merged records unreleased; the applied
		// set deduplicates at the application boundary.
		r.resetReleaseState()
	} else {
		// Deliveries this process performed before the leader change stay
		// delivered (max_delivered_gts is never reinitialised).
		for _, st := range r.state {
			if st.phase == msgs.PhaseCommitted && !r.maxDeliveredGTS.Less(st.gts) {
				st.delivered = true
			}
		}
	}
	r.rebuildPending()

	// The merged state replaces this replica's records wholesale — in
	// particular it may DROP accepted entries reported by voters outside J
	// — so it must be durable before the NEW_STATE fan-out announces it.
	recs := r.exportState()
	if r.cfg.durable() {
		fx.Persist(wal.Entry{Kind: wal.EntryState, Bal: r.ballot, CBal: r.cballot, Clock: r.clock, Recs: recs})
	}
	// line 56: push the new state to the rest of the group.
	fx.SendAll(r.groupPeers, msgs.NewState{Bal: r.ballot, Clock: r.clock, State: recs})
	clear(r.nsAcks)
	r.maybeFinishRecovery(fx) // a singleton group needs no acknowledgements
}

// onNewState installs the recovered state at a follower (lines 57–62).
func (r *Replica) onNewState(from mcast.ProcessID, m msgs.NewState, fx *node.Effects) {
	if r.status != StatusRecovering || r.ballot != m.Bal { // line 58
		return
	}
	r.status = StatusFollower // line 59
	r.cballot = m.Bal         // line 60
	// line 61: overwrite clock, Phase, LocalTS, GlobalTS.
	r.clock = m.Clock
	r.state = make(map[mcast.MsgID]*mstate, len(m.State))
	for _, rec := range m.State {
		st := &mstate{app: rec.M.Clone(), hasApp: true, phase: rec.Phase, lts: rec.LTS, gts: rec.GTS}
		if r.conflictMode() {
			st.delivered = r.applied[rec.M.ID]
		} else if rec.Phase == msgs.PhaseCommitted && !r.maxDeliveredGTS.Less(rec.GTS) {
			st.delivered = true
		}
		r.state[rec.M.ID] = st
	}
	if r.conflictMode() {
		// The new leader numbers its releases from 1; reset the cursor.
		r.resetReleaseState()
	}
	r.rebuildPending()
	r.queue.Clear() // not leading; the queue is rebuilt on leadership
	r.noteLeader(r.group, m.Bal)
	r.hbSeen = true // grace period for the new leader's heartbeats
	// The ack promises this follower holds the installed state; persist the
	// wholesale replacement (ballot pair, clock, records) before sending it.
	if r.cfg.durable() {
		fx.Persist(wal.Entry{Kind: wal.EntryState, Bal: r.ballot, CBal: r.cballot, Clock: r.clock, Recs: r.exportState()})
	}
	fx.Send(from, msgs.NewStateAck{Bal: m.Bal}) // line 62
}

// onNewStateAck counts synchronised followers; with a quorum (including the
// leader itself) the new leader resumes operation (lines 63–68).
func (r *Replica) onNewStateAck(from mcast.ProcessID, m msgs.NewStateAck, fx *node.Effects) {
	if r.status != StatusRecovering || r.ballot != m.Bal { // line 64
		return
	}
	r.nsAcks[from] = true
	r.maybeFinishRecovery(fx)
}

func (r *Replica) maybeFinishRecovery(fx *node.Effects) {
	if r.status != StatusRecovering || r.cballot != r.ballot {
		return
	}
	// "from a set of processes that together with pi form a quorum".
	if len(r.nsAcks)+1 < r.cfg.Top.QuorumSize(r.group) {
		return
	}
	r.status = StatusLeader // line 65
	r.noteLeader(r.group, r.cballot)

	// Rebuild the delivery queue from the recovered state and re-deliver
	// every deliverable committed message from the beginning (lines 66–68).
	// Followers that already delivered some of them discard the duplicates
	// via the max_delivered_gts check. The DELIVER chain restarts below the
	// re-drained prefix: at the group GC watermark, which every member's
	// delivery watermark is guaranteed to have reached (pruning requires
	// it), so no follower's gap check can mistake the restart for a gap.
	r.lastDeliverGTS = r.groupWM[r.group]
	r.queue.Clear()
	for id, st := range r.state {
		switch st.phase {
		case msgs.PhaseCommitted:
			r.queue.Commit(id, st.gts)
		case msgs.PhaseAccepted:
			r.queue.SetPending(id, st.lts)
		}
	}
	r.drain(fx)

	// Resume the processing of ACCEPTED messages (§IV "Message recovery":
	// the retry mechanism re-runs the ACCEPT round in the new ballot).
	for id, st := range r.state {
		if st.phase == msgs.PhaseAccepted {
			if r.cfg.RetryInterval > 0 {
				r.armRetry(id, fx)
			}
			// Kick one immediate retry so recovery does not wait a full
			// retry interval: re-multicast to every destination leader,
			// including ourselves.
			st.retries = 0
			for _, g := range st.app.Dest {
				fx.Send(r.curLeader[g], msgs.Multicast{M: st.app})
			}
		}
	}

	// Start leading: heartbeats announce the ballot to the group.
	if r.cfg.HeartbeatInterval > 0 {
		r.broadcastHeartbeat(fx)
		fx.SetTimer(r.cfg.HeartbeatInterval, node.TimerHeartbeat, uint64(r.cballot.N))
	}
}
