package core

import (
	"fmt"
	"sort"

	"wbcast/internal/batch"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// Conflict-aware (generic multicast) mode.
//
// With Config.Conflicts set, the replica runs the white-box machinery —
// timestamp proposals, ACCEPT quorums, ballots, leader recovery — unchanged
// up to the commit point, but relaxes the delivery rule: a committed
// message is released as soon as no *conflicting* message could still
// receive a smaller global timestamp, instead of waiting for every smaller
// timestamp to resolve (Fig. 4 line 21). Mutually commuting messages
// therefore skip the queue-behind-pending latency entirely, which is the
// generic-multicast win of Bolina et al. (see docs/PROTOCOL.md).
//
// Why the early release is safe: a leader's clock is ≥ the GTS of every
// message it commits (the speculative advance of Fig. 4 line 14 covers all
// accepts the GTS is the max of), so any message the group has not yet
// proposed for will receive a local — and hence global — timestamp strictly
// above every released GTS. Messages the group *has* seen are checked
// explicitly: a committed m is blocked while some unreleased m' conflicting
// with m either committed with a smaller GTS, or is pending with a proposal
// lts below m's GTS (its final GTS is ≥ its lts, but could still land below
// m's). Messages known but not yet proposed for have no bound and
// conservatively block everything they conflict with.
//
// Because releases are no longer in GTS order, the max-delivered-GTS
// frontier cannot detect duplicates or gaps. Instead the leader numbers its
// releases with a per-ballot sequence (Deliver.Seq) and followers apply
// releases in exactly that order, deduplicating re-releases after a leader
// change with a durable applied set (wal.EntryDelivered). A new leader
// re-releases every committed message from sequence 1; followers advance
// their cursor silently over slots they already applied. Stalled followers
// are caught up by replaying the release log from their acknowledged
// cursor (HeartbeatAck.Seq).
//
// Garbage collection is disabled in conflict mode: the release log and the
// applied set reference every delivered message (the FastCast and FTSkeen
// baselines retain delivered state the same way).

// conflictMode reports whether the replica runs conflict-aware delivery.
func (r *Replica) conflictMode() bool { return r.cfg.Conflicts != nil }

// conflicts applies the configured relation (all-conflict when unset).
func (r *Replica) conflicts(a, b mcast.AppMsg) bool {
	return r.cfg.Conflicts.Conflicts(a, b)
}

// trackPending registers a message as release-relevant: it has its payload
// and has not been released/applied here. The pending map keeps the
// release scan proportional to in-flight messages rather than to the whole
// (never-pruned) state.
func (r *Replica) trackPending(id mcast.MsgID, st *mstate) {
	if r.conflictMode() && st.hasApp && !st.delivered {
		r.pendRel[id] = st
	}
}

// untrackPending removes a released/applied message from the pending map.
func (r *Replica) untrackPending(id mcast.MsgID) {
	if r.conflictMode() {
		delete(r.pendRel, id)
	}
}

// rebuildPending reconstructs the pending map after a wholesale state
// replacement (post-election merge, NEW_STATE install).
func (r *Replica) rebuildPending() {
	if !r.conflictMode() {
		return
	}
	clear(r.pendRel)
	for id, st := range r.state {
		r.trackPending(id, st)
	}
}

// resetReleaseState restarts the per-ballot release sequence; called
// whenever cballot changes (a new leader numbers its releases from 1, and
// every member's cursor follows the new sequence).
func (r *Replica) resetReleaseState() {
	r.relSeq = 0
	r.relLog = r.relLog[:0]
	r.lastSeq = 0
	clear(r.lastAckSeq)
}

// drainConflict releases every committed message whose order against all
// conflicting messages is settled, in GTS order (the conflict-mode
// counterpart of drain). Releasing in GTS order over the candidates keeps
// conflicting releases stamp-ordered; a blocked candidate also blocks every
// later conflicting candidate because it stays unreleased in the pending
// map the scan consults.
func (r *Replica) drainConflict(fx *node.Effects) {
	type cand struct {
		id mcast.MsgID
		st *mstate
	}
	var cands []cand
	for id, st := range r.pendRel {
		if st.phase == msgs.PhaseCommitted {
			cands = append(cands, cand{id, st})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].st.gts.Less(cands[j].st.gts) })
	for _, c := range cands {
		if r.conflictBlocked(c.st) {
			r.cfg.Obs.GenBlocked()
			continue
		}
		if r.orderBlocked(c.st) {
			// Under the total-order rule this message would still wait;
			// the conflict relation is what released it early.
			r.cfg.Obs.GenEarlyRelease()
		}
		c.st.delivered = true
		r.untrackPending(c.id)
		r.relSeq++
		r.relLog = append(r.relLog, c.id)
		del := msgs.Deliver{ID: c.id, Bal: r.cballot, LTS: c.st.lts, GTS: c.st.gts, Seq: r.relSeq}
		fx.SendAll(r.cfg.Top.Members(r.group), del)
		r.queue.Remove(c.id)
	}
}

// conflictBlocked reports whether some unreleased message conflicting with
// st could still order below it.
func (r *Replica) conflictBlocked(st *mstate) bool {
	for _, st2 := range r.pendRel {
		if st2 == st {
			continue
		}
		if !r.mayOrderBelow(st, st2) {
			continue
		}
		if r.conflicts(st.app, st2.app) {
			return true
		}
	}
	return false
}

// orderBlocked is conflictBlocked without the conflict test: whether the
// strict total-order delivery rule would still hold st back. Used only for
// the early-release metric.
func (r *Replica) orderBlocked(st *mstate) bool {
	for _, st2 := range r.pendRel {
		if st2 != st && r.mayOrderBelow(st, st2) {
			return true
		}
	}
	return false
}

// mayOrderBelow reports whether unreleased st2 could end up with a global
// timestamp below committed st's.
func (r *Replica) mayOrderBelow(st, st2 *mstate) bool {
	switch st2.phase {
	case msgs.PhaseCommitted:
		return st2.gts.Less(st.gts)
	case msgs.PhaseProposed, msgs.PhaseAccepted:
		// st2's final GTS is ≥ its local proposal.
		return st2.lts.Less(st.gts)
	default:
		// No proposal yet — no lower bound on its eventual timestamp.
		return true
	}
}

// onDeliverConflict applies one release slot of the leader's per-ballot
// sequence (the conflict-mode counterpart of onDeliver). Slots are consumed
// strictly in order: a duplicate (Seq ≤ cursor) is dropped, a gap
// (Seq > cursor+1) stalls until the seq-based catch-up replays it. Slots
// carrying a message this replica already applied — re-releases after a
// leader change — advance the cursor without re-delivering.
func (r *Replica) onDeliverConflict(d msgs.Deliver, fx *node.Effects) {
	if r.status == StatusRecovering {
		return
	}
	if r.cballot != d.Bal {
		return
	}
	if d.Seq != r.lastSeq+1 {
		return
	}
	st := r.get(d.ID)
	if !st.hasApp {
		// FIFO channels order the leader's ACCEPT (or NEW_STATE) before its
		// DELIVER, so the payload is normally present. Treat its absence as
		// a gap — do not advance the cursor past a slot we cannot apply.
		return
	}
	r.lastSeq = d.Seq
	st.phase = msgs.PhaseCommitted
	st.lts = d.LTS
	st.gts = d.GTS
	if r.clock < d.GTS.Time {
		r.clock = d.GTS.Time
	}
	if r.maxDeliveredGTS.Less(d.GTS) {
		// A monotone clock floor only — in conflict mode this is not a
		// gap-free frontier and is never used for duplicate detection.
		r.maxDeliveredGTS = d.GTS
	}
	st.delivered = true
	r.untrackPending(d.ID)
	if r.applied[d.ID] {
		return // re-release of a slot this replica already applied
	}
	r.applied[d.ID] = true
	r.cfg.Obs.Stage(obs.StageDeliver, d.ID, &st.at)
	// Durable order: the committed record, the applied-set entry and the
	// frontier all precede the application-visible delivery.
	r.persistRecord(st, fx)
	if r.cfg.durable() {
		fx.Persist(wal.Entry{Kind: wal.EntryDelivered, IDs: []mcast.MsgID{d.ID}})
		fx.Persist(wal.Entry{Kind: wal.EntryFrontier, Max: r.maxDeliveredGTS, Last: r.maxDeliveredGTS})
	}
	r.queue.Remove(d.ID)
	batch.ExpandInto(fx, mcast.Delivery{Msg: st.app, GTS: d.GTS})
	fx.Send(d.ID.Sender(), msgs.ClientReply{ID: d.ID, Group: r.group})
}

// catchupConflict replays the release log to a follower stalled at cursor
// seq (the conflict-mode counterpart of catchup): an ACCEPT so the follower
// holds the payload, then the DELIVER with its original sequence number.
// Conflict mode never prunes, so every logged release is still in state.
func (r *Replica) catchupConflict(from mcast.ProcessID, seq uint64, fx *node.Effects) {
	if from == r.pid || seq >= r.relSeq {
		return
	}
	end := seq + catchupBatch
	if end > r.relSeq {
		end = r.relSeq
	}
	r.cfg.Obs.Mark(obs.EventCatchup, fmt.Sprintf("to=p%d n=%d", from, end-seq))
	for s := seq + 1; s <= end; s++ {
		id := r.relLog[s-1]
		st, ok := r.state[id]
		if !ok || !st.hasApp {
			continue // cannot happen: releases are never pruned in conflict mode
		}
		fx.Send(from, msgs.Accept{M: st.app, Group: r.group, Bal: r.cballot, LTS: st.lts})
		fx.Send(from, msgs.Deliver{ID: id, Bal: r.cballot, LTS: st.lts, GTS: st.gts, Seq: s})
	}
}
