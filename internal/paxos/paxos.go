package paxos

import (
	"fmt"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// App receives chosen commands in slot order, exactly once per slot, on
// every replica. leading reports whether this replica is currently the
// group's leader (so the app can perform leader-only duties such as
// inter-group messaging).
type App interface {
	Apply(slot uint64, cmd msgs.Command, leading bool, fx *node.Effects)
}

// Config parametrises a Replica.
type Config struct {
	// PID is this replica's process; it must be a member of a group.
	PID mcast.ProcessID
	// Top is the topology.
	Top *mcast.Topology
	// HeartbeatInterval enables leader heartbeats and failure detection;
	// zero disables them (deterministic tests drive candidacy manually).
	HeartbeatInterval time.Duration
	// SuspectTimeout defaults to 4×HeartbeatInterval.
	SuspectTimeout time.Duration
	// ColdStart starts all replicas as followers with no leader; otherwise
	// replicas boot pre-synchronised into ballot (1, first member).
	ColdStart bool
	// OnLead, if non-nil, is invoked when this replica completes a leader
	// change and is ready to propose (the embedding protocol re-drives its
	// pending work).
	OnLead func(fx *node.Effects)
	// AckDelivered, if non-nil, supplies the embedding protocol's delivery
	// watermark, piggybacked on heartbeat acks (HeartbeatAck.Delivered) so
	// the leader can detect lagging followers.
	AckDelivered func() mcast.Timestamp
	// OnFollowerLag, if non-nil, is invoked on the leader for every
	// heartbeat ack, with the follower's reported delivery watermark. The
	// embedding protocol uses it to replay protocol-level deliveries the
	// follower missed (crash-recovery message loss); the Paxos log itself
	// is caught up independently via HeartbeatAck.Executed.
	OnFollowerLag func(from mcast.ProcessID, delivered mcast.Timestamp, fx *node.Effects)
	// Obs is the embedding protocol's instrumentation handle; Paxos records
	// its elections and step-downs on it. Nil disables.
	Obs *obs.Proto
	// Recovered, when non-nil, makes the replica durable: it emits a
	// persist effect for every crash-surviving transition — the promise
	// pair before a P1b vote, accepted slots before their P2b, chosen
	// slots before the Learn — so the hosting runtime syncs them before
	// the corresponding message leaves. It also seeds the replica from
	// replayed durable state (promise pair and log). The replica restarts as a follower; the
	// executed frontier is NOT restored here — the embedding protocol
	// calls Replay to re-apply the committed prefix into its state machine.
	Recovered *wal.State
}

type entry struct {
	vbal      mcast.Ballot
	cmd       msgs.Command
	committed bool
	acks      map[mcast.ProcessID]bool
}

// Replica is one group member's Paxos state.
type Replica struct {
	cfg   Config
	pid   mcast.ProcessID
	group mcast.GroupID
	app   App
	// peers is Top.Peers(pid): the static recipient list for intra-group
	// fan-outs.
	peers []mcast.ProcessID

	leading    bool
	recovering bool
	bal        mcast.Ballot // highest ballot joined (promise)
	cbal       mcast.Ballot // ballot of the established leader we follow
	log        map[uint64]*entry
	nextSlot   uint64 // leader: next free slot
	executed   uint64 // next slot to apply

	// Phase-1 bookkeeping for an in-flight candidacy.
	p1bs map[mcast.ProcessID]msgs.P1b

	hbSeen bool
}

// New constructs a Paxos replica for cfg.PID.
func New(cfg Config, app App) (*Replica, error) {
	if cfg.Top == nil {
		return nil, fmt.Errorf("paxos: nil topology")
	}
	g := cfg.Top.GroupOf(cfg.PID)
	if g == mcast.NoGroup {
		return nil, fmt.Errorf("paxos: process %d is not a member of any group", cfg.PID)
	}
	if cfg.SuspectTimeout == 0 {
		cfg.SuspectTimeout = 4 * cfg.HeartbeatInterval
	}
	r := &Replica{
		cfg:   cfg,
		pid:   cfg.PID,
		group: g,
		app:   app,
		log:   make(map[uint64]*entry),
		p1bs:  make(map[mcast.ProcessID]msgs.P1b),
	}
	r.peers = cfg.Top.Peers(r.pid)
	if !cfg.ColdStart {
		r.bal = cfg.Top.InitialBallot(g)
		r.cbal = r.bal
		r.leading = r.bal.Leader() == r.pid
	}
	if rs := cfg.Recovered; rs != nil && !rs.Empty() {
		// Crash recovery: the replayed promise pair and log override the
		// bootstrap, floored at the initial ballot (common knowledge).
		if r.cbal.Less(rs.PaxosCBal) {
			r.cbal = rs.PaxosCBal
		}
		if r.bal.Less(rs.PaxosBal) {
			r.bal = rs.PaxosBal
		}
		if r.bal.Less(r.cbal) {
			r.bal = r.cbal
		}
		for slot, ps := range rs.PaxosLog {
			r.log[slot] = &entry{vbal: ps.VBal, cmd: ps.Cmd.Clone(), committed: ps.Committed}
			if slot >= r.nextSlot {
				r.nextSlot = slot + 1
			}
		}
		// Never restart leading: the leader's nextSlot may have outrun its
		// last persisted entry, so leadership is re-earned through phase 1
		// (which re-derives the log tail from a quorum).
		r.leading = false
	}
	return r, nil
}

// Replay applies the recovered log's contiguous committed prefix to the
// application, advancing the executed frontier. The embedding protocol calls
// it once after New (with recovery), before handling any input; commands
// apply with leading=false, so the app rebuilds state without re-sending.
func (r *Replica) Replay(fx *node.Effects) {
	r.execute(fx)
}

// persistBallot logs the promise pair; called before the P1b/P2b vote it
// backs leaves the process.
func (r *Replica) persistBallot(fx *node.Effects) {
	if r.cfg.Recovered != nil {
		fx.Persist(wal.Entry{Kind: wal.EntryPaxosBallot, Bal: r.bal, CBal: r.cbal})
	}
}

// persistSlot logs one log slot's current (vbal, cmd, committed) value;
// called before the P2b or Learn the slot backs leaves the process.
func (r *Replica) persistSlot(slot uint64, e *entry, fx *node.Effects) {
	if r.cfg.Recovered != nil {
		fx.Persist(wal.Entry{Kind: wal.EntryPaxosCmd, Slot: slot, Bal: e.vbal, Cmd: e.cmd, Committed: e.committed})
	}
}

// stepDown clears the leading flag, recording the loss when it was set.
func (r *Replica) stepDown(bal mcast.Ballot) {
	if r.leading {
		r.cfg.Obs.Mark(obs.EventStepDown, "bal="+bal.String())
	}
	r.leading = false
}

// Leading reports whether this replica is the established leader.
func (r *Replica) Leading() bool { return r.leading }

// Ballot returns the current established ballot.
func (r *Replica) Ballot() mcast.Ballot { return r.cbal }

// Leader returns the process currently believed to lead the group.
func (r *Replica) Leader() mcast.ProcessID { return r.cbal.Leader() }

// Executed returns the number of applied log slots.
func (r *Replica) Executed() uint64 { return r.executed }

// Start arms the liveness timers; call from the embedding handler's Start.
func (r *Replica) Start(fx *node.Effects) {
	if r.cfg.HeartbeatInterval > 0 {
		if r.leading {
			r.broadcastHeartbeat(fx)
			fx.SetTimer(r.cfg.HeartbeatInterval, node.TimerHeartbeat, r.cbal.N)
		}
		r.hbSeen = true
		fx.SetTimer(r.suspectAfter(), node.TimerSuspect, 0)
	}
}

// Propose appends cmd to the replicated log. Only the leader may call it;
// it returns the assigned slot. The command is chosen once a quorum accepts
// it, then applied everywhere in slot order.
//
// Ownership: the log retains cmd, so the caller must pass an owned command
// — one it built itself or cloned from a received message (never one whose
// payload still aliases a borrowed network frame).
func (r *Replica) Propose(cmd msgs.Command, fx *node.Effects) (uint64, bool) {
	if !r.leading {
		return 0, false
	}
	slot := r.nextSlot
	r.nextSlot++
	e := &entry{vbal: r.cbal, cmd: cmd, acks: map[mcast.ProcessID]bool{r.pid: true}}
	r.log[slot] = e
	// The leader's own acceptance counts toward the quorum, so it must be
	// durable before the P2a solicits the others'.
	r.persistSlot(slot, e, fx)
	fx.SendAll(r.peers, msgs.P2a{Group: r.group, Bal: r.cbal, Slot: slot, Cmd: cmd})
	r.maybeChoose(slot, fx) // singleton groups choose immediately
	return slot, true
}

// HandleMessage consumes Paxos and election messages; it returns false for
// messages the embedding protocol should handle itself.
func (r *Replica) HandleMessage(from mcast.ProcessID, m msgs.Message, fx *node.Effects) bool {
	switch m := m.(type) {
	case msgs.P1a:
		r.onP1a(from, m, fx)
	case msgs.P1b:
		r.onP1b(from, m, fx)
	case msgs.P2a:
		r.onP2a(from, m, fx)
	case msgs.P2b:
		r.onP2b(from, m, fx)
	case msgs.Learn:
		r.onLearn(m, fx)
	case msgs.Heartbeat:
		r.onHeartbeat(from, m, fx)
	case msgs.HeartbeatAck:
		r.onHeartbeatAck(from, m, fx)
	default:
		return false
	}
	return true
}

// HandleTimer consumes election timers; it returns false for timer kinds the
// embedding protocol owns.
func (r *Replica) HandleTimer(t node.Timer, fx *node.Effects) bool {
	switch t.Kind {
	case node.TimerHeartbeat:
		if r.leading && r.cbal.N == t.Data {
			r.broadcastHeartbeat(fx)
			fx.SetTimer(r.cfg.HeartbeatInterval, node.TimerHeartbeat, t.Data)
		}
	case node.TimerSuspect:
		r.onSuspectTimer(fx)
	case node.TimerCandidacy:
		if t.Data == 1 {
			r.startCandidacy(fx)
			return true
		}
		if r.recovering && r.bal.Leader() == r.pid {
			r.startCandidacy(fx)
		}
	default:
		return false
	}
	return true
}

// --------------------------------------------------------------------------
// Phase 2 (steady state)
// --------------------------------------------------------------------------

func (r *Replica) onP2a(from mcast.ProcessID, m msgs.P2a, fx *node.Effects) {
	if m.Group != r.group || m.Bal.Less(r.bal) {
		return
	}
	ballotChanged := r.bal.Less(m.Bal) || r.cbal != m.Bal
	if r.bal.Less(m.Bal) {
		r.bal = m.Bal
	}
	r.cbal = m.Bal
	if m.Bal.Leader() != r.pid {
		r.stepDown(m.Bal)
		r.recovering = false
	}
	if ballotChanged {
		r.persistBallot(fx)
	}
	e := r.log[m.Slot]
	if e == nil || e.vbal.Less(m.Bal) {
		if e == nil || !e.committed {
			// Retention boundary: the log outlives this Handle call, so
			// deep-copy the command off the (possibly borrowed) frame.
			ne := &entry{vbal: m.Bal, cmd: m.Cmd.Clone()}
			r.log[m.Slot] = ne
			// The P2b below promises this acceptance; it must survive a
			// crash or a choosing quorum could include a vote that a
			// restarted replica no longer remembers.
			r.persistSlot(m.Slot, ne, fx)
		}
	}
	fx.Send(from, msgs.P2b{Group: r.group, Bal: m.Bal, Slot: m.Slot})
}

func (r *Replica) onP2b(from mcast.ProcessID, m msgs.P2b, fx *node.Effects) {
	if m.Group != r.group || !r.leading || m.Bal != r.cbal {
		return
	}
	e := r.log[m.Slot]
	if e == nil || e.committed || e.vbal != m.Bal {
		return
	}
	if e.acks == nil {
		e.acks = make(map[mcast.ProcessID]bool)
	}
	e.acks[from] = true
	r.maybeChoose(m.Slot, fx)
}

func (r *Replica) maybeChoose(slot uint64, fx *node.Effects) {
	e := r.log[slot]
	if e == nil || e.committed || len(e.acks) < r.cfg.Top.QuorumSize(r.group) {
		return
	}
	e.committed = true
	// Chosen before announced: the Learn fan-out and the local execution
	// both presume the decision survives this replica's crash.
	r.persistSlot(slot, e, fx)
	fx.SendAll(r.peers, msgs.Learn{Group: r.group, Slot: slot, Cmd: e.cmd})
	r.execute(fx)
}

func (r *Replica) onLearn(m msgs.Learn, fx *node.Effects) {
	if m.Group != r.group {
		return
	}
	e := r.log[m.Slot]
	if e != nil && e.committed {
		return
	}
	// Retention boundary (see onP2a).
	ne := &entry{vbal: r.cbal, cmd: m.Cmd.Clone(), committed: true}
	r.log[m.Slot] = ne
	// Learned decisions are durable before execution reaches the app.
	r.persistSlot(m.Slot, ne, fx)
	r.execute(fx)
}

// execute applies committed commands in slot order.
func (r *Replica) execute(fx *node.Effects) {
	for {
		e := r.log[r.executed]
		if e == nil || !e.committed {
			return
		}
		slot := r.executed
		r.executed++
		if e.cmd.Op != msgs.CmdNoop {
			r.app.Apply(slot, e.cmd, r.leading, fx)
		}
	}
}

// --------------------------------------------------------------------------
// Phase 1 (leader change)
// --------------------------------------------------------------------------

func (r *Replica) startCandidacy(fx *node.Effects) {
	b := mcast.Ballot{N: r.bal.N + 1, Proc: r.pid}
	r.cfg.Obs.Mark(obs.EventElection, "bal="+b.String())
	fx.SendAll(r.cfg.Top.Members(r.group), msgs.P1a{Group: r.group, Bal: b})
	if r.cfg.HeartbeatInterval > 0 {
		fx.SetTimer(2*r.suspectAfter(), node.TimerCandidacy, 0)
	}
}

func (r *Replica) onP1a(from mcast.ProcessID, m msgs.P1a, fx *node.Effects) {
	if m.Group != r.group || !r.bal.Less(m.Bal) {
		return
	}
	r.bal = m.Bal
	r.stepDown(m.Bal)
	r.recovering = true
	clear(r.p1bs)
	// The P1b below is a promise never to accept in a lower ballot; it must
	// survive a crash, or a restarted replica could promise two candidates.
	r.persistBallot(fx)
	// Report accepted, uncommitted entries plus the commit frontier;
	// committed entries are re-sent too so a lagging candidate catches up.
	p1b := msgs.P1b{Group: r.group, Bal: m.Bal, Executed: r.executed}
	for slot, e := range r.log {
		p1b.Entries = append(p1b.Entries, msgs.P1bEntry{Slot: slot, VBal: e.vbal, Cmd: e.cmd})
	}
	fx.Send(from, p1b)
}

func (r *Replica) onP1b(from mcast.ProcessID, m msgs.P1b, fx *node.Effects) {
	if m.Group != r.group || !r.recovering || r.bal != m.Bal || r.bal.Leader() != r.pid {
		return
	}
	if r.cbal == r.bal {
		return // already took over in this ballot
	}
	// Retention boundary: the vote set outlives this Handle call, and the
	// reported entries' commands may alias a borrowed frame.
	if len(m.Entries) > 0 {
		ents := make([]msgs.P1bEntry, len(m.Entries))
		for i, ent := range m.Entries {
			ent.Cmd = ent.Cmd.Clone()
			ents[i] = ent
		}
		m.Entries = ents
	}
	r.p1bs[from] = m
	if len(r.p1bs) < r.cfg.Top.QuorumSize(r.group) {
		return
	}
	// Adopt the highest-ballot value per slot; fill holes with no-ops.
	adopted := make(map[uint64]msgs.P1bEntry)
	var maxSlot uint64
	have := false
	for _, p1b := range r.p1bs {
		for _, ent := range p1b.Entries {
			cur, ok := adopted[ent.Slot]
			if !ok || cur.VBal.Less(ent.VBal) {
				adopted[ent.Slot] = ent
			}
			if !have || ent.Slot > maxSlot {
				maxSlot, have = ent.Slot, true
			}
		}
	}
	r.cbal = r.bal
	r.leading = true
	r.recovering = false
	r.persistBallot(fx)
	end := uint64(0)
	if have {
		end = maxSlot + 1
	}
	if end < r.nextSlot {
		end = r.nextSlot
	}
	r.nextSlot = end
	// Re-propose every adopted value (and no-ops for holes) in the new
	// ballot. Entries already committed locally keep their commands.
	for slot := uint64(0); slot < end; slot++ {
		e := r.log[slot]
		if e != nil && e.committed {
			// Re-announce so lagging replicas catch up.
			fx.SendAll(r.peers, msgs.Learn{Group: r.group, Slot: slot, Cmd: e.cmd})
			continue
		}
		cmd := msgs.Command{Op: msgs.CmdNoop}
		if ent, ok := adopted[slot]; ok && !ent.VBal.IsZero() {
			cmd = ent.Cmd // owned: cloned when the P1b was stored
		}
		ne := &entry{vbal: r.cbal, cmd: cmd, acks: map[mcast.ProcessID]bool{r.pid: true}}
		r.log[slot] = ne
		r.persistSlot(slot, ne, fx)
		fx.SendAll(r.peers, msgs.P2a{Group: r.group, Bal: r.cbal, Slot: slot, Cmd: cmd})
		r.maybeChoose(slot, fx)
	}
	// Propose one no-op in a fresh slot so that every follower sees a P2a
	// of the new ballot and adopts it, even when every recovered slot was
	// already committed (Learn messages carry no ballot).
	r.Propose(msgs.Command{Op: msgs.CmdNoop}, fx)
	if r.cfg.HeartbeatInterval > 0 {
		r.broadcastHeartbeat(fx)
		fx.SetTimer(r.cfg.HeartbeatInterval, node.TimerHeartbeat, r.cbal.N)
	}
	if r.cfg.OnLead != nil {
		r.cfg.OnLead(fx)
	}
}

// --------------------------------------------------------------------------
// Failure detector
// --------------------------------------------------------------------------

func (r *Replica) broadcastHeartbeat(fx *node.Effects) {
	fx.SendAll(r.peers, msgs.Heartbeat{Group: r.group, Bal: r.cbal})
}

func (r *Replica) onHeartbeat(from mcast.ProcessID, m msgs.Heartbeat, fx *node.Effects) {
	if m.Group != r.group {
		return
	}
	if r.cbal.Less(m.Bal) {
		// Heartbeats come only from established leaders, so this replica
		// slept through an election (crash-recovery restart; a deposed
		// leader pausing past its own deposition ends up here too). Unlike
		// the white-box protocol, following the new ballot without a state
		// transfer is safe: every decision is in the replicated log, and
		// the slots missed while down arrive through the Executed-based
		// catch-up below. Adopt the ballot and step down if leading.
		if r.bal.Less(m.Bal) {
			r.bal = m.Bal
		}
		r.cbal = m.Bal
		r.stepDown(m.Bal)
		r.recovering = false
		r.persistBallot(fx)
	}
	if m.Bal == r.cbal && !r.leading {
		r.hbSeen = true
		ack := msgs.HeartbeatAck{Group: r.group, Bal: m.Bal, Executed: r.executed}
		if r.cfg.AckDelivered != nil {
			ack.Delivered = r.cfg.AckDelivered()
		}
		fx.Send(from, ack)
	}
}

// catchupSlots caps how many missed log slots one heartbeat ack replays.
const catchupSlots = 128

// onHeartbeatAck runs on the leader: a follower whose execution frontier
// trails the leader's proposal frontier lost messages while it (or the
// leader, mid-consensus) was down. Re-send committed slots as Learn so the
// follower's log catches up, and uncommitted slots as P2a — the follower's
// duplicate P2b re-feeds the commit quorum, which is the only steady-state
// retransmission path for a phase-2 exchange whose messages were lost
// (paxos has no per-slot retry timer; recovery rides the heartbeat).
func (r *Replica) onHeartbeatAck(from mcast.ProcessID, m msgs.HeartbeatAck, fx *node.Effects) {
	if m.Group != r.group || !r.leading || m.Bal != r.cbal {
		return
	}
	if r.cfg.OnFollowerLag != nil {
		r.cfg.OnFollowerLag(from, m.Delivered, fx)
	}
	// Scan from the lower of the two execution frontiers: the follower's,
	// because it may be missing chosen commands, and the leader's own,
	// because the leader itself may be stuck on uncommitted slots whose
	// P2a/P2b exchange was lost while its followers are already past them
	// (a leader elected from a stale phase-1 quorum over lossy links).
	start := m.Executed
	if r.executed < start {
		start = r.executed
	}
	if start >= r.nextSlot {
		return
	}
	end := start + catchupSlots
	if end > r.nextSlot {
		end = r.nextSlot
	}
	for slot := start; slot < end; slot++ {
		e := r.log[slot]
		if e == nil {
			continue
		}
		if e.committed {
			if slot >= m.Executed {
				fx.Send(from, msgs.Learn{Group: r.group, Slot: slot, Cmd: e.cmd})
			}
		} else if e.vbal == r.cbal {
			fx.Send(from, msgs.P2a{Group: r.group, Bal: r.cbal, Slot: slot, Cmd: e.cmd})
		}
	}
}

func (r *Replica) onSuspectTimer(fx *node.Effects) {
	if r.cfg.HeartbeatInterval == 0 {
		return
	}
	defer fx.SetTimer(r.suspectAfter(), node.TimerSuspect, 0)
	if r.leading {
		return
	}
	if !r.recovering && r.hbSeen {
		r.hbSeen = false
		return
	}
	r.startCandidacy(fx)
}

func (r *Replica) suspectAfter() time.Duration {
	rank := r.cfg.Top.Rank(r.pid)
	return r.cfg.SuspectTimeout + time.Duration(rank)*r.cfg.SuspectTimeout/2
}
