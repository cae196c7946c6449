package ftskeen

import (
	"fmt"
	"sort"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/paxos"
	"wbcast/internal/rsm"
	"wbcast/internal/wal"
)

// Config parametrises a Replica.
type Config struct {
	// PID is this replica's process; it must be a member of a group.
	PID mcast.ProcessID
	// Top is the topology.
	Top *mcast.Topology
	// RetryInterval re-sends PROPOSE/MULTICAST for stuck messages; zero
	// disables retries.
	RetryInterval time.Duration
	// HeartbeatInterval/SuspectTimeout drive the Paxos failure detector.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// ColdStart starts without an established leader.
	ColdStart bool
	// Obs is the replica's instrumentation handle; nil disables metrics
	// and tracing.
	Obs *obs.Proto
	// Recovered, when non-nil, makes the replica durable: it enables
	// persist effects for the Paxos substrate and the delivery frontier.
	// A non-empty Recovered also seeds the replica from replayed durable
	// state: the Paxos log is re-applied into the ordering state machine,
	// and deliveries at or below the recovered frontier are suppressed so
	// the application never sees a message twice across a restart.
	Recovered *wal.State
}

// Replica is one FT-Skeen group member. It implements node.Handler.
type Replica struct {
	cfg   Config
	pid   mcast.ProcessID
	group mcast.GroupID

	px *paxos.Replica
	sm *rsm.Machine

	// Leader-side soft state (rebuilt on leadership change).
	assignInFlight map[mcast.MsgID]bool
	commitProposed map[mcast.MsgID]bool
	// proposals collects PROPOSE timestamps per message and group.
	proposals map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp
	// curLeader is the Cur_leader guess for remote groups.
	curLeader map[mcast.GroupID]mcast.ProcessID
	// redrives counts per-message retry rounds; after a couple of targeted
	// rounds the retry blankets whole destination groups, because the
	// Cur_leader guess may be arbitrarily stale after remote leader changes
	// (§IV: "the multicasting process can always send the message to all
	// the processes in a given group").
	redrives map[mcast.MsgID]int
	// obsAt holds each in-flight message's latest stage timestamp; touched
	// only when cfg.Obs is set.
	obsAt map[mcast.MsgID]*time.Duration

	// maxDelivered is the application-delivery frontier, persisted before
	// each delivery (when durable) and used at recovery to suppress re-delivery
	// of the replayed prefix. FT-Skeen's delivery order is log-determined,
	// so the frontier is only consulted while booting from a recovered log.
	maxDelivered mcast.Timestamp
	// booting is true while the recovered log replays inside New: drain
	// then pops the already-delivered prefix silently and leaves newer
	// deliverables queued for the Start input's live effects sink.
	booting bool
}

// stageAt returns the stage-timestamp cell for id, creating it on demand.
func (r *Replica) stageAt(id mcast.MsgID) *time.Duration {
	at, ok := r.obsAt[id]
	if !ok {
		if r.obsAt == nil {
			r.obsAt = make(map[mcast.MsgID]*time.Duration)
		}
		at = new(time.Duration)
		r.obsAt[id] = at
	}
	return at
}

// New constructs an FT-Skeen replica.
func New(cfg Config) (*Replica, error) {
	g := cfg.Top.GroupOf(cfg.PID)
	if g == mcast.NoGroup {
		return nil, fmt.Errorf("ftskeen: process %d is not a member of any group", cfg.PID)
	}
	r := &Replica{
		cfg:            cfg,
		pid:            cfg.PID,
		group:          g,
		sm:             rsm.New(g),
		assignInFlight: make(map[mcast.MsgID]bool),
		commitProposed: make(map[mcast.MsgID]bool),
		proposals:      make(map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp),
		curLeader:      make(map[mcast.GroupID]mcast.ProcessID),
		redrives:       make(map[mcast.MsgID]int),
	}
	for gid := mcast.GroupID(0); int(gid) < cfg.Top.NumGroups(); gid++ {
		r.curLeader[gid] = cfg.Top.InitialLeader(gid)
	}
	px, err := paxos.New(paxos.Config{
		PID: cfg.PID, Top: cfg.Top,
		HeartbeatInterval: cfg.HeartbeatInterval,
		SuspectTimeout:    cfg.SuspectTimeout,
		ColdStart:         cfg.ColdStart,
		OnLead:            r.onLead,
		Obs:               cfg.Obs,
		Recovered:         cfg.Recovered,
	}, paxosApp{r})
	if err != nil {
		return nil, err
	}
	r.px = px
	if rs := cfg.Recovered; rs != nil && !rs.Empty() {
		// Rebuild the ordering state machine by replaying the recovered
		// log. Replay effects go to a throwaway sink: commands apply as a
		// follower (no sends), and drain pops the already-delivered prefix
		// silently. Deliverables beyond the frontier stay queued and are
		// emitted on the Start input.
		r.maxDelivered = rs.MaxDelivered
		r.booting = true
		var discard node.Effects
		r.px.Replay(&discard)
		r.booting = false
	}
	return r, nil
}

// ID implements node.Handler.
func (r *Replica) ID() mcast.ProcessID { return r.pid }

// Leading reports whether this replica currently leads its group.
func (r *Replica) Leading() bool { return r.px.Leading() }

// Machine exposes the replicated state machine (tests).
func (r *Replica) Machine() *rsm.Machine { return r.sm }

// Handle implements node.Handler.
func (r *Replica) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Start:
		r.px.Start(fx)
		// Emit any deliveries the recovered log determined beyond the
		// persisted frontier (queued by the replay in New).
		r.drain(fx)
	case node.Recv:
		if r.px.HandleMessage(in.From, in.Msg, fx) {
			return
		}
		switch m := in.Msg.(type) {
		case msgs.Multicast:
			r.onMulticast(m.M, fx)
		case msgs.Propose:
			r.onPropose(in.From, m, fx)
		}
	case node.Timer:
		if r.px.HandleTimer(in, fx) {
			return
		}
		if in.Kind == node.TimerRetry {
			r.retry(mcast.MsgID(in.Data), fx)
		}
	}
}

// onMulticast starts (or re-drives) the ordering of an application message:
// the leader persists a local timestamp through consensus before announcing
// it to the other destination groups.
func (r *Replica) onMulticast(app mcast.AppMsg, fx *node.Effects) {
	if !r.px.Leading() {
		return
	}
	if lts, ok := r.sm.LTS(app.ID); ok {
		// Already assigned: re-announce the committed timestamp (message
		// recovery after a lost PROPOSE or a remote leader change).
		r.sendPropose(app.ID, app.Dest, lts, fx)
		return
	}
	if r.assignInFlight[app.ID] {
		return // consensus already running for this assignment
	}
	// The timestamp itself is computed deterministically inside the RSM
	// when the command applies (Fig. 1 line 9), so a freshly assigned
	// timestamp is always above every previously committed global
	// timestamp — the property the delivery rule relies on.
	r.assignInFlight[app.ID] = true
	if o := r.cfg.Obs; o != nil {
		o.Begin(app.ID, r.stageAt(app.ID))
	}
	r.px.Propose(msgs.Command{Op: msgs.CmdAssign, M: app.Clone()}, fx)
	r.armRetry(app.ID, fx)
}

// paxosApp adapts Replica to the paxos.App interface.
type paxosApp struct{ r *Replica }

// Apply is invoked on every replica in slot order.
func (a paxosApp) Apply(_ uint64, cmd msgs.Command, leading bool, fx *node.Effects) {
	r := a.r
	switch cmd.Op {
	case msgs.CmdAssign:
		lts, _ := r.sm.ApplyAssignClock(cmd.M)
		if o := r.cfg.Obs; o != nil {
			at := r.stageAt(cmd.M.ID)
			if *at == 0 {
				o.Begin(cmd.M.ID, at) // follower: first sight via the log
			}
			o.Stage(obs.StagePropose, cmd.M.ID, at)
		}
		if leading {
			delete(r.assignInFlight, cmd.M.ID)
			// The timestamp is now durable: announce it to the leaders of
			// all destination groups (including ourselves, for uniformity —
			// Fig. 1 line 12).
			r.sendPropose(cmd.M.ID, cmd.M.Dest, lts, fx)
			r.armRetry(cmd.M.ID, fx)
		}
	case msgs.CmdCommit:
		if _, changed := r.sm.ApplyCommit(cmd.ID, cmd.LTSs); changed {
			delete(r.commitProposed, cmd.ID)
			delete(r.proposals, cmd.ID)
			delete(r.redrives, cmd.ID)
			if o := r.cfg.Obs; o != nil {
				o.Stage(obs.StageCommit, cmd.ID, r.stageAt(cmd.ID))
			}
		}
		// Every replica delivers deterministically from the log.
		r.drain(fx)
	}
}

func (r *Replica) drain(fx *node.Effects) {
	if r.booting {
		// Recovery replay: the prefix the application saw before the crash
		// (gts at or below the recovered frontier) pops silently; anything
		// newer stays queued for the Start input's live sink.
		for {
			_, gts, ok := r.sm.Deliverable()
			if !ok || r.maxDelivered.Less(gts) {
				return
			}
			r.sm.Deliver()
		}
	}
	for {
		d, ok := r.sm.Deliver()
		if !ok {
			return
		}
		if !r.maxDelivered.Less(d.GTS) {
			continue // delivered before a restart (recovered frontier)
		}
		r.maxDelivered = d.GTS
		// The advanced frontier is durable before the application sees the
		// delivery, so a replayed store never re-delivers.
		if r.cfg.Recovered != nil {
			fx.Persist(wal.Entry{Kind: wal.EntryFrontier, Max: d.GTS, Last: d.GTS})
		}
		if o := r.cfg.Obs; o != nil {
			o.Stage(obs.StageDeliver, d.Msg.ID, r.stageAt(d.Msg.ID))
			delete(r.obsAt, d.Msg.ID)
		}
		batch.ExpandInto(fx, d)
		fx.Send(d.Msg.ID.Sender(), msgs.ClientReply{ID: d.Msg.ID, Group: r.group})
	}
}

func (r *Replica) sendPropose(id mcast.MsgID, dest mcast.GroupSet, lts mcast.Timestamp, fx *node.Effects) {
	p := msgs.Propose{ID: id, Group: r.group, LTS: lts}
	for _, g := range dest {
		if g == r.group {
			fx.Send(r.pid, p)
		} else {
			fx.Send(r.curLeader[g], p)
		}
	}
}

// onPropose collects the local timestamps of the destination groups; with a
// full set the leader persists the commit through the second consensus.
func (r *Replica) onPropose(from mcast.ProcessID, p msgs.Propose, fx *node.Effects) {
	if p.Group != r.group {
		r.curLeader[p.Group] = from
	}
	if !r.px.Leading() {
		return
	}
	props := r.proposals[p.ID]
	if props == nil {
		props = make(map[mcast.GroupID]mcast.Timestamp)
		r.proposals[p.ID] = props
	}
	props[p.Group] = p.LTS
	r.maybeProposeCommit(p.ID, fx)
}

func (r *Replica) maybeProposeCommit(id mcast.MsgID, fx *node.Effects) {
	if r.sm.Phase(id) != msgs.PhaseProposed || r.commitProposed[id] {
		return
	}
	app, ok := r.sm.App(id)
	if !ok {
		return
	}
	props := r.proposals[id]
	vec := make([]msgs.GroupTS, 0, len(app.Dest))
	for _, g := range app.Dest {
		lts, ok := props[g]
		if !ok {
			return
		}
		vec = append(vec, msgs.GroupTS{Group: g, TS: lts})
	}
	sort.Slice(vec, func(i, j int) bool { return vec[i].Group < vec[j].Group })
	r.commitProposed[id] = true
	if o := r.cfg.Obs; o != nil {
		o.Stage(obs.StageAccept, id, r.stageAt(id))
	}
	r.px.Propose(msgs.Command{Op: msgs.CmdCommit, ID: id, LTSs: vec}, fx)
}

// retry re-drives a stuck message: re-announce our timestamp and re-multicast
// to the other destination leaders so they (re-)announce theirs. The first
// rounds target the Cur_leader guesses; further rounds blanket the whole
// destination groups — the guess can be stale after a remote leader change
// (followers drop PROPOSE/MULTICAST silently), and only the blanket is
// guaranteed to reach whoever leads now.
func (r *Replica) retry(id mcast.MsgID, fx *node.Effects) {
	if !r.px.Leading() || r.sm.Phase(id) != msgs.PhaseProposed {
		delete(r.redrives, id)
		return
	}
	app, ok := r.sm.App(id)
	if !ok {
		return
	}
	r.redrives[id]++
	r.cfg.Obs.MarkMsg(obs.EventRetransmit, id)
	blanket := r.redrives[id] > 2
	if lts, ok := r.sm.LTS(id); ok {
		if blanket {
			fx.SendGroups(r.cfg.Top, app.Dest, msgs.Propose{ID: id, Group: r.group, LTS: lts})
		} else {
			r.sendPropose(id, app.Dest, lts, fx)
		}
	}
	for _, g := range app.Dest {
		if g == r.group {
			continue
		}
		if blanket {
			fx.SendAll(r.cfg.Top.Members(g), msgs.Multicast{M: app})
		} else {
			fx.Send(r.curLeader[g], msgs.Multicast{M: app})
		}
	}
	r.armRetry(id, fx)
}

func (r *Replica) armRetry(id mcast.MsgID, fx *node.Effects) {
	if r.cfg.RetryInterval > 0 {
		fx.SetTimer(r.cfg.RetryInterval, node.TimerRetry, uint64(id))
	}
}

// onLead re-drives every in-flight message after a leadership change: the
// Paxos log has been recovered, so the RSM state is authoritative; PROPOSE
// exchanges and commit proposals are soft state and must be repeated.
func (r *Replica) onLead(fx *node.Effects) {
	clear(r.assignInFlight)
	clear(r.commitProposed)
	for _, id := range r.sm.Pending() {
		app, _ := r.sm.App(id)
		if lts, ok := r.sm.LTS(id); ok {
			r.sendPropose(id, app.Dest, lts, fx)
		}
		r.armRetry(id, fx)
		r.maybeProposeCommit(id, fx)
	}
	// Committed-undelivered messages deliver once blocking messages commit;
	// nothing to do for them here beyond the pending retries above.
	r.drain(fx)
}

var _ node.Handler = (*Replica)(nil)
