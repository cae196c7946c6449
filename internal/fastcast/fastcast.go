package fastcast

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
	// RetryInterval re-drives stuck messages; zero disables retries.
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
	// and the delivery watermark is restored so the application never sees
	// a message twice across a restart.
	Recovered *wal.State
}

// Replica is one FastCast group member. It implements node.Handler.
type Replica struct {
	cfg   Config
	pid   mcast.ProcessID
	group mcast.GroupID
	// peers is Top.Peers(pid): the group member list minus this replica.
	peers []mcast.ProcessID

	px *paxos.Replica
	sm *rsm.Machine

	// Leader-side soft state (rebuilt on leadership change).
	specTime uint64
	// specPending maps messages with an issued-but-unapplied tentative
	// timestamp; the delivery gate must treat them as pending.
	specPending map[mcast.MsgID]mcast.Timestamp
	// apps caches application messages seen at this leader.
	apps map[mcast.MsgID]mcast.AppMsg
	// proposals holds the (possibly tentative) timestamps announced by the
	// destination leaders; confirms holds the consensus-decided ones.
	proposals map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp
	confirms  map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp
	// commitVec is the timestamp vector used in the proposed CmdCommit.
	commitVec map[mcast.MsgID][]msgs.GroupTS
	// remoteLeaders is the Cur_leader guess for remote groups, learned
	// from observed traffic.
	remoteLeaders map[mcast.GroupID]mcast.ProcessID
	// redrives counts per-message retry rounds; after a couple of targeted
	// rounds the retry blankets whole destination groups, because the
	// leader guess may be stale after remote elections and followers drop
	// PROPOSE/CONFIRM/MULTICAST silently (§IV).
	redrives map[mcast.MsgID]int
	// lastAckWM remembers each follower's previous heartbeat-ack delivery
	// watermark; the DELIVER replay fires only when a watermark stalls
	// (fails to advance between acks), not merely trails — trailing by one
	// hop is the steady-state norm and must not cost a delivered-set scan
	// per heartbeat.
	lastAckWM map[mcast.ProcessID]mcast.Timestamp

	// maxDelivered is the duplicate-suppression watermark (all replicas).
	maxDelivered mcast.Timestamp
	// lastDeliverGTS is the leader-side DELIVER chain cursor (Deliver.Prev):
	// followers use the chain to detect missed DELIVERs after a
	// crash-recovery pause instead of delivering with a gap.
	lastDeliverGTS mcast.Timestamp
	// obsAt holds each in-flight message's latest stage timestamp; touched
	// only when cfg.Obs is set.
	obsAt map[mcast.MsgID]*time.Duration
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

// New constructs a FastCast replica.
func New(cfg Config) (*Replica, error) {
	g := cfg.Top.GroupOf(cfg.PID)
	if g == mcast.NoGroup {
		return nil, fmt.Errorf("fastcast: process %d is not a member of any group", cfg.PID)
	}
	r := &Replica{
		cfg:           cfg,
		pid:           cfg.PID,
		group:         g,
		sm:            rsm.New(g),
		specPending:   make(map[mcast.MsgID]mcast.Timestamp),
		apps:          make(map[mcast.MsgID]mcast.AppMsg),
		proposals:     make(map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp),
		confirms:      make(map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp),
		commitVec:     make(map[mcast.MsgID][]msgs.GroupTS),
		remoteLeaders: make(map[mcast.GroupID]mcast.ProcessID),
		redrives:      make(map[mcast.MsgID]int),
		lastAckWM:     make(map[mcast.ProcessID]mcast.Timestamp),
	}
	r.peers = cfg.Top.Peers(r.pid)
	px, err := paxos.New(paxos.Config{
		PID: cfg.PID, Top: cfg.Top,
		HeartbeatInterval: cfg.HeartbeatInterval,
		SuspectTimeout:    cfg.SuspectTimeout,
		ColdStart:         cfg.ColdStart,
		OnLead:            r.onLead,
		// Delivery is leader-gated (not log-driven), so a follower that
		// lost DELIVERs while down needs them replayed: piggyback our
		// delivery watermark on heartbeat acks and replay above a lagging
		// follower's watermark.
		AckDelivered:  func() mcast.Timestamp { return r.maxDelivered },
		OnFollowerLag: r.onFollowerLag,
		Obs:           cfg.Obs,
		Recovered:     cfg.Recovered,
	}, fcApp{r})
	if err != nil {
		return nil, err
	}
	r.px = px
	if rs := cfg.Recovered; rs != nil && !rs.Empty() {
		// Rebuild the ordering state machine by replaying the recovered
		// log (as a follower: Apply neither sends nor drains), then mark
		// the already-delivered prefix — everything deliverable at or
		// below the recovered watermark — so a later leadership takeover
		// cannot hand those messages to the application again.
		r.maxDelivered = rs.MaxDelivered
		var discard node.Effects
		r.px.Replay(&discard)
		for {
			_, gts, ok := r.sm.Deliverable()
			if !ok || r.maxDelivered.Less(gts) {
				break
			}
			r.sm.Deliver()
		}
	}
	return r, nil
}

// ID implements node.Handler.
func (r *Replica) ID() mcast.ProcessID { return r.pid }

// Leading reports whether this replica currently leads its group.
func (r *Replica) Leading() bool { return r.px.Leading() }

// Machine exposes the replicated state machine (tests and tools).
func (r *Replica) Machine() *rsm.Machine { return r.sm }

// Ballot returns the established Paxos ballot (tests and tools).
func (r *Replica) Ballot() mcast.Ballot { return r.px.Ballot() }

// Executed returns the number of applied Paxos log slots (tests and tools).
func (r *Replica) Executed() uint64 { return r.px.Executed() }

// Handle implements node.Handler.
func (r *Replica) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Start:
		r.px.Start(fx)
	case node.Recv:
		if r.px.HandleMessage(in.From, in.Msg, fx) {
			return
		}
		switch m := in.Msg.(type) {
		case msgs.Multicast:
			r.onMulticast(m.M, fx)
		case msgs.Propose:
			r.onPropose(in.From, m, fx)
		case msgs.Confirm:
			r.onConfirm(in.From, m, fx)
		case msgs.Deliver:
			r.onDeliver(m, fx)
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

// onMulticast issues a tentative timestamp and launches both the
// persistence consensus and the speculative announcement in parallel.
func (r *Replica) onMulticast(app mcast.AppMsg, fx *node.Effects) {
	if !r.px.Leading() {
		return
	}
	// Clone once at the retention boundary; the owned copy is shared by
	// the app index and (below) the proposed command.
	app = app.Clone()
	r.apps[app.ID] = app
	if lts, ok := r.sm.LTS(app.ID); ok {
		// Already assigned durably: re-announce (message recovery).
		r.sendToLeaders(app.Dest, msgs.Propose{ID: app.ID, Group: r.group, LTS: lts}, fx)
		r.sendToLeaders(app.Dest, msgs.Confirm{ID: app.ID, Group: r.group, LTS: lts}, fx)
		return
	}
	if lts, ok := r.specPending[app.ID]; ok {
		// Consensus in flight: re-announce the tentative timestamp.
		r.sendToLeaders(app.Dest, msgs.Propose{ID: app.ID, Group: r.group, LTS: lts}, fx)
		return
	}
	if r.specTime < r.sm.Clock() {
		r.specTime = r.sm.Clock()
	}
	r.specTime++
	lts := mcast.Timestamp{Time: r.specTime, Group: r.group}
	r.specPending[app.ID] = lts
	if o := r.cfg.Obs; o != nil {
		at := r.stageAt(app.ID)
		o.Begin(app.ID, at)
		o.Stage(obs.StagePropose, app.ID, at) // tentative timestamp issued
	}
	r.px.Propose(msgs.Command{Op: msgs.CmdAssign, M: app, LTS: lts}, fx)
	r.sendToLeaders(app.Dest, msgs.Propose{ID: app.ID, Group: r.group, LTS: lts}, fx)
	r.armRetry(app.ID, fx)
}

// fcApp adapts Replica to paxos.App.
type fcApp struct{ r *Replica }

// Apply is invoked on every replica in slot order.
func (a fcApp) Apply(_ uint64, cmd msgs.Command, leading bool, fx *node.Effects) {
	r := a.r
	switch cmd.Op {
	case msgs.CmdAssign:
		lts, _ := r.sm.ApplyAssign(cmd.M, cmd.LTS)
		r.apps[cmd.M.ID] = cmd.M // owned by the Paxos log; immutable
		if o := r.cfg.Obs; o != nil {
			if at := r.stageAt(cmd.M.ID); *at == 0 {
				o.Begin(cmd.M.ID, at) // follower: first sight via the log
				o.Stage(obs.StagePropose, cmd.M.ID, at)
			}
		}
		if leading {
			delete(r.specPending, cmd.M.ID)
			// The timestamp is durable: confirm it to all destination
			// leaders (including ourselves, for uniformity).
			r.sendToLeaders(cmd.M.Dest, msgs.Confirm{ID: cmd.M.ID, Group: r.group, LTS: lts}, fx)
			// A command proposed by a deposed leader can apply here (via
			// log catch-up) after onLead ran: make sure someone re-drives
			// the message to completion — the client may already be gone
			// (it completes once every group replied, and replies come
			// from deliveries the old leader performed alone).
			r.armRetry(cmd.M.ID, fx)
			r.drain(fx)
		}
	case msgs.CmdCommit:
		if _, changed := r.sm.ApplyCommit(cmd.ID, cmd.LTSs); changed {
			if o := r.cfg.Obs; o != nil {
				o.Stage(obs.StageCommit, cmd.ID, r.stageAt(cmd.ID))
			}
		}
		if leading {
			// As above: this commit may postdate onLead; retry re-solicits
			// the PROPOSE/CONFIRM exchange until the message delivers.
			r.armRetry(cmd.ID, fx)
			r.drain(fx)
		}
	}
}

// onPropose collects (tentative) timestamps; a full set triggers the
// speculative clock advance and the commit consensus.
func (r *Replica) onPropose(from mcast.ProcessID, p msgs.Propose, fx *node.Effects) {
	if p.Group != r.group {
		r.remoteLeaders[p.Group] = from
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
	if _, proposed := r.commitVec[id]; proposed {
		return
	}
	app, ok := r.apps[id]
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
	if o := r.cfg.Obs; o != nil {
		o.Stage(obs.StageAccept, id, r.stageAt(id))
	}
	// Note: the clock advance past the expected global timestamp is part of
	// the CmdCommit command and becomes effective only when the second
	// consensus applies — per the paper (§VI), FastCast's durable clock
	// advances past GlobalTS[m] only after consensus₂, so its convoy window
	// is C = 4δ and its failure-free latency 8δ. Tentative timestamps for
	// new messages are drawn from the replicated clock (plus a uniqueness
	// counter), not from this speculative value.
	r.commitVec[id] = vec
	r.px.Propose(msgs.Command{Op: msgs.CmdCommit, ID: id, LTSs: vec}, fx)
}

// onConfirm records a consensus-decided timestamp. If the speculation used
// a different value, the commit is re-proposed with the corrected vector.
func (r *Replica) onConfirm(from mcast.ProcessID, c msgs.Confirm, fx *node.Effects) {
	if c.Group != r.group {
		r.remoteLeaders[c.Group] = from
	}
	if !r.px.Leading() {
		return
	}
	conf := r.confirms[c.ID]
	if conf == nil {
		conf = make(map[mcast.GroupID]mcast.Timestamp)
		r.confirms[c.ID] = conf
	}
	conf[c.Group] = c.LTS
	// A confirmed value supersedes any tentative proposal for that group.
	props := r.proposals[c.ID]
	if props == nil {
		props = make(map[mcast.GroupID]mcast.Timestamp)
		r.proposals[c.ID] = props
	}
	props[c.Group] = c.LTS
	r.correctSpeculation(c.ID, fx)
	r.maybeProposeCommit(c.ID, fx)
	r.drain(fx)
}

// correctSpeculation re-proposes the commit when the confirmed timestamps
// contradict the vector used speculatively (possible only across leader
// changes).
func (r *Replica) correctSpeculation(id mcast.MsgID, fx *node.Effects) {
	vec, proposed := r.commitVec[id]
	if !proposed {
		return
	}
	final, ok := r.confirmedVector(id)
	if !ok {
		return
	}
	if groupTSEqual(vec, final) {
		return
	}
	r.commitVec[id] = final
	r.px.Propose(msgs.Command{Op: msgs.CmdCommit, ID: id, LTSs: final}, fx)
}

func groupTSEqual(a, b []msgs.GroupTS) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// confirmedVector returns the full consensus-decided timestamp vector of id.
func (r *Replica) confirmedVector(id mcast.MsgID) ([]msgs.GroupTS, bool) {
	app, ok := r.apps[id]
	if !ok {
		return nil, false
	}
	conf := r.confirms[id]
	vec := make([]msgs.GroupTS, 0, len(app.Dest))
	for _, g := range app.Dest {
		lts, ok := conf[g]
		if !ok {
			return nil, false
		}
		vec = append(vec, msgs.GroupTS{Group: g, TS: lts})
	}
	sort.Slice(vec, func(i, j int) bool { return vec[i].Group < vec[j].Group })
	return vec, true
}

// drain delivers at the leader every message allowed out by the delivery
// rule whose commit is both durable (consensus₂ applied) and confirmed
// (consensus₁ decided the timestamps used), then replicates the deliveries
// to the followers with DELIVER messages.
func (r *Replica) drain(fx *node.Effects) {
	for {
		id, gts, ok := r.sm.Deliverable()
		if !ok {
			return
		}
		// Tentative timestamps issued but not yet applied are pending too:
		// a message whose tentative lts could end up below gts blocks
		// delivery exactly as a PROPOSED message does in Skeen's rule.
		for _, spec := range r.specPending {
			if !gts.Less(spec) {
				return
			}
		}
		final, ok := r.confirmedVector(id)
		if !ok {
			return // unconfirmed: wait for (or re-solicit) confirms
		}
		if msgs.MaxGroupTS(final) != gts {
			// The confirmed timestamps contradict the committed vector: the
			// commit was decided from a wrong speculation. Re-propose it
			// with the confirmed vector. correctSpeculation does this too,
			// but only for commits this leader proposed itself (commitVec
			// is soft state) — a leader elected after the bad commit must
			// correct it from here or the gate stays closed forever.
			if vec, proposed := r.commitVec[id]; !proposed || !groupTSEqual(vec, final) {
				r.commitVec[id] = final
				r.px.Propose(msgs.Command{Op: msgs.CmdCommit, ID: id, LTSs: final}, fx)
			}
			return
		}
		d, ok := r.sm.Deliver()
		if !ok {
			return
		}
		if r.maxDelivered.Less(d.GTS) {
			r.deliver(d, fx)
		}
		// else: the application saw this delivery before a restart (the
		// recovered watermark covers it); only re-replicate the decision.
		lts, _ := r.sm.LTS(id)
		fx.SendAll(r.peers, msgs.Deliver{ID: id, Bal: r.px.Ballot(), LTS: lts, GTS: d.GTS, Prev: r.lastDeliverGTS})
		r.lastDeliverGTS = d.GTS
	}
}

func (r *Replica) deliver(d mcast.Delivery, fx *node.Effects) {
	r.maxDelivered = d.GTS
	// The advanced watermark is durable before the application sees the
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

// onDeliver applies a replicated delivery decision at a follower.
func (r *Replica) onDeliver(d msgs.Deliver, fx *node.Effects) {
	if r.px.Leading() || d.Bal != r.px.Ballot() {
		return // stale leader's decision
	}
	if !r.maxDelivered.Less(d.GTS) {
		return // duplicate (re-delivery after a leader change)
	}
	if r.maxDelivered.Less(d.Prev) {
		// The chain predecessor was never delivered here: we missed a
		// DELIVER while down. Delivering now would open a gap in the
		// group's sequence; wait for the leader's heartbeat-ack replay
		// (onFollowerLag), which restarts the chain at our watermark.
		return
	}
	app, ok := r.sm.App(d.ID)
	if !ok {
		return // not yet caught up on the log; the replay will return
	}
	r.sm.MarkDelivered(d.ID)
	r.deliver(mcast.Delivery{Msg: app, GTS: d.GTS}, fx)
}

// retry re-drives a stuck message (lost PROPOSE/CONFIRM, remote leader
// change): re-announce our state and re-multicast to the other leaders.
func (r *Replica) retry(id mcast.MsgID, fx *node.Effects) {
	if !r.px.Leading() {
		return
	}
	app, ok := r.apps[id]
	if !ok {
		return
	}
	done := false
	if gts, committed := r.sm.GTS(id); committed {
		done = !r.maxDelivered.Less(gts) // delivered here
	}
	if done {
		delete(r.redrives, id)
		return
	}
	// The first rounds target the leader guesses; further rounds blanket
	// the whole destination groups — only the blanket is guaranteed to
	// reach whoever leads a remote group after an election.
	r.redrives[id]++
	r.cfg.Obs.MarkMsg(obs.EventRetransmit, id)
	if blanket := r.redrives[id] > 2; blanket {
		if lts, ok := r.sm.LTS(id); ok {
			fx.SendGroups(r.cfg.Top, app.Dest, msgs.Propose{ID: id, Group: r.group, LTS: lts})
			fx.SendGroups(r.cfg.Top, app.Dest, msgs.Confirm{ID: id, Group: r.group, LTS: lts})
		} else if lts, ok := r.specPending[id]; ok {
			fx.SendGroups(r.cfg.Top, app.Dest, msgs.Propose{ID: id, Group: r.group, LTS: lts})
		}
		for _, g := range app.Dest {
			if g != r.group {
				fx.SendAll(r.cfg.Top.Members(g), msgs.Multicast{M: app})
			}
		}
		r.armRetry(id, fx)
		return
	}
	if lts, ok := r.sm.LTS(id); ok {
		r.sendToLeaders(app.Dest, msgs.Propose{ID: id, Group: r.group, LTS: lts}, fx)
		r.sendToLeaders(app.Dest, msgs.Confirm{ID: id, Group: r.group, LTS: lts}, fx)
	} else if lts, ok := r.specPending[id]; ok {
		r.sendToLeaders(app.Dest, msgs.Propose{ID: id, Group: r.group, LTS: lts}, fx)
	}
	for _, g := range app.Dest {
		if g != r.group {
			fx.Send(r.curLeaderOf(g), msgs.Multicast{M: app})
		}
	}
	r.armRetry(id, fx)
}

func (r *Replica) armRetry(id mcast.MsgID, fx *node.Effects) {
	if r.cfg.RetryInterval > 0 {
		fx.SetTimer(r.cfg.RetryInterval, node.TimerRetry, uint64(id))
	}
}

// sendToLeaders sends m to the current leader guess of every destination
// group (self included via a zero-latency self-send, for uniformity).
func (r *Replica) sendToLeaders(dest mcast.GroupSet, m msgs.Message, fx *node.Effects) {
	for _, g := range dest {
		if g == r.group {
			fx.Send(r.pid, m)
		} else {
			fx.Send(r.curLeaderOf(g), m)
		}
	}
}

// onLead re-drives in-flight work after a leadership change.
func (r *Replica) onLead(fx *node.Effects) {
	r.specTime = r.sm.Clock()
	clear(r.specPending)
	clear(r.commitVec)
	// Re-announce every assigned-but-undelivered message; remote leaders
	// answer with their PROPOSE/CONFIRM, rebuilding the soft state.
	redo := append(r.sm.Pending(), r.sm.CommittedUndelivered()...)
	for _, id := range redo {
		app, ok := r.sm.App(id)
		if !ok {
			continue
		}
		r.apps[id] = app
		if lts, ok := r.sm.LTS(id); ok {
			r.sendToLeaders(app.Dest, msgs.Propose{ID: id, Group: r.group, LTS: lts}, fx)
			r.sendToLeaders(app.Dest, msgs.Confirm{ID: id, Group: r.group, LTS: lts}, fx)
			for _, g := range app.Dest {
				if g != r.group {
					fx.Send(r.curLeaderOf(g), msgs.Multicast{M: app})
				}
			}
		}
		r.armRetry(id, fx)
	}
	// Re-replicate deliveries this replica performed before taking over so
	// lagging followers catch up (they suppress duplicates). The DELIVER
	// chain restarts at ⊥ and re-threads the whole delivered prefix —
	// FastCast keeps delivered state forever, so the chain covers every
	// message any follower could be missing.
	r.lastDeliverGTS = mcast.ZeroTS
	for _, id := range r.sm.Delivered() {
		gts, _ := r.sm.GTS(id)
		lts, _ := r.sm.LTS(id)
		fx.SendAll(r.peers, msgs.Deliver{ID: id, Bal: r.px.Ballot(), LTS: lts, GTS: gts, Prev: r.lastDeliverGTS})
		r.lastDeliverGTS = gts
	}
}

// catchupDeliveries caps how many missed deliveries one heartbeat ack
// replays to a lagging follower.
const catchupDeliveries = 64

// onFollowerLag replays the DELIVER sequence above a stalled follower's
// watermark, chained from that watermark so the follower's gap check
// accepts the replay. A follower is stalled when its reported watermark
// both trails the leader's and failed to advance since its previous ack;
// this keeps the replay (and its delivered-set scan) off the fault-free
// path. The application messages themselves reach the follower through
// the Paxos log catch-up (Learn re-sends); a DELIVER that outruns it is
// dropped there and replayed on a later ack.
func (r *Replica) onFollowerLag(from mcast.ProcessID, wm mcast.Timestamp, fx *node.Effects) {
	last, seen := r.lastAckWM[from]
	r.lastAckWM[from] = wm
	if !wm.Less(r.maxDelivered) || !seen || last != wm {
		return
	}
	prev := wm
	n := 0
	for _, id := range r.sm.Delivered() { // ascending GTS
		gts, _ := r.sm.GTS(id)
		if !wm.Less(gts) {
			continue
		}
		if n++; n > catchupDeliveries {
			break
		}
		lts, _ := r.sm.LTS(id)
		fx.Send(from, msgs.Deliver{ID: id, Bal: r.px.Ballot(), LTS: lts, GTS: gts, Prev: prev})
		prev = gts
	}
	if n > 0 {
		r.cfg.Obs.Mark(obs.EventCatchup, fmt.Sprintf("to=p%d n=%d", from, n))
	}
}

// curLeaderOf tracks remote leadership; FastCast learns it from observed
// traffic and falls back to the initial leader.
func (r *Replica) curLeaderOf(g mcast.GroupID) mcast.ProcessID {
	if p, ok := r.remoteLeaders[g]; ok {
		return p
	}
	return r.cfg.Top.InitialLeader(g)
}

var _ node.Handler = (*Replica)(nil)
