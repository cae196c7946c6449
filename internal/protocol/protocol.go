package protocol

import (
	"fmt"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/fastcast"
	"wbcast/internal/ftskeen"
	"wbcast/internal/mcast"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/skeen"
	"wbcast/internal/wal"
)

// Kind selects the multicast protocol.
type Kind int

// The five protocols.
const (
	// WhiteBox is the paper's protocol: 3δ collision-free, 5δ failure-free.
	WhiteBox Kind = iota + 1
	// FastCast is the baseline of Coelho et al.: 4δ / 8δ.
	FastCast
	// FTSkeen is the classical black-box baseline: 6δ / 12δ.
	FTSkeen
	// Skeen is the original non-fault-tolerant protocol (2δ / 4δ). It
	// requires singleton groups and ignores timing, instrumentation and
	// recovered state.
	Skeen
	// Genmcast is WhiteBox in conflict-aware delivery mode (generic
	// multicast): only messages that conflict under Config.Conflicts are
	// mutually ordered.
	Genmcast
)

var names = [...]string{WhiteBox: "wbcast", FastCast: "fastcast", FTSkeen: "ftskeen", Skeen: "skeen", Genmcast: "genmcast"}

// String returns the protocol's canonical name, accepted by Parse.
func (k Kind) String() string {
	if k >= WhiteBox && k <= Genmcast {
		return names[k]
	}
	return fmt.Sprintf("Protocol(%d)", int(k))
}

// Parse resolves a protocol name, as printed by Kind.String.
func Parse(name string) (Kind, error) {
	for k := WhiteBox; k <= Genmcast; k++ {
		if names[k] == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q (want wbcast, fastcast, ftskeen, skeen or genmcast)", name)
}

// Timing holds a replica's background timer periods. A zero field turns the
// corresponding machinery off, which is what a simulation that must
// quiesce wants.
type Timing struct {
	// Retry re-drives messages stuck before delivery.
	Retry time.Duration
	// Heartbeat is the leader's heartbeat period; zero also disables
	// failure detection and leader election.
	Heartbeat time.Duration
	// Suspect is how long a follower waits without a heartbeat before it
	// starts a leader recovery.
	Suspect time.Duration
	// GC is the garbage-collection period of delivered messages (WhiteBox
	// only; the other protocols keep delivered state).
	GC time.Duration
}

// DefaultTiming derives the timer periods from the expected one-way network
// delay delta: retries after 20δ, heartbeats every 10δ, suspicion after 40δ
// and GC every 50δ.
func DefaultTiming(delta time.Duration) Timing {
	return Timing{Retry: 20 * delta, Heartbeat: 10 * delta, Suspect: 40 * delta, GC: 50 * delta}
}

// Config parametrises one replica.
type Config struct {
	Kind Kind
	// PID is the replica's process; it must belong to a group of Top.
	PID mcast.ProcessID
	Top *mcast.Topology
	// Timing sets the background timers; the zero value turns them off.
	Timing Timing
	// Obs is the replica's instrumentation handle; nil disables metrics
	// and tracing.
	Obs *obs.Proto
	// Recovered, when non-nil, makes the replica durable: it emits a
	// persist effect for every crash-surviving state transition, and it
	// replays Recovered (the folded state of its store) before joining. A
	// cold store passes an empty state.
	Recovered *wal.State
	// Conflicts is the conflict relation of a Genmcast replica, shared by
	// every replica of the deployment; nil means every pair conflicts. The
	// other protocols ignore it.
	Conflicts *mcast.ConflictHolder
	// AppGCHorizon gates WhiteBox garbage collection on the application
	// durability horizon (core.Config.AppGCHorizon).
	AppGCHorizon bool
	// ColdStart starts every replica as a follower without an established
	// leader.
	ColdStart bool
}

// New builds the handler of replica c.PID.
func New(c Config) (node.Handler, error) {
	t := c.Timing
	switch c.Kind {
	case WhiteBox, Genmcast:
		rc := core.Config{
			PID: c.PID, Top: c.Top,
			RetryInterval:     t.Retry,
			HeartbeatInterval: t.Heartbeat,
			SuspectTimeout:    t.Suspect,
			GCInterval:        t.GC,
			ColdStart:         c.ColdStart,
			Obs:               c.Obs,
			Recovered:         c.Recovered,
			AppGCHorizon:      c.AppGCHorizon,
		}
		if c.Kind == Genmcast {
			rc.Conflicts = c.Conflicts
			if rc.Conflicts == nil {
				rc.Conflicts = mcast.NewConflictHolder(nil)
			}
		}
		return core.NewReplica(rc)
	case FastCast:
		return fastcast.New(fastcast.Config{
			PID: c.PID, Top: c.Top,
			RetryInterval:     t.Retry,
			HeartbeatInterval: t.Heartbeat,
			SuspectTimeout:    t.Suspect,
			ColdStart:         c.ColdStart,
			Obs:               c.Obs,
			Recovered:         c.Recovered,
		})
	case FTSkeen:
		return ftskeen.New(ftskeen.Config{
			PID: c.PID, Top: c.Top,
			RetryInterval:     t.Retry,
			HeartbeatInterval: t.Heartbeat,
			SuspectTimeout:    t.Suspect,
			ColdStart:         c.ColdStart,
			Obs:               c.Obs,
			Recovered:         c.Recovered,
		})
	case Skeen:
		return skeen.New(c.PID, c.Top)
	default:
		return nil, fmt.Errorf("protocol: unknown protocol %v", c.Kind)
	}
}

// Contacts returns the processes a client sends MULTICAST to: each group's
// initial leader, the Cur_leader guess of Fig. 4 line 2. For Skeen's
// singleton groups that is the group's only member.
func Contacts(top *mcast.Topology) func(g mcast.GroupID) []mcast.ProcessID {
	return func(g mcast.GroupID) []mcast.ProcessID {
		return []mcast.ProcessID{top.InitialLeader(g)}
	}
}
