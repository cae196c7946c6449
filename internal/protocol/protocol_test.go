package protocol_test

import (
	"slices"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/protocol"
	"wbcast/internal/wal"
)

// TestKinds checks, for every protocol, the name round trip, construction
// under both timings, and that durability follows Recovered exactly.
func TestKinds(t *testing.T) {
	const d = 3 * time.Millisecond
	want := protocol.Timing{Retry: 20 * d, Heartbeat: 10 * d, Suspect: 40 * d, GC: 50 * d}
	if got := protocol.DefaultTiming(d); got != want {
		t.Errorf("DefaultTiming(%v) = %+v, want %+v", d, got, want)
	}
	for _, bad := range []string{"", "WBCAST", "paxos"} {
		if _, err := protocol.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	if s := protocol.Kind(99).String(); s != "Protocol(99)" {
		t.Errorf("Kind(99).String() = %q", s)
	}
	for _, tc := range []struct {
		kind     protocol.Kind
		name     string
		replicas int
		// durable: the protocol emits persist effects when built over a
		// recovered state (Skeen keeps no durable state).
		durable bool
	}{
		{protocol.WhiteBox, "wbcast", 3, true},
		{protocol.FastCast, "fastcast", 3, true},
		{protocol.FTSkeen, "ftskeen", 3, true},
		{protocol.Skeen, "skeen", 1, false},
		{protocol.Genmcast, "genmcast", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.kind.String(); got != tc.name {
				t.Errorf("String() = %q, want %q", got, tc.name)
			}
			if got, err := protocol.Parse(tc.name); err != nil || got != tc.kind {
				t.Errorf("Parse(%q) = %v, %v", tc.name, got, err)
			}
			top := mcast.UniformTopology(2, tc.replicas)
			for _, timing := range []protocol.Timing{{}, protocol.DefaultTiming(time.Millisecond)} {
				for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
					h, err := protocol.New(protocol.Config{Kind: tc.kind, PID: pid, Top: top, Timing: timing})
					if err != nil {
						t.Fatalf("New(pid %d, %+v): %v", pid, timing, err)
					}
					if h.ID() != pid {
						t.Errorf("ID() = %d, want %d", h.ID(), pid)
					}
				}
			}
			for _, rs := range []*wal.State{nil, wal.NewState()} {
				persists := firstProposalPersists(t, protocol.Config{Kind: tc.kind, Top: top, Recovered: rs})
				if want := tc.durable && rs != nil; (persists > 0) != want {
					t.Errorf("Recovered=%v: %d persist effects on the first proposal, want any=%v", rs != nil, persists, want)
				}
			}
		})
	}
}

// firstProposalPersists builds group 0's initial leader from cfg, hands it
// one multicast to group 0, lets it process its own self-addressed
// messages (the white-box leader accepts its proposal through a self-sent
// ACCEPT) and returns how many persist effects it emits.
func firstProposalPersists(t *testing.T, cfg protocol.Config) int {
	t.Helper()
	cfg.PID = cfg.Top.InitialLeader(0)
	h, err := protocol.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Handle(node.Start{}, &node.Effects{})
	client := mcast.ProcessID(cfg.Top.NumReplicas())
	m := mcast.AppMsg{ID: mcast.MakeMsgID(client, 1), Dest: mcast.NewGroupSet(0), Payload: []byte("m")}
	inbox := []node.Input{node.Recv{From: client, Msg: msgs.Multicast{M: m}}}
	persists, sends := 0, 0
	for len(inbox) > 0 {
		var fx node.Effects
		h.Handle(inbox[0], &fx)
		inbox = inbox[1:]
		persists += len(fx.Persists)
		sends += len(fx.Sends)
		for _, s := range fx.Sends {
			if s.To == cfg.PID && s.Tos == nil || slices.Contains(s.Tos, cfg.PID) {
				inbox = append(inbox, node.Recv{From: cfg.PID, Msg: s.Msg})
			}
		}
	}
	if sends == 0 {
		t.Fatalf("%v leader did not act on its first multicast", cfg.Kind)
	}
	return persists
}
