package tcpnet_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/client"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/protocol"
	"wbcast/internal/tcpnet"
)

// TestWhiteBoxOverTCP runs a full white-box cluster (2 groups × 3 replicas)
// plus one client as seven real TCP servers on loopback, multicasts
// messages and verifies delivery counts and per-group agreement.
func TestWhiteBoxOverTCP(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	const clientPID = mcast.ProcessID(6)

	var nodes []*tcpnet.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	var mu sync.Mutex
	delivered := make(map[mcast.ProcessID][]mcast.Delivery)

	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := protocol.New(protocol.Config{Kind: protocol.WhiteBox, PID: pid, Top: top, Timing: protocol.DefaultTiming(2 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		p := pid
		n, err := tcpnet.Serve(tcpnet.Config{
			PID:        pid,
			ListenAddr: "127.0.0.1:0",
			Handler:    r,
			OnDeliver: func(d mcast.Delivery) {
				mu.Lock()
				delivered[p] = append(delivered[p], d)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}

	const numMsgs = 20
	done := make(chan mcast.MsgID, numMsgs)
	cl := client.New(client.Config{
		PID: clientPID,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID {
			return []mcast.ProcessID{top.InitialLeader(g)}
		},
		Retry:         300 * time.Millisecond,
		RetryContacts: func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) },
		OnComplete:    func(id mcast.MsgID) { done <- id },
	})
	cn, err := tcpnet.Serve(tcpnet.Config{
		PID:        clientPID,
		ListenAddr: "127.0.0.1:0",
		Handler:    cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, cn)
	// Nodes listened on port 0; distribute the bound addresses through the
	// race-free SetPeer registration (peers are dialled lazily, so the
	// book just has to be complete before traffic flows).
	sharePeerAddrs(nodes, clientPID)

	dests := []mcast.GroupSet{mcast.NewGroupSet(0), mcast.NewGroupSet(1), mcast.NewGroupSet(0, 1)}
	for i := 0; i < numMsgs; i++ {
		m := mcast.AppMsg{
			ID:      mcast.MakeMsgID(clientPID, uint32(i+1)),
			Dest:    dests[i%3],
			Payload: []byte(fmt.Sprintf("tcp-%d", i)),
		}
		if err := cn.Inject(node.Submit{Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < numMsgs; i++ {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out after %d completions", i)
		}
	}
	time.Sleep(200 * time.Millisecond) // let followers drain

	mu.Lock()
	defer mu.Unlock()
	for g := mcast.GroupID(0); g < 2; g++ {
		members := top.Members(g)
		ref := delivered[members[0]]
		if len(ref) == 0 {
			t.Fatalf("group %d leader delivered nothing", g)
		}
		for _, p := range members[1:] {
			got := delivered[p]
			if len(got) != len(ref) {
				t.Errorf("group %d: replica %d delivered %d, leader %d", g, p, len(got), len(ref))
				continue
			}
			for i := range ref {
				if got[i].Msg.ID != ref[i].Msg.ID {
					t.Errorf("group %d: replica %d diverges at %d", g, p, i)
					break
				}
			}
		}
	}
}

// TestMultiShardAckBatchOverTCP runs a two-shard node (pids 1 and 2) and a
// single-shard driver (pid 3) over real TCP, covering the full pipelined
// ordering path: a multi-destination frame fans into both hosted shards
// off one wire frame, a shard-to-shard send bypasses the wire, and the
// acks flowing back to the driver ride AckBatch frames that the driver's
// read loop expands back into per-link-FIFO Recv inputs.
func TestMultiShardAckBatchOverTCP(t *testing.T) {
	const numPings = 200

	var mu sync.Mutex
	var shard2From []mcast.ProcessID // senders shard 2 saw
	var ackOrder []uint64            // Delivered.Time of acks at the driver
	ackDone := make(chan struct{})

	// Shard 1: forward every heartbeat to co-hosted shard 2 and ack the
	// driver with the heartbeat's ballot number echoed in Delivered.Time.
	shard1 := node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
		rcv, ok := in.(node.Recv)
		if !ok {
			return
		}
		hb, ok := rcv.Msg.(msgs.Heartbeat)
		if !ok {
			return
		}
		fx.Send(2, hb)
		fx.Send(rcv.From, msgs.HeartbeatAck{
			Group: hb.Group, Bal: hb.Bal,
			Delivered: mcast.Timestamp{Time: hb.Bal.N},
		})
	}}
	shard2 := node.Func{PID: 2, F: func(in node.Input, fx *node.Effects) {
		if rcv, ok := in.(node.Recv); ok {
			mu.Lock()
			shard2From = append(shard2From, rcv.From)
			mu.Unlock()
		}
	}}
	host, err := tcpnet.Serve(tcpnet.Config{
		ListenAddr: "127.0.0.1:0",
		Shards:     []tcpnet.ShardConfig{{Handler: shard1}, {Handler: shard2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	driver := node.Func{PID: 3, F: func(in node.Input, fx *node.Effects) {
		switch in := in.(type) {
		case node.Submit:
			for i := 0; i < numPings; i++ {
				fx.Send(1, msgs.Heartbeat{Group: 0, Bal: mcast.Ballot{N: uint64(i), Proc: 3}})
			}
			// One multi-destination fan-out: both hosted shards share an
			// address, so this is a single ndests=2 frame on the wire.
			fx.SendAll([]mcast.ProcessID{1, 2}, msgs.Heartbeat{Group: 7, Bal: mcast.Ballot{N: numPings, Proc: 3}})
		case node.Recv:
			if ack, ok := in.Msg.(msgs.HeartbeatAck); ok {
				mu.Lock()
				ackOrder = append(ackOrder, ack.Delivered.Time)
				if len(ackOrder) == numPings+1 {
					close(ackDone)
				}
				mu.Unlock()
			}
		}
	}}
	dn, err := tcpnet.Serve(tcpnet.Config{PID: 3, ListenAddr: "127.0.0.1:0", Handler: driver})
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Close()

	hostAddr := host.Addr().String()
	dn.SetPeer(1, hostAddr)
	dn.SetPeer(2, hostAddr)
	host.SetPeer(3, dn.Addr().String())

	if err := dn.Inject(node.Submit{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ackDone:
	case <-time.After(20 * time.Second):
		mu.Lock()
		n := len(ackOrder)
		mu.Unlock()
		t.Fatalf("timed out after %d of %d acks", n, numPings+1)
	}

	mu.Lock()
	defer mu.Unlock()
	// Per-link FIFO through ack batching: the driver must see the acks in
	// exactly the order shard 1 issued them.
	for i, got := range ackOrder {
		if got != uint64(i) {
			t.Fatalf("ack %d carries Delivered.Time %d; ack batching broke per-link FIFO", i, got)
		}
	}
	// Shard 2 saw every forwarded heartbeat from co-hosted shard 1 plus
	// the driver's direct multi-destination one.
	var from1, from3 int
	for _, f := range shard2From {
		switch f {
		case 1:
			from1++
		case 3:
			from3++
		}
	}
	if from1 != numPings+1 || from3 != 1 {
		t.Fatalf("shard 2 saw %d from shard 1 and %d from the driver, want %d and 1",
			from1, from3, numPings+1)
	}
	// The driver's acks arrived batched: strictly fewer ack frames than
	// acks would be flaky to assert under arbitrary scheduling, but the
	// host must have encoded at most one frame per ack plus the forwards.
	if st := host.Stats(); st.MessagesEncoded > numPings+2 {
		t.Errorf("host encoded %d messages for %d acks; batching regressed badly", st.MessagesEncoded, numPings+1)
	}
}

// sharePeerAddrs registers every node's bound address with every other
// node. Node i < len(nodes)-1 is replica i; the last node is the client.
func sharePeerAddrs(nodes []*tcpnet.Node, clientPID mcast.ProcessID) {
	pidOf := func(i int) mcast.ProcessID {
		if i == len(nodes)-1 {
			return clientPID
		}
		return mcast.ProcessID(i)
	}
	for i, n := range nodes {
		for j, m := range nodes {
			if i != j {
				n.SetPeer(pidOf(j), m.Addr().String())
			}
		}
	}
}

// TestBatchedClientOverTCP runs a white-box cluster over real TCP with a
// batching client: batch envelopes must survive the wire (frame encoding,
// write coalescing) and unpack into per-payload deliveries in submission
// order at every replica.
func TestBatchedClientOverTCP(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	const clientPID = mcast.ProcessID(6)

	var nodes []*tcpnet.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	var mu sync.Mutex
	delivered := make(map[mcast.ProcessID][]mcast.Delivery)

	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := protocol.New(protocol.Config{Kind: protocol.WhiteBox, PID: pid, Top: top, Timing: protocol.DefaultTiming(2 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		p := pid
		n, err := tcpnet.Serve(tcpnet.Config{
			PID:        pid,
			ListenAddr: "127.0.0.1:0",
			Handler:    r,
			OnDeliver: func(d mcast.Delivery) {
				mu.Lock()
				delivered[p] = append(delivered[p], d)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}

	const numMsgs = 24
	done := make(chan mcast.MsgID, numMsgs)
	cl := batch.New(batch.Config{
		PID: clientPID,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID {
			return []mcast.ProcessID{top.InitialLeader(g)}
		},
		Retry:         300 * time.Millisecond,
		RetryContacts: func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) },
		OnComplete:    func(id mcast.MsgID) { done <- id },
		Options:       batch.Options{MaxMsgs: 8, MaxDelay: 2 * time.Millisecond},
	})
	cn, err := tcpnet.Serve(tcpnet.Config{
		PID:        clientPID,
		ListenAddr: "127.0.0.1:0",
		Handler:    cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, cn)
	sharePeerAddrs(nodes, clientPID)

	want := make([]mcast.MsgID, numMsgs)
	for i := 0; i < numMsgs; i++ {
		m := mcast.AppMsg{
			ID:      mcast.MakeMsgID(clientPID, uint32(i+1)),
			Dest:    mcast.NewGroupSet(0, 1),
			Payload: []byte(fmt.Sprintf("tcp-batched-%d", i)),
		}
		want[i] = m.ID
		if err := cn.Inject(node.Submit{Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	completed := make(map[mcast.MsgID]bool)
	for i := 0; i < numMsgs; i++ {
		select {
		case id := <-done:
			completed[id] = true
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out after %d completions", i)
		}
	}
	for _, id := range want {
		if !completed[id] {
			t.Errorf("payload %v never completed", id)
		}
	}
	time.Sleep(200 * time.Millisecond) // let followers drain

	mu.Lock()
	defer mu.Unlock()
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		ds := delivered[pid]
		if len(ds) != numMsgs {
			t.Fatalf("replica %d delivered %d payloads, want %d", pid, len(ds), numMsgs)
		}
		for i, d := range ds {
			if batch.IsBatchID(d.Msg.ID) {
				t.Fatalf("replica %d surfaced a raw batch envelope %v", pid, d.Msg.ID)
			}
			if d.Msg.ID != want[i] {
				t.Errorf("replica %d: delivery %d = %v, want %v (submission order)", pid, i, d.Msg.ID, want[i])
			}
			if i > 0 && !ds[i-1].Before(d) {
				t.Errorf("replica %d: delivery %d not above predecessor in (GTS, Sub)", pid, i)
			}
		}
	}
}
