package wbcast

import (
	"context"
	"fmt"
	"sync"

	"wbcast/internal/batch"
	"wbcast/internal/client"
	"wbcast/internal/mcast"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/protocol"
)

// Client multicasts application messages to the groups of a deployment.
// Safe for concurrent use; each Multicast blocks until every destination
// group has delivered the message (at its first replica) or the context
// expires.
//
// Clients are ordinary processes of the deployment: on the TCP transport a
// client runs its own node (replicas send delivery replies back to it), so
// its process ID must appear in the transport's peer address map.
type Client struct {
	top *mcast.Topology
	tr  Transport
	pid ProcessID
	h   node.Handler
	reg *obs.Registry // nil when Observability.Disabled

	mu      sync.Mutex
	seq     uint32
	waiters map[MsgID]chan struct{}
}

// NewClient builds and starts a client with the given process ID on
// cfg.Transport. pid must not collide with a replica slot of the topology
// (replicas occupy 0..Groups×Replicas-1). Cluster.NewClient does the same
// with automatic ID assignment.
func NewClient(cfg Config, pid ProcessID) (*Client, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	top := mcast.UniformTopology(cfg.Groups, cfg.Replicas)
	if err := cfg.Transport.open(&cfg); err != nil {
		return nil, err
	}
	return newClientOn(cfg, top, pid)
}

// newClientOn wires a client into an already-opened transport; cfg is
// normalised.
func newClientOn(cfg Config, top *mcast.Topology, pid ProcessID) (*Client, error) {
	if top.IsReplica(pid) {
		return nil, fmt.Errorf("wbcast: client ID %d collides with a replica of the %d×%d topology", pid, cfg.Groups, cfg.Replicas)
	}
	cl := &Client{top: top, tr: cfg.Transport, pid: pid, waiters: make(map[MsgID]chan struct{})}
	var co *obs.Client
	if cfg.obsOn() {
		cl.reg = obs.NewRegistry(fmt.Sprintf(`proc="%d"`, pid))
		co = obs.NewClient(cl.reg, cfg.clock, cfg.tracer, pid)
	}
	var opts *batch.Options
	if cfg.Batching != nil {
		o := cfg.Batching.options()
		opts = &o
	}
	retry := 50 * cfg.Delta
	if !cfg.Transport.backgroundTimers() {
		// The plain simulated transport pumps submissions to quiescence;
		// a retry timer would re-arm forever and keep it from quiescing.
		// (In chaos mode timers stay on — retries are the client-side
		// recovery path for faulted messages.)
		retry = 0
	}
	cl.h = batch.NewHandler(client.Config{
		PID:           pid,
		Contacts:      protocol.Contacts(top),
		RetryContacts: func(g GroupID) []ProcessID { return top.Members(g) },
		Retry:         retry,
		OnComplete:    cl.complete,
		Obs:           co,
	}, opts)
	if err := cfg.Transport.add(cl.h, hostOptions{reg: cl.reg}); err != nil {
		return nil, err
	}
	return cl, nil
}

// ID returns the client's process ID (the sender of its messages).
func (cl *Client) ID() ProcessID { return cl.pid }

// BatchesSent returns how many protocol-level batch envelopes the client
// has flushed, or 0 when batching is disabled. Throughput reporters divide
// payloads by batches to obtain the achieved mean batch size.
func (cl *Client) BatchesSent() int64 {
	if bc, ok := cl.h.(*batch.Client); ok {
		return bc.BatchesSent()
	}
	return 0
}

// Metrics returns a snapshot of the client's metrics: the end-to-end
// submit-to-complete latency histogram, retry counts and (when batching is
// enabled) the flush-trigger breakdown. Empty when Observability.Disabled
// is set.
func (cl *Client) Metrics() MetricsSnapshot { return cl.reg.Snapshot() }

// Close crash-stops the client's process on its transport. In-flight
// multicasts never complete (their contexts expire); messages already
// handed to the protocol may still be delivered.
func (cl *Client) Close() { cl.tr.crash(cl.pid) }

// Multicast sends payload to the given destination groups and waits until
// every destination group has delivered it. It returns the message ID,
// which appears in the Delivery records observed via subscriptions.
func (cl *Client) Multicast(ctx context.Context, payload []byte, groups ...GroupID) (MsgID, error) {
	id, done, err := cl.MulticastAsync(payload, groups...)
	if err != nil {
		return id, err
	}
	select {
	case <-done:
		return id, nil
	case <-ctx.Done():
		cl.mu.Lock()
		delete(cl.waiters, id)
		cl.mu.Unlock()
		return id, ctx.Err()
	}
}

// MulticastAsync sends payload to the given destination groups and returns
// immediately; the returned channel is closed once every destination group
// has delivered the message.
func (cl *Client) MulticastAsync(payload []byte, groups ...GroupID) (MsgID, <-chan struct{}, error) {
	if len(groups) == 0 {
		return 0, nil, fmt.Errorf("wbcast: no destination groups")
	}
	dest := NewGroupSet(groups...)
	for _, g := range dest {
		if int(g) < 0 || int(g) >= cl.top.NumGroups() {
			return 0, nil, fmt.Errorf("wbcast: unknown group %d", g)
		}
	}
	cl.mu.Lock()
	cl.seq++
	id := mcast.MakeMsgID(cl.pid, cl.seq)
	done := make(chan struct{})
	cl.waiters[id] = done
	cl.mu.Unlock()

	pl := make([]byte, len(payload))
	copy(pl, payload)
	m := AppMsg{ID: id, Dest: dest, Payload: pl}
	if err := cl.tr.inject(cl.pid, node.Submit{Msg: m}); err != nil {
		cl.mu.Lock()
		delete(cl.waiters, id)
		cl.mu.Unlock()
		return id, nil, err
	}
	return id, done, nil
}

// complete runs on the client process goroutine when all groups replied.
func (cl *Client) complete(id mcast.MsgID) {
	cl.mu.Lock()
	done, ok := cl.waiters[id]
	delete(cl.waiters, id)
	cl.mu.Unlock()
	if ok {
		close(done)
	}
}
