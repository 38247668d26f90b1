package transport

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"sealedbottle/internal/broker"
)

// fakeReplica records what the server dispatched to it.
type fakeReplica struct {
	mu       sync.Mutex
	hints    map[string][]broker.HandoffRecord
	applied  []broker.HandoffRecord
	peers    map[string]string
	hintErr  error
	statsVal broker.ReplicationStats
}

func newFakeReplica() *fakeReplica {
	return &fakeReplica{hints: make(map[string][]broker.HandoffRecord), peers: make(map[string]string)}
}

func (f *fakeReplica) Hint(_ context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hintErr != nil {
		return 0, f.hintErr
	}
	f.hints[dest] = append(f.hints[dest], recs...)
	return len(recs), nil
}

func (f *fakeReplica) Handoff(_ context.Context, recs []broker.HandoffRecord) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied = append(f.applied, recs...)
	return len(recs), nil
}

func (f *fakeReplica) SetPeer(name, addr string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peers[name] = addr
	return nil
}

func (f *fakeReplica) RemovePeer(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.peers, name)
	return nil
}

func (f *fakeReplica) Peers() map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]string, len(f.peers))
	for k, v := range f.peers {
		out[k] = v
	}
	return out
}

func (f *fakeReplica) ReplicaStats() broker.ReplicationStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statsVal
}

// exerciseReplication drives the replication opcodes through a Mux against a
// server wrapping the fake handler.
func exerciseReplication(t *testing.T, c *Mux, f *fakeReplica) {
	t.Helper()
	ctx := context.Background()
	recs := []broker.HandoffRecord{
		{Type: broker.RecSubmit, Payload: []byte{1, 2, 3}},
		{Type: broker.RecRemove, Payload: []byte("req-1")},
	}
	n, err := c.Hint(ctx, "rack-2", recs)
	if err != nil || n != 2 {
		t.Fatalf("Hint = %d, %v; want 2 accepted", n, err)
	}
	f.mu.Lock()
	queued := f.hints["rack-2"]
	f.mu.Unlock()
	if len(queued) != 2 || queued[0].Type != broker.RecSubmit || string(queued[1].Payload) != "req-1" {
		t.Fatalf("server-side hint queue = %+v", queued)
	}

	n, err = c.Handoff(ctx, recs[:1])
	if err != nil || n != 1 {
		t.Fatalf("Handoff = %d, %v; want 1 applied", n, err)
	}

	peers, err := c.SetPeer(ctx, "rack-1", "127.0.0.1:7117")
	if err != nil || peers["rack-1"] != "127.0.0.1:7117" {
		t.Fatalf("SetPeer = %v, %v", peers, err)
	}
	peers, err = c.Peers(ctx)
	if err != nil || !reflect.DeepEqual(peers, map[string]string{"rack-1": "127.0.0.1:7117"}) {
		t.Fatalf("Peers = %v, %v", peers, err)
	}
	peers, err = c.RemovePeer(ctx, "rack-1")
	if err != nil || len(peers) != 0 {
		t.Fatalf("RemovePeer = %v, %v; want empty table", peers, err)
	}

	// OpStats folds the handler's counters into the rack's.
	f.mu.Lock()
	f.statsVal = broker.ReplicationStats{HintsQueued: 7, HandoffApplied: 3}
	f.mu.Unlock()
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.HintsQueued != 7 || st.Replication.HandoffApplied != 3 {
		t.Fatalf("Stats replication tail = %+v, want handler counters folded in", st.Replication)
	}

	// A handler error surfaces as a remote error, not a transport fault.
	f.mu.Lock()
	f.hintErr = errors.New("queue full")
	f.mu.Unlock()
	var remote *RemoteError
	if _, err := c.Hint(ctx, "rack-2", recs); !errors.As(err, &remote) {
		t.Fatalf("Hint with failing handler = %v, want *RemoteError", err)
	}
	f.mu.Lock()
	f.hintErr = nil
	f.mu.Unlock()
}

func TestReplicationOpcodesMux(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	f := newFakeReplica()
	l := ListenPipe()
	srv := NewServer(rack, ServerOptions{Replica: f})
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	exerciseReplication(t, m, f)
}

// TestReplicationDisabled pins the plain-rack behaviour: a server without a
// ReplicaHandler answers every replication opcode with a remote error and
// keeps serving the base protocol on the same connection.
func TestReplicationDisabled(t *testing.T) {
	rack := broker.New(broker.Config{Shards: 2, ReapInterval: -1})
	defer rack.Close()
	l := ListenPipe()
	srv := NewServer(rack)
	go srv.Serve(l)
	defer func() { l.Close(); srv.Close() }()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMux(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	var remote *RemoteError
	if _, err := c.Hint(ctx, "rack-2", nil); !errors.As(err, &remote) {
		t.Fatalf("Hint on plain rack = %v, want *RemoteError", err)
	}
	if _, err := c.Peers(ctx); !errors.As(err, &remote) {
		t.Fatalf("Peers on plain rack = %v, want *RemoteError", err)
	}
	// The connection survives the rejections.
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("Stats after rejected replication ops: %v", err)
	}
}
