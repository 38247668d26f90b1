package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"sealedbottle"
	"sealedbottle/internal/auth"
)

// Topology sizes the cluster a scenario runs against.
type Topology struct {
	// Racks is the number of racks in the ring (≥1).
	Racks int
	// Replication is the ring's replication factor R (top-R rendezvous
	// placement; 1 disables replication).
	Replication int
	// Shards is the per-rack shard count (zero: the rack default).
	Shards int
	// CallTimeout bounds each courier round trip (zero: the client default).
	CallTimeout time.Duration

	// Secured arms the identity layer: the harness mints a token-signing key,
	// every rack verifies capability tokens and enforces per-identity admission
	// quotas, the ring's couriers authenticate as identity "clients" (full
	// scope — at R>1 the ring itself relays hints, which needs the replica
	// opcodes), and the replica handoff dialers authenticate as their racks.
	// Imposter scenarios require it.
	Secured bool
	// QuotaRate and QuotaBurst shape each rack's per-identity token bucket
	// when Secured (zero: 200 ops/sec, burst 64). Replication opcodes are
	// quota-exempt.
	QuotaRate  float64
	QuotaBurst int
}

// rackHandle is one rack of the harness: how it is dialed, the courier the
// ring (and the degraded direct-sweep path) reaches it through, and, for a
// rack the harness started, what stops it.
type rackHandle struct {
	name    string
	dial    sealedbottle.CourierConfig
	courier *sealedbottle.Courier
	stop    func() // closes listener, server and rack; nil when not owned
	severed bool
}

// Harness is an N-rack ring fronted by one client-side Ring over per-rack
// couriers. NewHarness starts the racks in-process, each behind its own pipe
// transport and framed server, replica-wrapped when R>1 (hint queues and
// handoff streaming over the same pipes); DialHarness reaches racks already
// serving on TCP. Either way scenarios drive the real wire protocol and
// replication machinery, not an in-memory shortcut.
type Harness struct {
	topo    Topology
	racks   []*rackHandle
	ring    *sealedbottle.Ring
	authKey []byte
}

// NewHarness builds and starts the cluster.
func NewHarness(topo Topology) (*Harness, error) {
	if topo.Racks < 1 {
		topo.Racks = 1
	}
	if topo.Replication < 1 {
		topo.Replication = 1
	}
	if topo.Secured {
		if topo.QuotaRate <= 0 {
			topo.QuotaRate = 200
		}
		if topo.QuotaBurst <= 0 {
			topo.QuotaBurst = 64
		}
	}
	h := &Harness{topo: topo}
	if topo.Secured {
		key, err := sealedbottle.NewAuthKey()
		if err != nil {
			return nil, fmt.Errorf("cluster: minting auth key: %w", err)
		}
		h.authKey = key
	}

	// Listeners exist up front so every replica node's handoff dialer can
	// resolve any peer name from the start.
	listeners := make(map[string]*sealedbottle.PipeListener, topo.Racks)
	peers := make(map[string]string, topo.Racks)
	for i := 0; i < topo.Racks; i++ {
		name := rackName(i)
		listeners[name] = sealedbottle.ListenPipe()
		peers[name] = name
	}
	for i := 0; i < topo.Racks; i++ {
		name := rackName(i)
		rcfg := sealedbottle.RackConfig{Shards: topo.Shards}
		if topo.Racks > 1 {
			rcfg.RackTag = fmt.Sprintf("r%d", i)
		}
		rack := sealedbottle.NewRack(rcfg)
		srvOpts := sealedbottle.ServerOptions{}
		if topo.Secured {
			srvOpts.AuthKey = h.authKey
			srvOpts.Quota = sealedbottle.NewAdmission(topo.QuotaRate, topo.QuotaBurst)
		}
		closeRack := rack.Close
		if topo.Replication > 1 && topo.Racks > 1 {
			rackToken := h.Token("rack:"+name, auth.OpReplica)
			node := sealedbottle.WrapReplica(rack, sealedbottle.ReplicaConfig{
				Self:  name,
				Peers: peers,
				Dial: func(addr string) (sealedbottle.HandoffTarget, error) {
					l, ok := listeners[addr]
					if !ok {
						return nil, fmt.Errorf("unknown handoff peer %q", addr)
					}
					return sealedbottle.Dial(sealedbottle.CourierConfig{
						Conns:  1,
						Token:  rackToken,
						Dialer: func() (net.Conn, error) { return l.Dial() },
					})
				},
			})
			srvOpts.Replica = node
			closeRack = node.Close
		}
		l := listeners[name]
		srv := sealedbottle.NewServer(rack, srvOpts)
		go srv.Serve(l)
		stop := func() { l.Close(); srv.Close(); closeRack() }
		err := h.addRack(name, sealedbottle.CourierConfig{
			Conns:       2,
			CallTimeout: topo.CallTimeout,
			Token:       h.Token("clients", sealedbottle.AuthOpsAll),
			Dialer:      func() (net.Conn, error) { return l.Dial() },
		}, stop)
		if err != nil {
			stop()
			h.Close()
			return nil, err
		}
	}
	if err := h.startRing(); err != nil {
		return nil, err
	}
	return h, nil
}

// DialHarness fronts racks that are already serving at addrs, which the
// harness does not own: it dials one courier per address from cfg (TLS,
// token, pool size, call timeout; Addr and Dialer are set per rack) and rings
// them at the given replication factor. Each rack is named by its address,
// as a ring built from addresses names it. Sever refuses these racks, and
// Close leaves them running.
func DialHarness(addrs []string, replication int, cfg sealedbottle.CourierConfig) (*Harness, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no rack addresses")
	}
	h := &Harness{topo: Topology{
		Racks:       len(addrs),
		Replication: max(replication, 1),
		CallTimeout: cfg.CallTimeout,
	}}
	for _, addr := range addrs {
		dial := cfg
		dial.Addr, dial.Dialer = addr, nil
		if err := h.addRack(addr, dial, nil); err != nil {
			h.Close()
			return nil, err
		}
	}
	if err := h.startRing(); err != nil {
		return nil, err
	}
	return h, nil
}

// addRack dials the ring's courier to one rack and records the rack.
func (h *Harness) addRack(name string, dial sealedbottle.CourierConfig, stop func()) error {
	courier, err := sealedbottle.Dial(dial)
	if err != nil {
		return err
	}
	h.racks = append(h.racks, &rackHandle{name: name, dial: dial, courier: courier, stop: stop})
	return nil
}

// startRing fronts the racks with the client-side ring, tearing the harness
// down if that fails.
func (h *Harness) startRing() error {
	backends := make([]sealedbottle.RingBackend, len(h.racks))
	for i, r := range h.racks {
		backends[i] = sealedbottle.RingBackend{Name: r.name, Backend: r.courier}
	}
	ring, err := sealedbottle.NewRing(sealedbottle.RingConfig{
		Backends:    backends,
		Replication: h.topo.Replication,
	})
	if err != nil {
		h.Close()
		return err
	}
	h.ring = ring
	return nil
}

func rackName(i int) string { return fmt.Sprintf("rack-%d", i) }

// Ring returns the cluster's client-side ring — the Backend scenarios drive.
func (h *Harness) Ring() *sealedbottle.Ring { return h.ring }

// Secured reports whether the harness runs with token verification and
// per-identity admission armed.
func (h *Harness) Secured() bool { return h.topo.Secured }

// AuthKey returns the cluster's token-signing key (nil when unsecured) —
// imposter scenarios mint near-miss tokens under other keys to contrast it.
func (h *Harness) AuthKey() []byte { return h.authKey }

// Token mints a capability token under the cluster's signing key. On an
// unsecured harness it returns nil, which the couriers treat as "send no
// HELLO" — so callers can thread it unconditionally.
func (h *Harness) Token(identity string, ops sealedbottle.AuthOps) []byte {
	if h.authKey == nil {
		return nil
	}
	tok, err := sealedbottle.MintToken(h.authKey, sealedbottle.AuthToken{Identity: identity, Ops: ops})
	if err != nil {
		panic(fmt.Sprintf("cluster: minting %q token: %v", identity, err))
	}
	return tok
}

// DialRing builds a second client-side ring over the same racks whose
// couriers present the given raw token (nil: no token) — the view an attacker
// with its own credentials has of the cluster. The returned func closes the
// ring and its couriers.
func (h *Harness) DialRing(token []byte) (*sealedbottle.Ring, func(), error) {
	var backends []sealedbottle.RingBackend
	var couriers []*sealedbottle.Courier
	closeAll := func() {
		for _, c := range couriers {
			c.Close()
		}
	}
	for _, r := range h.racks {
		cfg := r.dial
		cfg.Conns, cfg.Token = 1, token
		courier, err := sealedbottle.Dial(cfg)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		couriers = append(couriers, courier)
		backends = append(backends, sealedbottle.RingBackend{Name: r.name, Backend: courier})
	}
	ring, err := sealedbottle.NewRing(sealedbottle.RingConfig{
		Backends:    backends,
		Replication: h.topo.Replication,
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return ring, func() { ring.Close(); closeAll() }, nil
}

// Topology returns the harness's effective topology.
func (h *Harness) Topology() Topology { return h.topo }

// RackNames lists the racks in index order.
func (h *Harness) RackNames() []string {
	names := make([]string, len(h.racks))
	for i, r := range h.racks {
		names[i] = r.name
	}
	return names
}

// RackBackends returns one courier per live rack — the degraded direct-sweep
// path that bypasses the ring's replica merge. Severed racks are skipped.
func (h *Harness) RackBackends() []sealedbottle.Backend {
	var out []sealedbottle.Backend
	for _, r := range h.racks {
		if !r.severed {
			out = append(out, r.courier)
		}
	}
	return out
}

// Sever kills rack i with SIGKILL semantics: its listener, server and rack go
// away mid-flight and nothing is flushed. In-flight and future calls to it
// fail, the ring's health tracking ejects it, and (at R>1) surviving replicas
// keep its bottles sweepable while peers queue hints for it. It returns the
// rack's name for logging, or an error for a rack the harness does not own.
func (h *Harness) Sever(i int) (string, error) {
	r := h.racks[i]
	if r.stop == nil {
		return "", fmt.Errorf("cluster: rack %s is not the harness's to sever", r.name)
	}
	if !r.severed {
		r.severed = true
		r.stop()
	}
	return r.name, nil
}

// Stats snapshots the ring's aggregated counters (severed racks excluded by
// the ring's own health handling).
func (h *Harness) Stats(ctx context.Context) (sealedbottle.Stats, error) {
	return h.ring.Stats(ctx)
}

// Close tears the cluster down: ring, couriers, and the servers, listeners
// and racks the harness started.
func (h *Harness) Close() error {
	if h.ring != nil {
		h.ring.Close()
	}
	for i := len(h.racks) - 1; i >= 0; i-- {
		r := h.racks[i]
		r.courier.Close()
		if r.stop != nil && !r.severed {
			r.stop()
		}
	}
	return nil
}
