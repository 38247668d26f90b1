package client

import (
	"context"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
)

// The courier implements the hint-queueing surface the ring fans hints
// through.
var _ broker.Hinter = (*Courier)(nil)

// Hint asks the rack to queue handoff records for an unreachable peer; it
// returns how many were accepted. Hints deduplicate server-side, so the call
// is idempotent and retried like a read.
func (c *Courier) Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	return do(ctx, c, true, func(cn *transport.Mux) (int, error) { return cn.Hint(ctx, dest, recs) })
}

// Handoff delivers handoff records to the rack; records apply idempotently,
// so the call is retried like a read.
func (c *Courier) Handoff(ctx context.Context, recs []broker.HandoffRecord) (int, error) {
	return do(ctx, c, true, func(cn *transport.Mux) (int, error) { return cn.Handoff(ctx, recs) })
}

// SetPeer adds or updates a member in the rack's peer table, returning the
// resulting table.
func (c *Courier) SetPeer(ctx context.Context, name, addr string) (map[string]string, error) {
	return do(ctx, c, true, func(cn *transport.Mux) (map[string]string, error) { return cn.SetPeer(ctx, name, addr) })
}

// RemovePeer drops a member from the rack's peer table, returning the
// resulting table.
func (c *Courier) RemovePeer(ctx context.Context, name string) (map[string]string, error) {
	return do(ctx, c, true, func(cn *transport.Mux) (map[string]string, error) { return cn.RemovePeer(ctx, name) })
}

// Peers snapshots the rack's peer table.
func (c *Courier) Peers(ctx context.Context) (map[string]string, error) {
	return do(ctx, c, true, func(cn *transport.Mux) (map[string]string, error) { return cn.Peers(ctx) })
}
