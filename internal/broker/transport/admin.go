// The rack control plane: OpAdmin carries operator commands — drain mode,
// snapshot-now, admission-quota reload, status — over the same authenticated
// transport as everything else. On secured racks the opcode requires the
// auth "admin" capability (the rack-to-rack peer token carries it alongside
// "replica", so the peer-admin path can drive drains during membership
// changes); like the replica stream it is quota-exempt, because an operator
// must be able to drain a rack that is busy shedding clients.

package transport

import (
	"context"
	"fmt"

	"sealedbottle/internal/broker"
)

// handleAdmin executes one admin verb and answers with the rack's admin
// status after the verb took effect (so every command doubles as a status
// read, and the CLI can print what it just did).
func (s *Server) handleAdmin(ctx context.Context, body []byte) ([]byte, error) {
	req, err := broker.UnmarshalAdminRequest(body)
	if err != nil {
		return nil, err
	}
	switch req.Verb {
	case broker.AdminVerbStatus:
		// Status is the answer below; nothing to do.
	case broker.AdminVerbDrain:
		s.Drain(true)
	case broker.AdminVerbUndrain:
		s.Drain(false)
	case broker.AdminVerbSnapshot:
		if err := s.rack.Snapshot(); err != nil {
			return nil, err
		}
	case broker.AdminVerbQuota:
		if err := s.opts.Quota.Update(req.QuotaRate, int(req.QuotaBurst)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("transport: unknown admin verb %d", req.Verb)
	}
	st, err := s.rack.Stats(ctx)
	if err != nil {
		return nil, err
	}
	rate, burst := s.opts.Quota.Limits()
	return broker.MarshalAdminStatus(broker.AdminStatus{
		Draining:   s.Draining(),
		Held:       uint64(st.Held),
		WALBytes:   st.WALBytes,
		QuotaRate:  rate,
		QuotaBurst: burst,
	}), nil
}

// Admin sends one control-plane command and returns the rack's admin status
// after it took effect.
func (m *Mux) Admin(ctx context.Context, req broker.AdminRequest) (broker.AdminStatus, error) {
	resp, err := m.call(ctx, OpAdmin, broker.MarshalAdminRequest(req))
	if err != nil {
		return broker.AdminStatus{}, err
	}
	return broker.UnmarshalAdminStatus(resp)
}
