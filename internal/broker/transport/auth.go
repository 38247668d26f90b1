// Connection authentication: the HELLO preamble, per-connection identity
// pinning, and the admission gate run before every dispatched operation.
//
// A client that holds a capability token (internal/auth) sends a HELLO before
// its framing bytes: the 4-byte magic HelloMagic, a 2-byte big-endian token
// length, and the token itself. The server verifies the token against its
// configured key and pins the result to the connection — identity, permitted
// operations — before reading the framing magic, so every frame rides an
// authenticated stream unchanged. TLS, when configured, wraps the connection
// before any of this, so the preamble and every frame after it travel
// encrypted (docs/PROTOCOL.md §1.5.1).
//
// Authentication failures are answers, not connection faults: a missing,
// malformed, expired or out-of-scope token pins an ErrUnauthorized answer
// that every subsequent operation receives as a coded response, so
// errors.Is(err, broker.ErrUnauthorized) holds for the remote caller exactly
// as in-process, and pools never recycle a connection over a denial.

package transport

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
)

// HelloMagic is the authentication preamble ("SBA1"), sent before the framing
// bytes. It differs from MuxMagic, so the server tells the two apart from a
// connection's first four bytes.
const HelloMagic uint32 = 0x53424131

// writeHello sends the authentication preamble as a single write: the HELLO
// magic, a 2-byte big-endian token length, and the capability token.
func writeHello(w io.Writer, token []byte) error {
	if len(token) > 0xFFFF {
		return fmt.Errorf("transport: capability token too large (%d bytes)", len(token))
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 6+len(token)), HelloMagic)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(token)))
	buf = append(buf, token...)
	_, err := w.Write(buf)
	return err
}

// connAuth is one connection's pinned authentication state, established by
// the HELLO preamble (or its absence) before the first frame and immutable
// afterwards; dispatch reads it without locking.
type connAuth struct {
	// identity is the token's verified identity; empty on anonymous
	// connections (no key configured, or no token presented).
	identity string
	// ops is the verified token's permitted-operation mask.
	ops auth.Ops
	// ctx carries the identity into every rack operation dispatched on this
	// connection (broker.WithIdentity over the server's lifetime context).
	ctx context.Context
	// err, when set, is the pinned denial every operation answers with: the
	// server requires authentication and this connection failed it.
	err error
}

// readHello consumes the token bytes that follow an already-read HelloMagic
// and pins the connection's authentication state. A short read is a protocol
// error and returns false (the connection is dropped); a token that fails
// verification pins a typed ErrUnauthorized answer instead, so the client
// observes the denial on its first call rather than a vanished connection.
func (s *Server) readHello(br *bufio.Reader, ca *connAuth) bool {
	var lenBuf [2]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return false
	}
	raw := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(br, raw); err != nil {
		return false
	}
	if len(s.opts.AuthKey) == 0 {
		// No key to verify against: the token is ignored and the connection
		// stays anonymous, so secured clients interoperate with open servers.
		return true
	}
	now := s.opts.AuthNow
	if now == nil {
		now = time.Now
	}
	tok, err := auth.Verify(s.opts.AuthKey, raw, now())
	if err != nil {
		ca.err = fmt.Errorf("transport: capability token rejected (%v): %w", err, broker.ErrUnauthorized)
		return true
	}
	ca.identity, ca.ops = tok.Identity, tok.Ops
	ca.ctx = broker.WithIdentity(s.ctx, tok.Identity)
	return true
}

// opNeeds maps a wire opcode to the capability bit a token must carry for it.
// Unknown opcodes need nothing — dispatch rejects them on its own.
func opNeeds(op byte) auth.Ops {
	switch op {
	case OpSubmit, OpSubmitBatch:
		return auth.OpSubmit
	case OpSweep:
		return auth.OpSweep
	case OpReply, OpReplyBatch:
		return auth.OpReply
	case OpFetch, OpFetchBatch:
		return auth.OpFetch
	case OpRemove:
		return auth.OpRemove
	case OpStats:
		return auth.OpStats
	case OpHint, OpHandoff, OpPeers:
		return auth.OpReplica
	case OpAdmin:
		return auth.OpAdmin
	}
	return 0
}

// admit gates one operation on the connection's pinned identity: the pinned
// denial (if any), the token's operation scope, drain mode, then the
// per-identity admission quota. All four produce definitive broker answers —
// coded ErrUnauthorized/ErrDraining/ErrOverload responses the ring treats as
// backpressure, never as rack faults. The replication opcodes are
// quota-exempt (shedding rack-to-rack repair under client flood would turn
// an overload into data loss), and so is the admin opcode (an operator must
// be able to drain a rack that is busy shedding clients). Drain refuses only
// new client submits: sweeps, replies and fetches keep serving so in-flight
// rendezvous finish, and the replica stream keeps the handoff path open.
func (s *Server) admit(ca *connAuth, op byte) error {
	if ca.err != nil {
		return ca.err
	}
	need := opNeeds(op)
	if len(s.opts.AuthKey) > 0 && ca.ops&need != need {
		return fmt.Errorf("transport: token scope %v does not permit %v: %w", ca.ops, need, broker.ErrUnauthorized)
	}
	if (op == OpSubmit || op == OpSubmitBatch) && s.draining.Load() {
		return broker.ErrDraining
	}
	if need != auth.OpReplica && need != auth.OpAdmin && !s.opts.Quota.Allow(ca.identity) {
		return fmt.Errorf("transport: identity %q over admission quota: %w", ca.identity, broker.ErrOverload)
	}
	return nil
}

// dialNetConn opens the client-side TCP connection, wrapped in TLS when the
// options carry a config. A config without a ServerName verifies against the
// dialed host, so callers configure only the root pool in the common case.
func dialNetConn(addr string, o Options) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if o.TLS == nil {
		return conn, nil
	}
	cfg := o.TLS.Clone()
	if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
		if host, _, err := net.SplitHostPort(addr); err == nil {
			cfg.ServerName = host
		}
	}
	return tls.Client(conn, cfg), nil
}
