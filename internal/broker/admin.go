package broker

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Admin control-plane verbs, carried by the transport's OpAdmin opcode
// (docs/PROTOCOL.md §2.11). Every verb answers with the rack's AdminStatus
// after the verb took effect, so a drain command doubles as a status read.
const (
	// AdminVerbStatus reads the rack's admin status without changing it.
	AdminVerbStatus byte = 1
	// AdminVerbDrain puts the rack in drain mode: client submits are refused
	// with ErrDraining while sweeps, replies, fetches and the replica stream
	// keep serving, so in-flight rendezvous finish and the replicated ring
	// migrates new writes off the rack.
	AdminVerbDrain byte = 2
	// AdminVerbUndrain lifts drain mode.
	AdminVerbUndrain byte = 3
	// AdminVerbSnapshot forces a durability snapshot now (Rack.Snapshot),
	// compacting the WAL without waiting for a shutdown.
	AdminVerbSnapshot byte = 4
	// AdminVerbQuota reloads the per-identity admission limits from the
	// request's QuotaRate/QuotaBurst.
	AdminVerbQuota byte = 5
)

// adminVerbNames names the verbs for logs and the admin CLI.
var adminVerbNames = map[byte]string{
	AdminVerbStatus:   "status",
	AdminVerbDrain:    "drain",
	AdminVerbUndrain:  "undrain",
	AdminVerbSnapshot: "snapshot",
	AdminVerbQuota:    "quota",
}

// AdminVerbName names an admin verb ("drain"), or "verb-N" for unknown ones.
func AdminVerbName(verb byte) string {
	if name, ok := adminVerbNames[verb]; ok {
		return name
	}
	return fmt.Sprintf("verb-%d", verb)
}

// AdminRequest is one control-plane command.
type AdminRequest struct {
	// Verb selects the command (AdminVerb*).
	Verb byte
	// QuotaRate and QuotaBurst carry the new admission limits for
	// AdminVerbQuota; other verbs ignore them.
	QuotaRate  float64
	QuotaBurst uint32
}

// AdminStatus is the rack's control-plane state, answered by every admin
// verb after it took effect.
type AdminStatus struct {
	// Draining reports drain mode.
	Draining bool
	// Held is the number of bottles currently on the rack.
	Held uint64
	// WALBytes is the live WAL size (zero on non-durable racks).
	WALBytes uint64
	// QuotaRate and QuotaBurst are the current admission limits (zeros when
	// admission is disabled).
	QuotaRate  float64
	QuotaBurst float64
}

// MarshalAdminRequest encodes an admin request: verb byte, IEEE-754 quota
// rate, uint32 quota burst (13 bytes, fixed).
func MarshalAdminRequest(req AdminRequest) []byte {
	buf := make([]byte, 0, 13)
	buf = append(buf, req.Verb)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(req.QuotaRate))
	return binary.BigEndian.AppendUint32(buf, req.QuotaBurst)
}

// UnmarshalAdminRequest decodes an admin request.
func UnmarshalAdminRequest(data []byte) (AdminRequest, error) {
	r := &reader{data: data}
	var req AdminRequest
	var err error
	if req.Verb, err = r.byte(); err != nil {
		return req, fmt.Errorf("%w: admin verb", ErrMalformedFrame)
	}
	rate, err := r.uint64()
	if err != nil {
		return req, fmt.Errorf("%w: admin quota rate", ErrMalformedFrame)
	}
	req.QuotaRate = math.Float64frombits(rate)
	if req.QuotaBurst, err = r.uint32(); err != nil {
		return req, fmt.Errorf("%w: admin quota burst", ErrMalformedFrame)
	}
	if r.remaining() != 0 {
		return req, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return req, nil
}

// MarshalAdminStatus encodes an admin status response: drain flag, held,
// WAL bytes, quota rate and burst (33 bytes, fixed).
func MarshalAdminStatus(st AdminStatus) []byte {
	buf := make([]byte, 0, 33)
	if st.Draining {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint64(buf, st.Held)
	buf = binary.BigEndian.AppendUint64(buf, st.WALBytes)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(st.QuotaRate))
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(st.QuotaBurst))
}

// UnmarshalAdminStatus decodes an admin status response.
func UnmarshalAdminStatus(data []byte) (AdminStatus, error) {
	r := &reader{data: data}
	var st AdminStatus
	var err error
	if st.Draining, err = r.bool(); err != nil {
		return st, fmt.Errorf("%w: admin drain flag", ErrMalformedFrame)
	}
	if st.Held, err = r.uint64(); err != nil {
		return st, fmt.Errorf("%w: admin held", ErrMalformedFrame)
	}
	if st.WALBytes, err = r.uint64(); err != nil {
		return st, fmt.Errorf("%w: admin wal bytes", ErrMalformedFrame)
	}
	rate, err := r.uint64()
	if err != nil {
		return st, fmt.Errorf("%w: admin quota rate", ErrMalformedFrame)
	}
	st.QuotaRate = math.Float64frombits(rate)
	burst, err := r.uint64()
	if err != nil {
		return st, fmt.Errorf("%w: admin quota burst", ErrMalformedFrame)
	}
	st.QuotaBurst = math.Float64frombits(burst)
	if r.remaining() != 0 {
		return st, fmt.Errorf("%w: trailing bytes", ErrMalformedFrame)
	}
	return st, nil
}
