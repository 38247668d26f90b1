package transport

import (
	"errors"
	"time"

	"sealedbottle/internal/broker"
	"sealedbottle/internal/obs"
)

// Per-opcode instrumentation, server and client side.
// Metrics are resolved to per-op series at registration, so the record path
// is a handful of atomics with no map lookups or allocation — it rides
// inside the dispatch loop whose alloc budgets the PR 7 gate pins.

// opCount sizes the per-opcode metric tables: every defined opcode plus
// slot 0 for unknown ops.
const opCount = int(OpAdmin) + 1

// opNames names the opcodes for metric labels and logs; index = opcode.
var opNames = [opCount]string{
	0:             "unknown",
	OpSubmit:      "submit",
	OpSweep:       "sweep",
	OpReply:       "reply",
	OpFetch:       "fetch",
	OpStats:       "stats",
	OpRemove:      "remove",
	OpSubmitBatch: "submit_batch",
	OpReplyBatch:  "reply_batch",
	OpFetchBatch:  "fetch_batch",
	OpHint:        "hint",
	OpHandoff:     "handoff",
	OpPeers:       "peers",
	OpAdmin:       "admin",
}

// OpName names a wire opcode for metric labels and logs; unknown opcodes
// return "unknown".
func OpName(op byte) string {
	if int(op) < opCount && opNames[op] != "" {
		return opNames[op]
	}
	return "unknown"
}

// opIndex maps an opcode to its metric-table slot.
func opIndex(op byte) int {
	if int(op) < opCount && opNames[op] != "" {
		return int(op)
	}
	return 0
}

// ServerMetrics is the server-side per-opcode instrumentation: latency
// histograms, request/error counters, and request/response byte counters,
// plus admission-outcome counters. Attach one to ServerOptions.Metrics; a
// nil pointer disables instrumentation with a single branch per dispatch.
type ServerMetrics struct {
	latency  [opCount]*obs.Histogram
	requests [opCount]*obs.Counter
	errs     [opCount]*obs.Counter
	bytesIn  [opCount]*obs.Counter
	bytesOut [opCount]*obs.Counter

	unauthorized *obs.Counter
	overloaded   *obs.Counter
	drained      *obs.Counter
}

// NewServerMetrics registers the server's per-opcode series on reg.
func NewServerMetrics(reg *obs.Registry) *ServerMetrics {
	m := &ServerMetrics{
		unauthorized: reg.Counter("sealedbottle_unauthorized_total",
			"Operations refused for missing, invalid or out-of-scope capability tokens."),
		overloaded: reg.Counter("sealedbottle_overload_total",
			"Operations shed by per-identity admission quota."),
		drained: reg.Counter("sealedbottle_draining_refused_total",
			"Client submits refused while the rack was draining."),
	}
	for op := 0; op < opCount; op++ {
		if opNames[op] == "" {
			continue
		}
		l := obs.Label{Key: "op", Value: opNames[op]}
		m.latency[op] = reg.Histogram("sealedbottle_op_latency_seconds",
			"Server-side latency of one dispatched operation, by opcode.", nil, l)
		m.requests[op] = reg.Counter("sealedbottle_op_requests_total",
			"Operations dispatched, by opcode.", l)
		m.errs[op] = reg.Counter("sealedbottle_op_errors_total",
			"Operations answered with an error status, by opcode.", l)
		m.bytesIn[op] = reg.Counter("sealedbottle_op_request_bytes_total",
			"Request body bytes received, by opcode.", l)
		m.bytesOut[op] = reg.Counter("sealedbottle_op_response_bytes_total",
			"Response body bytes sent, by opcode.", l)
	}
	return m
}

// record accounts one dispatched operation. Alloc-free: index lookup plus
// atomics, with the errors.Is classification only on the error path.
func (m *ServerMetrics) record(op byte, start time.Time, inBytes, outBytes int, err error) {
	i := opIndex(op)
	m.latency[i].Observe(time.Since(start))
	m.requests[i].Inc()
	m.bytesIn[i].Add(uint64(inBytes))
	m.bytesOut[i].Add(uint64(outBytes))
	if err == nil {
		return
	}
	m.errs[i].Inc()
	switch {
	case errors.Is(err, broker.ErrUnauthorized):
		m.unauthorized.Inc()
	case errors.Is(err, broker.ErrOverload):
		m.overloaded.Inc()
	case errors.Is(err, broker.ErrDraining):
		m.drained.Inc()
	}
}

// dispatchMeasured is dispatch plus instrumentation.
func (s *Server) dispatchMeasured(ca *connAuth, op byte, body []byte) ([]byte, error) {
	m := s.opts.Metrics
	if m == nil {
		return s.dispatch(ca, op, body)
	}
	start := time.Now()
	resp, err := s.dispatch(ca, op, body)
	m.record(op, start, len(body), len(resp), err)
	return resp, err
}

// ClientMetrics is the client-side per-opcode instrumentation of a Mux:
// round-trip latency histograms and error counters. Attach one to
// Options.Metrics; a courier pool passes one ClientMetrics to every
// connection so the series aggregate across the pool.
type ClientMetrics struct {
	latency [opCount]*obs.Histogram
	errs    [opCount]*obs.Counter
}

// NewClientMetrics registers the client's per-opcode series on reg.
func NewClientMetrics(reg *obs.Registry) *ClientMetrics {
	m := &ClientMetrics{}
	for op := 0; op < opCount; op++ {
		if opNames[op] == "" {
			continue
		}
		l := obs.Label{Key: "op", Value: opNames[op]}
		m.latency[op] = reg.Histogram("sealedbottle_client_op_latency_seconds",
			"Client-observed round-trip latency of one call, by opcode.", nil, l)
		m.errs[op] = reg.Counter("sealedbottle_client_op_errors_total",
			"Client calls that returned an error (remote, abandoned or transport), by opcode.", l)
	}
	return m
}

// record accounts one client call. Alloc-free.
func (m *ClientMetrics) record(op byte, start time.Time, err error) {
	i := opIndex(op)
	m.latency[i].Observe(time.Since(start))
	if err != nil {
		m.errs[i].Inc()
	}
}
