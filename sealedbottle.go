// Public API of the sealed-bottle rendezvous system.
//
// This file re-exports the module's client-facing surface — the canonical
// context-first Backend interface, the three implementations (in-process
// Rack, wire Courier, cluster Ring), the candidate-side Sweeper, the framed
// TCP server, and the error sentinels — so external programs can embed a
// rack or dial a cluster without reaching into internal packages. The
// implementations live under internal/ and are aliased here; the golden-file
// test in api_golden_test.go guards this surface against accidental breaking
// changes.
//
// A minimal embedding (serve a rack, rack a bottle, sweep it back):
//
//	rack := sealedbottle.NewRack(sealedbottle.RackConfig{Shards: 8})
//	defer rack.Close()
//	l, _ := net.Listen("tcp", "127.0.0.1:7117")
//	srv := sealedbottle.NewServer(rack)
//	go srv.Serve(l)
//	defer srv.Close()
//
//	courier, _ := sealedbottle.Dial(sealedbottle.CourierConfig{Addr: l.Addr().String()})
//	defer courier.Close()
//
//	ctx := context.Background()
//	id, _ := courier.Submit(ctx, rawRequestPackage)
//	res, _ := courier.Sweep(ctx, sealedbottle.SweepQuery{Residues: residues})
//	for _, b := range res.Bottles {
//		_ = courier.Reply(ctx, b.ID, buildReply(b.Raw))
//	}
//	replies, _ := courier.Fetch(ctx, id)
//	_ = replies
//
// Every call takes a context; canceling it abandons the in-flight call
// promptly while the pipelined connection keeps serving other callers, and
// errors cross TCP with one-byte codes so errors.Is(err, ErrUnknownBottle)
// holds exactly as it does in-process. See docs/PROTOCOL.md for the wire
// contract and docs/ARCHITECTURE.md for the layer map.
package sealedbottle

import (
	"context"
	"net/http"
	"time"

	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/client"
	"sealedbottle/internal/obs"
	"sealedbottle/internal/replica"
)

// Backend is the canonical rendezvous surface: one context-first interface
// (Submit/SubmitBatch/Sweep/Reply/ReplyBatch/Fetch/FetchBatch/Remove/Stats/
// Close) implemented by *Rack, *Courier and *Ring alike, so racks, couriers
// and rings compose interchangeably.
type Backend = broker.Backend

// The three layers all satisfy the one public surface.
var (
	_ Backend = (*Rack)(nil)
	_ Backend = (*Courier)(nil)
	_ Backend = (*Ring)(nil)
)

// Operand types of the Backend surface.
type (
	// SweepQuery describes one candidate's sweep: residue presence sets, a
	// result cap, and optional exclusions.
	SweepQuery = broker.SweepQuery
	// SweepResult is the outcome of one sweep query.
	SweepResult = broker.SweepResult
	// SweptBottle is one rack entry returned by a sweep.
	SweptBottle = broker.SweptBottle
	// SubmitResult is the outcome of one package within a SubmitBatch.
	SubmitResult = broker.SubmitResult
	// ReplyPost is one reply within a ReplyBatch.
	ReplyPost = broker.ReplyPost
	// FetchResult is the outcome of one request ID within a FetchBatch.
	FetchResult = broker.FetchResult
	// Stats is a point-in-time snapshot of a backend's counters.
	Stats = broker.Stats
	// ShardStats is one shard's counter snapshot.
	ShardStats = broker.ShardStats
)

// Rack is the in-process bottle rack: the store-and-forward rendezvous
// broker itself.
type Rack = broker.Rack

// RackConfig tunes a Rack (shards, expiry, tagging, durability).
type RackConfig = broker.Config

// DurabilityConfig backs a rack with a write-ahead log and snapshots.
type DurabilityConfig = broker.DurabilityConfig

// NewRack builds an in-memory rack and starts its reaper. It panics if the
// config's durability setup fails; durable racks should use OpenRack.
func NewRack(cfg RackConfig) *Rack { return broker.New(cfg) }

// OpenRack builds a rack, recovering prior state from the durability
// directory when the config asks for it.
func OpenRack(cfg RackConfig) (*Rack, error) { return broker.Open(cfg) }

// Courier is the wire client for one rack: a pool of lazily-dialed
// multiplexed connections with transparent redial and a strict retry
// discipline (see docs/PROTOCOL.md §2.1.2).
type Courier = client.Courier

// CourierConfig tunes a Courier (endpoint, pool size, timeouts, TLS, token).
type CourierConfig = client.Config

// Dial builds a courier. Connections are dialed lazily, so Dial succeeds
// even while the broker is down; the first operation reports the dial error.
func Dial(cfg CourierConfig) (*Courier, error) { return client.Dial(cfg) }

// Ring routes the rendezvous protocol across N racks behind the same Backend
// surface a single rack offers: submits, replies and fetches to the ID's
// top-R racks by rendezvous hashing, sweeps fanned out to every healthy
// rack, with per-rack failure ejection and probed re-admission.
type Ring = client.Ring

// RingConfig tunes a Ring. Exactly one of Addrs and Backends must be set.
type RingConfig = client.RingConfig

// RingBackend names one pre-built rack backend for RingConfig.Backends.
type RingBackend = client.RingBackend

// RackHealth is one rack's health snapshot, as reported by Ring.Health.
type RackHealth = client.RackHealth

// NewRing builds a ring over the configured racks.
func NewRing(cfg RingConfig) (*Ring, error) { return client.NewRing(cfg) }

// Sweeper drives the candidate side of the protocol against any Backend:
// sweep, evaluate locally with the full matcher, post replies batched,
// remember evaluated IDs.
type Sweeper = client.Sweeper

// SweeperConfig configures a Sweeper.
type SweeperConfig = client.SweeperConfig

// TickStats summarizes one sweep-evaluate-reply cycle.
type TickStats = client.TickStats

// NewSweeper builds a sweeper over any Backend, computing the participant's
// residue sets once.
func NewSweeper(b Backend, cfg SweeperConfig) (*Sweeper, error) {
	return client.NewSweeper(b, cfg)
}

// FetchMany drains replies for several request IDs through any Backend in
// one batched round trip, one outcome per ID; a whole-call failure is
// surfaced on every undetermined item (fetching drains destructively, so a
// failed batch is never papered over with per-item re-fetches).
func FetchMany(ctx context.Context, b Backend, ids []string) []FetchResult {
	return client.FetchMany(ctx, b, ids)
}

// Server serves a rack's operations over accepted connections, speaking the
// multiplexed wire framing.
type Server = transport.Server

// ServerOptions tunes a Server (idle and write deadlines, inflight bound).
type ServerOptions = transport.ServerOptions

// NewServer wraps a rack in a framed-protocol server; pair it with any
// net.Listener (or ListenPipe for in-process deployments).
func NewServer(rack *Rack, opts ...ServerOptions) *Server {
	return transport.NewServer(rack, opts...)
}

// ReplicationStats counts a backend's replication activity: hinted-handoff
// queue traffic on the rack side, read-repairs and replica-dedup hits on the
// ring side. It rides inside Stats and crosses the wire with it.
type ReplicationStats = broker.ReplicationStats

// HandoffRecord is one replicated mutation in transit between racks — the
// WAL record encodings reused as the rack-to-rack transfer format.
type HandoffRecord = broker.HandoffRecord

// ReplicaNode wraps a Rack with the server side of replication: per-peer
// hint queues, a background handoff streamer, idempotent handoff apply, and
// a runtime peer table. It remains a full Backend.
type ReplicaNode = replica.Node

// ReplicaConfig tunes a ReplicaNode (identity, peer table, hint bounds,
// streaming cadence).
type ReplicaConfig = replica.Config

// HandoffTarget is the destination surface the replica streamer delivers
// hint batches to.
type HandoffTarget = replica.HandoffTarget

// WrapReplica wraps a rack for replicated duty. The node takes ownership of
// the rack: closing the node closes the rack.
func WrapReplica(rack *Rack, cfg ReplicaConfig) *ReplicaNode { return replica.Wrap(rack, cfg) }

// PipeListener is an in-memory listener for in-process deployments: the full
// framed protocol with no sockets.
type PipeListener = transport.PipeListener

// ListenPipe creates an in-memory listener whose Dial returns connections
// served by whatever Server is accepting on it.
func ListenPipe() *PipeListener { return transport.ListenPipe() }

// Defaults of the respective configs, re-exported for flag definitions and
// documentation.
const (
	// DefaultShards is the rack shard count when RackConfig.Shards is zero.
	DefaultShards = broker.DefaultShards
	// DefaultSweepLimit caps a sweep's returned bottles when the query sets
	// no limit.
	DefaultSweepLimit = broker.DefaultSweepLimit
	// DefaultReapInterval is the rack's background expiry period.
	DefaultReapInterval = broker.DefaultReapInterval
	// DefaultCallTimeout bounds one courier round trip unless configured.
	DefaultCallTimeout = client.DefaultCallTimeout
	// DefaultMaxInflight bounds concurrently executing requests per
	// multiplexed server connection.
	DefaultMaxInflight = transport.DefaultMaxInflight
	// DefaultFailThreshold is the consecutive rack-fault count that ejects a
	// rack from a ring's routing.
	DefaultFailThreshold = client.DefaultFailThreshold
	// DefaultMaxHintsPerDest bounds a replica node's per-destination hint
	// queue.
	DefaultMaxHintsPerDest = replica.DefaultMaxHintsPerDest
	// DefaultStreamInterval is the replica node's handoff streaming period.
	DefaultStreamInterval = replica.DefaultStreamInterval
)

// SplitTaggedID splits a rack-tagged request ID ("tag@id") into its tag and
// bare ID; IDs without a tag return tag "".
func SplitTaggedID(id string) (tag, rest string) { return broker.SplitTaggedID(id) }

// UntagID strips a rack tag, if any, from a request ID.
func UntagID(id string) string { return broker.UntagID(id) }

// Error sentinels of the rendezvous contract. They hold under errors.Is both
// in-process and across TCP (the wire carries a one-byte code per error that
// decodes back into these values).
var (
	// ErrUnknownBottle indicates a reply, fetch or remove for an ID not on
	// the rack.
	ErrUnknownBottle = broker.ErrUnknownBottle
	// ErrDuplicateBottle indicates a submission reusing a held request ID.
	ErrDuplicateBottle = broker.ErrDuplicateBottle
	// ErrBadQuery indicates a sweep query with no valid residue sets, or a
	// sweep frame this protocol revision cannot decode.
	ErrBadQuery = broker.ErrBadQuery
	// ErrFetchBudget marks FetchBatch items left undrained by the batch byte
	// budget; their replies are still queued.
	ErrFetchBudget = broker.ErrFetchBudget
	// ErrRackClosed indicates an operation on a closed rack.
	ErrRackClosed = broker.ErrRackClosed
	// ErrNoHealthyRacks indicates that every rack of a ring is ejected.
	ErrNoHealthyRacks = client.ErrNoHealthyRacks
	// ErrCallTimeout indicates a wire call that exceeded its per-call
	// timeout (inside an AbandonedError, connection unaffected) or a
	// connection that made no progress at all (connection failed).
	ErrCallTimeout = transport.ErrCallTimeout
	// ErrUnauthorized indicates a caller identity the broker refused: no (or
	// an invalid) capability token on a secured server, an operation outside
	// the token's scope, or a fetch/remove of another identity's bottle. A
	// definitive answer, never a rack fault.
	ErrUnauthorized = broker.ErrUnauthorized
	// ErrOverload indicates the caller's identity is over its admission
	// quota; the operation was shed and may be retried after backoff. A
	// definitive answer, never a rack fault.
	ErrOverload = broker.ErrOverload
	// ErrDraining indicates a rack in drain mode refused a new submission; it
	// keeps serving sweeps, replies, fetches and replica traffic. A definitive
	// answer, never a rack fault; rings route the write to a surviving replica
	// and queue a hint, so drains lose no acked writes.
	ErrDraining = broker.ErrDraining
)

// ErrCode is the one-byte error classification carried by the wire
// protocol's error responses; see docs/PROTOCOL.md §1.3.1 for the table.
type ErrCode = broker.ErrCode

// Wire error codes.
const (
	CodeNone            = broker.CodeNone
	CodeUnknownBottle   = broker.CodeUnknownBottle
	CodeDuplicateBottle = broker.CodeDuplicateBottle
	CodeBadQuery        = broker.CodeBadQuery
	CodeFetchBudget     = broker.CodeFetchBudget
	CodeExpired         = broker.CodeExpired
	CodeMalformed       = broker.CodeMalformed
	CodeInternal        = broker.CodeInternal
	CodeUnauthorized    = broker.CodeUnauthorized
	CodeOverload        = broker.CodeOverload
	CodeDraining        = broker.CodeDraining
)

// RemoteError is an error the server computed and answered for one
// operation; it unwraps to the sentinel named by its wire code.
type RemoteError = transport.RemoteError

// AbandonedError marks a call the client gave up on (context ended or
// per-call timeout) while the connection underneath kept serving.
type AbandonedError = transport.AbandonedError

// AuthToken is a capability token's decoded claims: an identity, a permitted
// operation mask, and an optional expiry. Mint one with MintToken and hand
// the bytes to CourierConfig.Token (or transport Options.Token); a secured
// server verifies it and pins the connection to its identity — bottle
// ownership, operation scope and admission quotas all key on it.
type AuthToken = auth.Token

// AuthOps is a capability token's permitted-operation bitmask.
type AuthOps = auth.Ops

// Capability scopes for AuthToken.Ops.
const (
	// AuthOpsClient permits the full client surface (everything but the
	// rack-to-rack replication opcodes).
	AuthOpsClient = auth.OpsClient
	// AuthOpsAll permits everything, replication included — rack identities.
	AuthOpsAll = auth.OpsAll
	// AuthOpAdmin permits the rack control plane (drain, snapshot, quota
	// reload) — an operator credential, not a client one. AuthOpsAll includes
	// it; AuthOpsClient deliberately does not.
	AuthOpAdmin = auth.OpAdmin
)

// ParseAuthOps parses a comma-separated scope list ("submit,fetch", "client",
// "all", "none") into an operation mask — the flag-value format the commands
// use.
func ParseAuthOps(s string) (AuthOps, error) { return auth.ParseOps(s) }

// NewAuthKey draws a fresh random token-signing key.
func NewAuthKey() ([]byte, error) { return auth.NewKey() }

// ParseAuthKey decodes a hex-encoded token-signing key (the format NewAuthKey
// material is stored in by the sealedbottle keygen command).
func ParseAuthKey(s string) ([]byte, error) { return auth.ParseKey(s) }

// MintToken signs a capability token under the given key.
func MintToken(key []byte, t AuthToken) ([]byte, error) { return auth.Mint(key, t) }

// VerifyToken checks a token's signature and expiry against the key, at the
// given instant, returning its claims.
func VerifyToken(key, raw []byte, now time.Time) (AuthToken, error) {
	return auth.Verify(key, raw, now)
}

// Admission is the per-identity token-bucket admission controller a server
// mounts via ServerOptions.Quota: each identity gets rate operations per
// second with bursts up to burst, and calls over quota answer ErrOverload.
type Admission = broker.Admission

// NewAdmission builds an admission controller; a rate <= 0 returns nil
// (admission disabled), so flag values pass straight through.
func NewAdmission(rate float64, burst int) *Admission { return broker.NewAdmission(rate, burst) }

// ObsRegistry is the dependency-free metrics registry behind every
// sealedbottle_* series: counters, gauges and fixed-bucket latency histograms
// with an alloc-free record path and Prometheus text exposition. One registry
// per process; hand it to NewServerMetrics / NewClientMetrics /
// NewSweeperMetrics / Ring.RegisterMetrics and serve it with ObsHandler.
type ObsRegistry = obs.Registry

// NewObsRegistry builds an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ObsHandler serves a registry in Prometheus text exposition format — mount
// it wherever the embedding process keeps its ops endpoints.
func ObsHandler(reg *ObsRegistry) http.Handler { return obs.Handler(reg) }

// NewOpsMux builds the standard ops surface over a registry: /metrics,
// /healthz, /readyz (503 with the reason until ready returns nil; a nil ready
// reports ready immediately) and /debug/pprof. This is what bottlerack serves
// on -ops-addr.
func NewOpsMux(reg *ObsRegistry, ready func() error) *http.ServeMux {
	return obs.OpsMux(reg, ready)
}

// ServerMetrics instruments a Server: per-opcode latency histograms,
// request/error counters, request and response byte counters, plus
// unauthorized/overload/draining refusal counters. Mount via
// ServerOptions.Metrics; recording is alloc-free.
type ServerMetrics = transport.ServerMetrics

// NewServerMetrics registers the server-side wire series on reg.
func NewServerMetrics(reg *ObsRegistry) *ServerMetrics { return transport.NewServerMetrics(reg) }

// ClientMetrics instruments wire clients with per-opcode round-trip latency
// histograms and error counters. Mount via CourierConfig.Metrics (one shared
// instance per process, so series aggregate across couriers and rings).
type ClientMetrics = transport.ClientMetrics

// NewClientMetrics registers the client-side wire series on reg.
func NewClientMetrics(reg *ObsRegistry) *ClientMetrics { return transport.NewClientMetrics(reg) }

// SweeperMetrics instruments sweepers: a tick-duration histogram and the
// TickStats counters. Mount via SweeperConfig.Metrics (shareable across
// sweepers).
type SweeperMetrics = client.SweeperMetrics

// NewSweeperMetrics registers the sweeper series on reg.
func NewSweeperMetrics(reg *ObsRegistry) *SweeperMetrics { return client.NewSweeperMetrics(reg) }

// AdminRequest is one control-plane command for a rack: a verb plus the quota
// parameters the quota verb carries.
type AdminRequest = broker.AdminRequest

// AdminStatus is the rack's control-plane answer: drain state, held bottles,
// WAL size and the live admission limits.
type AdminStatus = broker.AdminStatus

// Control-plane verbs for AdminRequest.Verb. Every verb answers with the
// rack's AdminStatus after it took effect. On secured racks the admin opcode
// requires the AuthOpAdmin capability and is admission-exempt.
const (
	// AdminVerbStatus reads the rack's admin status without side effects.
	AdminVerbStatus = broker.AdminVerbStatus
	// AdminVerbDrain stops the rack accepting new submissions (ErrDraining)
	// while sweeps, replies, fetches and replica traffic keep serving.
	AdminVerbDrain = broker.AdminVerbDrain
	// AdminVerbUndrain restores submissions.
	AdminVerbUndrain = broker.AdminVerbUndrain
	// AdminVerbSnapshot writes a durability snapshot now.
	AdminVerbSnapshot = broker.AdminVerbSnapshot
	// AdminVerbQuota reloads the admission controller's rate and burst.
	AdminVerbQuota = broker.AdminVerbQuota
)

// AdminVerbName names a control-plane verb for logs and CLI output.
func AdminVerbName(v byte) string { return broker.AdminVerbName(v) }
