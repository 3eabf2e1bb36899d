// Package precursor is the public API of the Precursor key-value store —
// a reproduction of "Precursor: A Fast, Client-Centric and Trusted
// Key-Value Store using RDMA and Intel SGX" (Messadi et al.,
// Middleware '21).
//
// Precursor keeps data confidential and tamper-evident against an
// untrusted host by combining a (simulated) SGX enclave on the server with
// client-side payload cryptography: values are encrypted and MACed on the
// client under fresh one-time keys, so the server enclave only ever
// handles small control data, and the encrypted payload lives — and
// travels — entirely in untrusted memory over one-sided RDMA.
//
// # Quickstart
//
//	platform, _ := precursor.NewPlatform()
//	fabric := precursor.NewFabric()
//	dev, _ := fabric.NewDevice("server")
//	server, _ := precursor.NewServer(dev, precursor.ServerConfig{Platform: platform})
//	defer server.Close()
//
//	cdev, _ := fabric.NewDevice("client")
//	cq, sq := fabric.ConnectRC(cdev, dev)
//	go server.HandleConnection(sq)
//	client, _ := precursor.Connect(precursor.ClientConfig{
//		Conn: cq, Device: cdev,
//		PlatformKey: platform.AttestationPublicKey(),
//		Measurement: server.Measurement(),
//	})
//	client.Put("greeting", []byte("hello enclave"))
//	v, _ := client.Get("greeting")
//
// For cross-process deployment over real TCP, use Serve and Dial (the
// SoftRoCE-style fabric), as cmd/precursor-server and cmd/precursor-cli
// do. See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-reproduction results.
package precursor

import (
	"context"
	"io"

	"precursor/internal/audit"
	"precursor/internal/core"
	"precursor/internal/heat"
	"precursor/internal/obs"
	"precursor/internal/overload"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
)

// Version identifies this build of the Precursor reproduction; exported
// on /metrics as precursor_build_info.
const Version = "0.8.0"

// Re-exported core types. The store's full documentation lives on the
// underlying declarations in internal/core.
type (
	// Server is a Precursor key-value store instance.
	Server = core.Server
	// Client is a connected Precursor client.
	Client = core.Client
	// ServerConfig configures NewServer.
	ServerConfig = core.ServerConfig
	// ClientConfig configures Connect.
	ClientConfig = core.ClientConfig
	// ServerStats is a server activity snapshot.
	ServerStats = core.ServerStats
	// ClientStats is a client activity snapshot (see Client.StatsStruct).
	ClientStats = core.ClientStats
)

// Re-exported multi-op batching types. A batch ships N operations under
// one control seal and one ring doorbell and returns per-op results —
// see Client.Batch and PROTOCOL.md "Batch frames". A connection has one
// frame in flight; a Pool's connections provide the concurrency.
type (
	// BatchOp is one operation inside a batch.
	BatchOp = core.BatchOp
	// BatchOpKind selects what a BatchOp does (BatchPut/BatchGet/BatchDelete).
	BatchOpKind = core.BatchOpKind
	// BatchResult is one batched op's outcome.
	BatchResult = core.BatchResult
)

// Batch operation kinds.
const (
	// BatchPut stores a value.
	BatchPut = core.BatchPut
	// BatchGet fetches a value.
	BatchGet = core.BatchGet
	// BatchDelete removes a key.
	BatchDelete = core.BatchDelete
)

// Re-exported durable-storage (value log) types. Setting
// ServerConfig.DataDir spills large values to a partitioned,
// crash-recoverable log of client-encrypted records on untrusted disk
// (see DESIGN.md, "Trusted/untrusted storage split").
type (
	// VlogConfig tunes the value log (ServerConfig.Vlog).
	VlogConfig = core.VlogConfig
	// VlogStats is a value-log activity snapshot (ServerStats.Vlog).
	VlogStats = core.VlogStats
	// VlogRecovery summarizes a Server.ReplayVlog crash-recovery pass.
	VlogRecovery = core.VlogRecovery
)

// Re-exported trusted-execution types.
type (
	// Platform is an SGX-capable machine hosting enclaves.
	Platform = sgx.Platform
	// Measurement identifies an enclave build (MRENCLAVE).
	Measurement = sgx.Measurement
)

// Re-exported RDMA types for in-process deployments.
type (
	// Fabric is the in-process RDMA network.
	Fabric = rdma.Fabric
	// Device is one RDMA NIC.
	Device = rdma.Device
	// Conn is a queue-pair connection.
	Conn = rdma.Conn
)

// Re-exported observability types. A Tracer threads per-stage timing
// through the operation path (see OBSERVABILITY.md); attach one via
// ServerConfig.Tracer or DialConfig.Tracer and export it with
// WithTracer on a metrics endpoint.
type (
	// Tracer records per-stage latency histograms and recent op traces.
	Tracer = obs.Tracer
	// TracerConfig configures NewTracer.
	TracerConfig = obs.Config
	// TracerSide says which half of the protocol a tracer observes.
	TracerSide = obs.Side
	// StageQuantiles is one pipeline stage's latency summary.
	StageQuantiles = obs.StageQuantiles
	// Trace is one completed operation's recorded spans.
	Trace = obs.Trace
	// SpanRef is a portable reference into a live trace (trace id,
	// parent span id, sampling decision) that a context carries (WithSpan)
	// down the client stack and across process hops — see
	// OBSERVABILITY.md "End-to-end trace correlation".
	SpanRef = obs.SpanRef
)

// WithSpan returns a context under which every …Context operation of
// Client, Pool and ClusterClient records its spans as children of ref and
// carries the trace to the server inside the sealed control data. The
// same context carries the caller's deadline (PROTOCOL.md §9).
func WithSpan(ctx context.Context, ref SpanRef) context.Context { return obs.WithRef(ctx, ref) }

// Re-exported security-audit types. An AuditLog is a hash-chained,
// enclave-MACed record of security events (failed attestations, MAC
// failures, replay rejections, rollback detections, Byzantine
// failovers, …); attach one via ServerConfig.Audit and
// ClusterConfig.Audit, export it with WithAudit on a metrics endpoint,
// and verify exports offline with `precursor-cli audit verify`.
type (
	// AuditLog is the tamper-evident security event chain.
	AuditLog = audit.Log
	// AuditRecord is one security event in an AuditLog.
	AuditRecord = audit.Record
	// AuditExport is a signed audit-chain export (the /debug/audit payload).
	AuditExport = audit.Export
)

// Audit event kinds recorded by servers and cluster clients.
const (
	// AuditKindAttestFail records a failed enclave attestation handshake.
	AuditKindAttestFail = audit.KindAttestFail
	// AuditKindAuthFail records control data that failed authentication.
	AuditKindAuthFail = audit.KindAuthFail
	// AuditKindReplay records a rejected replayed request.
	AuditKindReplay = audit.KindReplay
	// AuditKindRollback records a snapshot/counter rollback detection.
	AuditKindRollback = audit.KindRollback
	// AuditKindSnapshotAuth records a sealed snapshot that failed authentication.
	AuditKindSnapshotAuth = audit.KindSnapshotAuth
	// AuditKindByzantineFailover records a read failover caused by a
	// payload MAC failure.
	AuditKindByzantineFailover = audit.KindByzantineFailover
	// AuditKindReadFailover records a read served by a non-preferred replica.
	AuditKindReadFailover = audit.KindReadFailover
	// AuditKindBreakerTrip records a replica breaker opening.
	AuditKindBreakerTrip = audit.KindBreakerTrip
	// AuditKindQuorumShortfall records a replicated write that missed quorum.
	AuditKindQuorumShortfall = audit.KindQuorumShortfall
	// AuditKindRepairAnomaly records a failed or anomalous repair session.
	AuditKindRepairAnomaly = audit.KindRepairAnomaly
)

// NewAuditLog builds a tamper-evident audit log retaining up to
// capacity records (0 = default capacity). The MAC key is installed by
// the first server the log is attached to (derived inside the enclave
// from the sealing key), so create the log first and pass it to
// ServerConfig.Audit / ClusterConfig.Audit.
func NewAuditLog(capacity int) *AuditLog { return audit.New(capacity) }

// ReadAuditExport parses a signed audit export (e.g. the body of
// GET /debug/audit).
func ReadAuditExport(r io.Reader) (*AuditExport, error) { return audit.ReadExport(r) }

// VerifyAuditExport walks an exported audit chain end to end, checking
// every link hash and, when key is non-nil, every record MAC and the
// head MAC. It returns the number of verified records.
func VerifyAuditExport(e *AuditExport, key []byte) (int, error) {
	return audit.VerifyExport(e, key)
}

// Tracer sides for TracerConfig.Side.
const (
	// SideServer marks a tracer observing server-side stages (srv_*).
	SideServer = obs.SideServer
	// SideClient marks a tracer observing client-side stages (cli_*).
	SideClient = obs.SideClient
)

// NewTracer builds an operation tracer. A nil *Tracer is valid
// everywhere one is accepted and disables tracing at nil-check cost.
func NewTracer(cfg TracerConfig) *Tracer { return obs.New(cfg) }

// Re-exported workload-heat types. A HeatCollector accumulates
// heavy-hitter key hashes (never plaintext keys), ring-range load, op
// rates, bytes and batch fill on the server apply path
// (ServerConfig.Heat) and the cluster routing path (ClusterConfig.Heat);
// export it with WithHeat on a metrics endpoint (/metrics
// precursor_heat_* families and GET /debug/heat). See OBSERVABILITY.md.
type (
	// HeatCollector accumulates workload heat for one vantage point.
	HeatCollector = heat.Collector
	// HeatConfig configures NewHeatCollector.
	HeatConfig = heat.Config
	// HeatSnapshot is a point-in-time heat summary.
	HeatSnapshot = heat.Snapshot
	// HeatTopEntry is one heavy hitter (hashed key id + count bounds).
	HeatTopEntry = heat.TopEntry
	// HeatSkew quantifies load imbalance (CV and max/mean).
	HeatSkew = heat.Skew
)

// NewHeatCollector builds a workload-heat collector. A nil
// *HeatCollector is valid everywhere one is accepted and disables heat
// accounting at nil-check cost.
func NewHeatCollector(cfg HeatConfig) *HeatCollector { return heat.NewCollector(cfg) }

// HeatHashKey maps a key to the hashed id heat snapshots report — the
// same placement hash the cluster ring uses, so operators can match a
// hot hashed id against keys they know.
func HeatHashKey(key string) uint64 { return heat.HashKey(key) }

// Errors returned by store operations.
var (
	ErrNotFound  = core.ErrNotFound
	ErrReplay    = core.ErrReplay
	ErrAuth      = core.ErrAuth
	ErrClosed    = core.ErrClosed
	ErrTooLarge  = core.ErrTooLarge
	ErrTimeout   = core.ErrTimeout
	ErrIntegrity = core.ErrIntegrity
	// ErrUnconfirmed joins the causal error of a non-idempotent write
	// whose outcome is unknown (it may or may not have been applied).
	ErrUnconfirmed = core.ErrUnconfirmed
	// ErrTornSegment marks a value-log tail truncated mid-write by a
	// crash; recovery truncates it and continues (benign, by design).
	ErrTornSegment = core.ErrTornSegment
	// ErrSnapshotRollback reports stale durable state (snapshot or value
	// log) — evidence of a rollback attack or lost writes.
	ErrSnapshotRollback = core.ErrSnapshotRollback
	// ErrRetryLater reports an admission-control shed: the server was
	// overloaded (or draining) and guarantees the op was NOT applied.
	// Not a failure and never joined with ErrUnconfirmed — retry after
	// the backoff hint (see RetryLaterError and PROTOCOL.md).
	ErrRetryLater = core.ErrRetryLater
)

// Re-exported overload-protection types. A server sheds excess load at
// ring pickup through ServerConfig.Overload (sealed RETRY_LATER
// replies with backoff hints); pools retry sheds under a shared
// token-bucket retry budget; the cluster client hedges slow reads
// under the same budget discipline. See PROTOCOL.md "RETRY_LATER" and
// OBSERVABILITY.md "Overload".
type (
	// OverloadGate is the server-side admission controller
	// (ServerConfig.Overload).
	OverloadGate = overload.Gate
	// OverloadGateConfig configures NewOverloadGate.
	OverloadGateConfig = overload.GateConfig
	// OverloadGateStats is an admission gate's counter snapshot.
	OverloadGateStats = overload.GateStats
	// RetryBudget is the token bucket bounding retry amplification.
	RetryBudget = overload.RetryBudget
	// RetryBudgetStats is a retry budget's counter snapshot.
	RetryBudgetStats = overload.BudgetStats
	// RetryLaterError is the concrete ErrRetryLater carrying the
	// server's backoff hint (extract with errors.As).
	RetryLaterError = core.RetryLaterError
)

// NewOverloadGate builds a server admission gate for
// ServerConfig.Overload (zero-value config takes sane defaults; a nil
// gate disables load-based admission control).
func NewOverloadGate(cfg OverloadGateConfig) *OverloadGate { return overload.NewGate(cfg) }

// NewPlatform creates an SGX platform with a fresh attestation key.
func NewPlatform(opts ...sgx.PlatformOption) (*Platform, error) {
	return sgx.NewPlatform(opts...)
}

// LoadOrCreatePlatform restores (or creates) a persistent platform
// identity in dir, so a restarted server still attests under the same
// key and can open its previously sealed snapshots.
func LoadOrCreatePlatform(dir string, opts ...sgx.PlatformOption) (*Platform, error) {
	return sgx.LoadOrCreatePlatform(dir, opts...)
}

// OpenFileCounter opens a durable trusted monotonic counter for
// ServerConfig.RollbackCounter (see the trust caveat on sgx.FileCounter).
func OpenFileCounter(path string) (*sgx.FileCounter, error) {
	return sgx.OpenFileCounter(path)
}

// NewFabric creates an in-process RDMA fabric.
func NewFabric() *Fabric { return rdma.NewFabric() }

// NewServer creates and starts a Precursor server on the given device.
func NewServer(device *Device, cfg ServerConfig) (*Server, error) {
	return core.NewServer(device, cfg)
}

// Connect attests the server enclave and establishes a client session.
func Connect(cfg ClientConfig) (*Client, error) { return core.Connect(cfg) }
