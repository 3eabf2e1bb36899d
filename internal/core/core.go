// Package core implements Precursor: the client-centric, SGX-and-RDMA
// key-value store that is the paper's contribution.
//
// The protocol follows §3 exactly:
//
//   - Each request is split into transport-encrypted control data, whose
//     plaintext only the server enclave sees, and payload data that the
//     client encrypted under a fresh one-time key K_operation; the payload
//     never enters the enclave (Fig. 2/3).
//   - Clients write requests into per-client circular buffers in the
//     server's untrusted memory using one-sided RDMA WRITEs; trusted
//     threads poll those rings (one long-running ecall at startup, no
//     per-request transitions), and untrusted worker threads post replies
//     back into per-client response rings (§3.8).
//   - The enclave's state per entry is only the key, K_operation, a pointer
//     into the untrusted payload pool, and replay metadata — a few dozen
//     bytes — so the EPC working set stays tiny (§3.3, §5.4).
//   - Per-client monotonically increasing operation identifiers (oid) are
//     verified inside the enclave to reject replays (Algorithms 1 and 2).
//
// Three optional modes from the paper are implemented: the hardened
// in-enclave-MAC mode of the security discussion (§3.9) against value
// substitution by formerly authorized clients, the small-value inline mode
// sketched as future work in §5.2, and the evaluation's server-encryption
// baseline (§5.1), which re-seals every value inside the enclave.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"precursor/internal/audit"
	"precursor/internal/heat"
	"precursor/internal/obs"
	"precursor/internal/overload"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
)

// Errors returned by the store.
var (
	ErrNotFound     = errors.New("precursor: key not found")
	ErrServerFull   = errors.New("precursor: server at client capacity")
	ErrReplay       = errors.New("precursor: replay detected (stale oid)")
	ErrAuth         = errors.New("precursor: authentication failed")
	ErrBadResponse  = errors.New("precursor: malformed or unfresh response")
	ErrClosed       = errors.New("precursor: connection closed")
	ErrRevoked      = errors.New("precursor: client revoked")
	ErrTooLarge     = errors.New("precursor: key or value too large")
	ErrTimeout      = errors.New("precursor: request timed out")
	ErrIntegrity    = errors.New("precursor: payload integrity check failed")
	ErrBadBootstrap = errors.New("precursor: malformed bootstrap message")
	// ErrPoolClosed is returned by operations on a closed pool.
	ErrPoolClosed = errors.New("precursor: pool closed")
	// ErrUnconfirmed marks a non-idempotent write whose outcome is
	// unknown: the request may or may not have been applied. It never
	// appears alone — it is joined onto the causal error (ErrTimeout or
	// ErrReplay), so errors.Is works against either.
	ErrUnconfirmed = errors.New("precursor: write outcome unconfirmed")
	// ErrRetryLater is the admission-control shed outcome: the server is
	// overloaded (or draining) and refused the operation before applying
	// it. It is not a failure and never joins ErrUnconfirmed — the
	// sealed RETRY_LATER reply guarantees the op was NOT applied, so
	// both reads and writes may be retried safely after the server's
	// backoff hint (see RetryHint).
	ErrRetryLater = errors.New("precursor: server overloaded, retry later")
)

// RetryLaterError is the concrete error behind ErrRetryLater: an
// admission-control shed carrying the server's backoff hint. It
// matches errors.Is(err, ErrRetryLater), and callers that honor the
// hint extract it with errors.As. Hint 0 means the server offered no
// suggestion.
type RetryLaterError struct {
	// Hint is the server-suggested backoff before retrying.
	Hint time.Duration
}

// Error implements the error interface.
func (e *RetryLaterError) Error() string {
	if e.Hint <= 0 {
		return ErrRetryLater.Error()
	}
	return fmt.Sprintf("%s (hint %v)", ErrRetryLater.Error(), e.Hint)
}

// Is reports target == ErrRetryLater, so errors.Is sees through the
// concrete type.
func (e *RetryLaterError) Is(target error) bool { return target == ErrRetryLater }

// Default geometry. Ring slots hold a full request (header + sealed
// control + payload + MAC), so the slot size bounds the value size.
const (
	DefaultRingSlots  = 32
	DefaultSlotSize   = 20 * 1024
	DefaultWorkers    = 12 // the evaluation's server thread count
	DefaultEntryBytes = 92 // per-bucket enclave bytes (key + metadata)
	DefaultImagePages = 45 // enclave code + static data (≈180 KiB)
	// DefaultInlineMax is the control-data size (≈56 B, §5.2) under which
	// the inline-small-value mode stores values inside the enclave.
	DefaultInlineMax = 56
	// DefaultReadRetries is the default number of extra attempts an
	// idempotent read makes after a transient failure.
	DefaultReadRetries = 2
)

// ServerConfig configures a Precursor server instance.
type ServerConfig struct {
	// Platform hosts the server enclave; required.
	Platform *sgx.Platform
	// Image identifies the enclave binary for attestation. Clients must
	// expect its measurement.
	Image []byte
	// Workers is the number of trusted polling threads (default 12,
	// matching the evaluation).
	Workers int
	// HardenedMACs stores payload MACs inside the enclave and returns them
	// under transport encryption (§3.9).
	HardenedMACs bool
	// InlineSmallValues stores values shorter than DefaultInlineMax in the
	// enclave (§5.2 future-work optimization). Clients follow the welcome's
	// bound; the enclave refuses every other inline put.
	InlineSmallValues bool
	// ServerEncryption is the §5.1 baseline: the enclave re-seals each value
	// between K_session and a storage key. Clients follow the server. It
	// combines with InlineSmallValues only.
	ServerEncryption bool
	// ImagePages is the enclave's static EPC footprint in pages.
	ImagePages int
	// PollInterval is the sleep of an idle trusted thread's back-off, the
	// last rung after spinning and yielding (0 means the default 20 µs);
	// negative disables sleeping (pure busy-poll, as the paper's server). A
	// thread whose sessions are all on the TCP fabric parks on their writes
	// instead.
	PollInterval time.Duration
	// MaxClients bounds concurrent sessions (0 = unlimited). The security
	// discussion (§3.9) notes an attacker can exhaust the RNIC's
	// connection cache by opening many connections; this is the
	// corresponding admission control.
	MaxClients int
	// RandomRKeys registers ring memory with unpredictable rkeys — the
	// ReDMArk-style mitigation §3.9 references.
	RandomRKeys bool
	// Logger receives structured connection-lifecycle and security events
	// (nil = silent). The hot path never logs.
	Logger *slog.Logger
	// RollbackCounter supplies the trusted monotonic counter for sealed
	// snapshots (nil = a fresh in-memory counter, which protects a single
	// process lifetime). Deployments that restore across restarts pass a
	// durable counter, e.g. sgx.OpenFileCounter — standing in for an
	// external trusted counter service (§2.1).
	RollbackCounter sgx.TrustedCounter
	// Tracer records per-stage latency spans and recent operation traces
	// (a SideServer obs.Tracer). Nil disables tracing; the hot path then
	// pays one branch per request. Spans never carry keys, values or key
	// material — see OBSERVABILITY.md.
	Tracer *obs.Tracer
	// DataDir, when set, enables the durable value log: values spill to
	// fixed-size segments under DataDir/vlog on untrusted disk while the
	// enclave keeps only the index and sealed per-record metadata (see
	// vlog.go and DESIGN.md "Trusted/untrusted storage split"). Empty
	// keeps the store memory-only, as before.
	DataDir string
	// Vlog tunes the value log; read only when DataDir is set.
	Vlog VlogConfig
	// Audit, when set, receives a tamper-evident record of every
	// security-relevant detection this server makes (attestation
	// failures, MAC failures, replay rejections, rollback detections,
	// repair-session anomalies). NewServer keys the log with a MAC key
	// derived from the enclave's sealing key; a log shared across the
	// replicas of a group keeps the first key installed (replicas of one
	// group share a platform, so the key is the same). Nil disables
	// auditing at the cost of one branch per detection.
	Audit *audit.Log
	// Heat, when set, accumulates workload heat on the apply path —
	// heavy-hitter key hashes, ring-range load, op rates, bytes and
	// batch fill — inside the enclave boundary (only hashed key ids
	// ever leave it; see internal/heat and OBSERVABILITY.md). Nil
	// disables heat accounting; the hot path then pays one branch per
	// request.
	Heat *heat.Collector
	// Overload, when set, is the admission gate consulted on every frame
	// once its control is open, before any op is applied: excess load is
	// shed with sealed RETRY_LATER replies carrying a backoff hint, a
	// frame at a time, writes preferred over reads. Nil disables load-based
	// admission control (every op is admitted; a drain-only gate still
	// sheds during graceful shutdown).
	Overload *overload.Gate
}

func (c *ServerConfig) withDefaults() ServerConfig {
	out := *c
	if out.Workers <= 0 {
		out.Workers = DefaultWorkers
	}
	if out.ImagePages <= 0 {
		out.ImagePages = DefaultImagePages
	}
	if len(out.Image) == 0 {
		out.Image = []byte("precursor-enclave-v1")
	}
	if out.PollInterval == 0 {
		out.PollInterval = 20 * time.Microsecond
	}
	return out
}

// ServerStats is a snapshot of server activity.
type ServerStats struct {
	Puts, Gets, Deletes uint64
	// Batches counts the frames of more than one op applied; BatchedOps
	// counts the operations they carried (each also counted in
	// Puts/Gets/Deletes). A frame of one is a single op.
	Batches, BatchedOps uint64
	Replays             uint64 // rejected stale/duplicate oids
	AuthFailures        uint64 // control data (server encryption: also values) failing auth
	BadRequests         uint64
	// TraceCtxErrors counts requests whose sealed control carried
	// trailing bytes that did not decode as a trace context (bad length
	// or unknown version byte) — a version-skewed peer. The request is
	// still served; only trace correlation is lost, and loudly.
	TraceCtxErrors uint64
	// EnclaveCryptoBytes counts the bytes the enclave en/decrypted: only
	// the small control segments — never payload — which is the design's
	// central claim; under ServerEncryption also two payload passes per op.
	EnclaveCryptoBytes uint64
	Entries            int
	Clients            int
	Enclave            sgx.Stats
	PoolBytesReserved  int64
	PoolBytesInUse     int64 // live slots, each counted at its class size
	// PoolBytesRequested is the stored bytes inside those slots; the gap
	// to PoolBytesInUse is size-class padding, the gap to
	// PoolBytesReserved adds free and never-used slots.
	PoolBytesRequested int64
	PoolGrowths        uint64 // ≈ ocall count for pool growth
	// Vlog reports durable value-log activity; nil when DataDir is unset.
	Vlog *VlogStats
	// SealDuration is how long the last Seal spent serializing and
	// sealing state (0 = never sealed). Index-only snapshots keep this
	// flat as the store grows — the satellite fix for seal stalls.
	SealDuration time.Duration
	// RepliesInline counts the replies a trusted thread wrote into the
	// response ring itself, RepliesQueued those it handed to the sender
	// pool, one goroutine hand-off each (ring out of credit, replies queued
	// already, or a transport whose post can stall: the TCP fabric always).
	RepliesInline, RepliesQueued uint64
	// PollSpins, PollYields and PollSleeps count the trusted threads' idle
	// sweeps: those that went straight on, yielded, or slept PollInterval
	// or parked; PollParksWoken and PollParksCapped count the parks a write
	// ended and those that ran to ringbuf.ParkCap.
	PollSpins, PollYields, PollSleeps, PollParksWoken, PollParksCapped uint64
	// Fabric counts the TCP fabric's frames, socket reads and acks on the
	// server's device.
	Fabric rdma.FabricStats
	// ShedReads and ShedWrites count the frames refused by the admission
	// gate with a sealed RETRY_LATER — a frame of gets only is a read, any
	// other a write (both zero when ServerConfig.Overload is nil).
	ShedReads, ShedWrites uint64
	// Draining reports whether the server is in graceful drain: every
	// op is shed while in-flight work finishes ahead of seal-and-exit.
	Draining bool
}
