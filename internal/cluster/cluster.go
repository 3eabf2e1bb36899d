// Package cluster implements client-routed sharding for Precursor.
//
// Precursor's design is client-centric: the client already performs the
// payload cryptography, so the server enclave stays minimal (§3.2). This
// package extends the same argument to scale-out. Shard placement is
// computed on the client from a consistent-hash ring over the shard
// names; each shard is an ordinary single-node Precursor server that the
// client attests independently. The servers never learn the ring, never
// talk to each other, and need no inter-enclave channel — the trust model
// of the single-node system carries over shard by shard.
//
// The pieces:
//
//   - Ring: a consistent-hash ring with virtual nodes (ring.go). Stable
//     across membership lists: adding a shard moves ~1/N of the keyspace.
//   - Client: routes Put/Get/Delete/Batch by key hash to per-shard
//     backends, tracks per-shard health with retry/backoff so a dead
//     shard fails fast (typed ShardError wrapping ErrShardDown) instead of
//     hanging every operation, and aggregates per-shard statistics.
//   - One route (route.go): each ring position is a ReplicaGroup of R
//     servers (R = 1 for a plain shard) and every operation
//     a work list (of one for Put/Get/Delete). Writes fan out to every
//     live replica and succeed on a quorum of acks; reads come from the
//     fastest healthy replica with transparent failover (the client-side
//     payload MAC is the integrity backstop against a Byzantine replica).
//     Group size picks no path: a group of one is a fan-out of one. A
//     recovering replica with peers is repaired — donor sealed snapshot +
//     delta + journal replay (repair.go) — before it serves again.
//   - Topology: deployment bookkeeping shared by cmd/precursor-server's
//     -shard i/n mode and cmd/precursor-cluster (server.go).
//
// The public entry points live in the root package:
// precursor.ServeReplicatedCluster launches an in-process deployment of
// groups×replicas servers over the TCP fabric (groups of one: N shards),
// and precursor.DialReplicatedCluster — or DialCluster, for the flat
// shard list separately run servers print — attests and connects to one.
package cluster

import (
	"errors"
	"fmt"
)

// Errors returned by cluster operations.
var (
	// ErrNoShards is returned by NewReplicated when the group list is empty.
	ErrNoShards = errors.New("precursor/cluster: no shards")
	// ErrShardDown is wrapped by ShardError while a shard's breaker is
	// open: the shard failed recently and the retry backoff has not
	// elapsed, so operations routed to it fail immediately.
	ErrShardDown = errors.New("precursor/cluster: shard down")
	// ErrClientClosed is returned by operations on a closed cluster client.
	ErrClientClosed = errors.New("precursor/cluster: client closed")
	// ErrNoQuorum is wrapped by ShardError when a replicated write got
	// fewer acks than the group's write quorum. If any replica did apply
	// the write, core.ErrUnconfirmed is joined in as well: the outcome is
	// indeterminate until anti-entropy repair reconverges the group.
	ErrNoQuorum = errors.New("precursor/cluster: write quorum not reached")
)

// ShardError ties an operation failure to the shard it was routed to, so
// callers can tell a routing-destination outage from a data error.
type ShardError struct {
	Shard string // the replica or group it was routed to (one name, in a group of one)
	Err   error  // underlying cause (ErrShardDown while the breaker is open)
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("precursor/cluster: shard %s: %v", e.Shard, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }
