package precursor

import (
	"crypto/ecdsa"
	"fmt"
	"sort"
	"strings"
	"time"

	"precursor/internal/cluster"
	"precursor/internal/overload"
)

// Client-routed sharding: the public surface of internal/cluster.
//
// A Precursor cluster is N independent single-node servers. The client
// owns shard placement — a consistent-hash ring over the shard addresses
// — and attests every shard's enclave separately before any data flows.
// The servers never coordinate, so the paper's single-node trust model
// (§2.3) carries over unchanged; see DESIGN.md §5, "Scaling out".

// Re-exported cluster types.
type (
	// ClusterClient routes Put/Get/Delete across shards by key hash.
	ClusterClient = cluster.Client
	// ClusterStats aggregates per-shard activity and health.
	ClusterStats = cluster.Stats
	// ClusterShardStats is one shard's slice of ClusterStats.
	ClusterShardStats = cluster.ShardStats
	// ShardError attributes an operation failure to a shard.
	ShardError = cluster.ShardError
	// Ring is the consistent-hash placement ring.
	Ring = cluster.Ring
)

// Cluster errors.
var (
	// ErrShardDown marks fail-fast errors for a shard whose breaker is open.
	ErrShardDown = cluster.ErrShardDown
	// ErrNoShards is returned when a cluster has no members.
	ErrNoShards = cluster.ErrNoShards
	// ErrNoQuorum marks replicated writes that missed their write quorum.
	ErrNoQuorum = cluster.ErrNoQuorum
)

// ShardSpec tells DialCluster how to reach and attest one shard. Serve a
// shard with precursor-server -shard i/n and copy its printed address,
// attestation key and measurement here; an in-process deployment hands
// them out itself (ReplicatedClusterService.GroupSpecs).
type ShardSpec struct {
	// Addr is the shard's TCP-fabric address. It doubles as the shard's
	// ring name, so every client must list the same addresses.
	Addr string
	// PlatformKey verifies this shard's attestation quotes; required.
	PlatformKey *ecdsa.PublicKey
	// Measurement pins this shard's expected enclave build; required.
	Measurement Measurement
}

// ClusterConfig configures DialCluster.
type ClusterConfig struct {
	// ConnsPerShard sets each shard's connection-pool size (default 1).
	// With >1, many goroutines can drive the cluster client concurrently.
	ConnsPerShard int
	// Timeout bounds each operation (default 5 s).
	Timeout time.Duration
	// RetryBackoff is the base delay before a failed shard is probed
	// again (default 250 ms, doubling up to MaxBackoff).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// ReadRetries is forwarded to each shard connection's DialConfig.
	ReadRetries int
	// WrapConn is forwarded to each shard connection's DialConfig (fault
	// injection, tracing). It sees every connection of every shard.
	WrapConn func(Conn) Conn
	// Tracer is forwarded to each shard connection's DialConfig: one
	// SideClient tracer shared by every connection of every shard, so
	// /metrics shows cluster-wide client-side stage latency.
	Tracer *Tracer
	// ClusterTracer, when set, records cluster-level operations as
	// traces of their own: replicated writes appear with one cli_replica
	// child span per fanned-out replica, and replication faults (breaker
	// trips, failovers, repairs) appear as fault annotations. Use a
	// separate SideClient tracer from Tracer so per-connection stage
	// timings and per-operation fan-out views stay distinct.
	ClusterTracer *Tracer
	// Audit, when set, receives tamper-evident records of the cluster
	// client's security-relevant events: quorum shortfalls, Byzantine
	// read failovers, breaker trips and repair anomalies. Share one log
	// with the replica servers (ServerConfig.Audit) for a single fleet
	// chain.
	Audit *AuditLog
	// Heat, when set, accumulates routing-path workload heat (hashed
	// heavy hitters, ring-range load, op rates) as this client routes;
	// export it with WithHeat on a metrics endpoint. Nil disables.
	Heat *HeatCollector
	// HedgeReads enables budget-guarded read hedging in replicated
	// groups: a read the fastest replica has not answered within a p95
	// estimate of its latency is also issued to the next healthy
	// replica, and the first sealed-valid reply wins. A hedge spends a
	// retry-budget token that successful reads earned, never the bucket's
	// standing allowance, so hedges stay within one read in ten (the
	// default ratio) from the first read on: tail-latency insurance can
	// never become a read storm. A group of one has nowhere to hedge.
	HedgeReads bool
	// HedgeMinDelay floors the hedge delay (default 1 ms).
	HedgeMinDelay time.Duration
	// RetryBudget, when set, is shared by the cluster client's hedged
	// reads and the overload retries of every pool it dials; nil installs
	// a per-client default bucket shared the same way (see OverloadGate /
	// RetryBudget in this package). A read the client completes deposits
	// a share hedges and retries may spend, a write one only retries may.
	RetryBudget *RetryBudget

	// Replication (groups of more than one replica).

	// WriteQuorum is the number of replica acks a write needs in a
	// replicated group (0 = majority of the group).
	WriteQuorum int
	// RepairInterval is the cadence of the background probe/repair scan
	// over replicated groups (default 250 ms).
	RepairInterval time.Duration
	// DisableAutoRepair turns the background repair goroutine off
	// (deterministic tests only).
	DisableAutoRepair bool
}

// DialCluster connects to every shard — attesting each enclave
// independently — and returns a client that routes operations by
// consistent key hash. A shard that later dies fails fast with a
// ShardError wrapping ErrShardDown while the others keep serving; see
// ClusterClient.Degraded. It is DialReplicatedCluster over groups of one:
// a lone shard's GroupName is its address, so placement is by address.
func DialCluster(shards []ShardSpec, cfg ClusterConfig) (*ClusterClient, error) {
	groups := make([][]ShardSpec, len(shards))
	for i := range shards {
		groups[i] = shards[i : i+1]
	}
	return DialReplicatedCluster(groups, cfg)
}

// GroupName derives the ring name of a replica group from its members'
// addresses: the sorted addresses joined with "|". Placement therefore
// depends only on the membership *set*, so every client that lists the
// same replicas — in any order — routes identically.
func GroupName(replicas []ShardSpec) string {
	addrs := make([]string, len(replicas))
	for i, r := range replicas {
		addrs[i] = r.Addr
	}
	sort.Strings(addrs)
	return strings.Join(addrs, "|")
}

// DialReplicatedCluster connects to a cluster whose ring positions are
// replica groups (see ServeReplicatedCluster): each inner slice is one
// group of R independently attested servers holding the same key range.
// Writes fan out to every live replica of the owning group and succeed
// on cfg.WriteQuorum acks; reads come from the fastest healthy replica
// and fail over transparently, so killing one replica of an R>1 group
// never surfaces ErrShardDown. A replica that comes back is repaired
// through attested anti-entropy sessions (sealed snapshot + delta +
// journal replay) before it serves again.
//
// Replicas of a group must share a platform and enclave image — their
// sealing keys must match for snapshots to transfer (PROTOCOL.md §10).
func DialReplicatedCluster(groups [][]ShardSpec, cfg ClusterConfig) (*ClusterClient, error) {
	if len(groups) == 0 {
		return nil, ErrNoShards
	}
	if cfg.ConnsPerShard <= 0 {
		cfg.ConnsPerShard = 1
	}
	// Every connection to a replica, its pool's and each repair session,
	// is dialed the same way.
	dialCfg := func(spec ShardSpec) DialConfig {
		return DialConfig{PlatformKey: spec.PlatformKey, Measurement: spec.Measurement, Timeout: cfg.Timeout,
			ReadRetries: cfg.ReadRetries, WrapConn: cfg.WrapConn, Tracer: cfg.Tracer}
	}
	budget := cfg.RetryBudget
	if budget == nil {
		budget = overload.NewRetryBudget(0, 0)
	}
	specByAddr := make(map[string]ShardSpec)
	members := make([]cluster.ReplicaGroup, 0, len(groups))
	fail := func(err error) (*ClusterClient, error) {
		for _, g := range members {
			for _, r := range g.Replicas {
				_ = r.Backend.Close()
			}
		}
		return nil, err
	}
	for i, g := range groups {
		if len(g) == 0 {
			return fail(fmt.Errorf("precursor: replica group %d is empty", i))
		}
		rg := cluster.ReplicaGroup{Name: GroupName(g)}
		for _, spec := range g {
			pool, err := NewPool(spec.Addr, dialCfg(spec), cfg.ConnsPerShard)
			if err != nil {
				return fail(fmt.Errorf("replica %s: %w", spec.Addr, err))
			}
			pool.budget, pool.earn = budget, nil
			rg.Replicas = append(rg.Replicas, cluster.Shard{Name: spec.Addr, Backend: pool})
			specByAddr[spec.Addr] = spec
		}
		members = append(members, rg)
	}
	openRepair := func(replica string) (cluster.RepairSession, error) {
		spec, ok := specByAddr[replica]
		if !ok {
			return nil, fmt.Errorf("precursor: unknown replica %q", replica)
		}
		// A repair session is an ordinary attested connection (PROTOCOL.md §10).
		c, err := Dial(replica, dialCfg(spec))
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	return cluster.NewReplicated(members, cluster.Options{
		RetryBackoff:      cfg.RetryBackoff,
		MaxBackoff:        cfg.MaxBackoff,
		WriteQuorum:       cfg.WriteQuorum,
		OpenRepair:        openRepair,
		RepairInterval:    cfg.RepairInterval,
		DisableAutoRepair: cfg.DisableAutoRepair,
		Tracer:            cfg.ClusterTracer,
		Audit:             cfg.Audit,
		Heat:              cfg.Heat,
		HedgeReads:        cfg.HedgeReads,
		HedgeMinDelay:     cfg.HedgeMinDelay,
		Budget:            budget,
	})
}
