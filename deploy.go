package precursor

import (
	"crypto/ecdsa"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"precursor/internal/core"
	"precursor/internal/rdma"
)

// Service is a Precursor server listening on the TCP fabric: the
// cross-process deployment path (cmd/precursor-server wraps it).
type Service struct {
	Server *Server

	listener *rdma.TCPListener
	stopOnce sync.Once
	done     chan struct{}

	connMu sync.Mutex
	conns  []rdma.Conn
}

// Serve starts a Precursor server on addr over the TCP fabric and accepts
// client connections until Close. Pass ":0" to pick a free port; Addr
// reports the bound address.
func Serve(addr string, cfg ServerConfig) (*Service, error) {
	device := rdma.NewDevice("precursor-server")
	server, err := core.NewServer(device, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := rdma.ListenTCP(device, addr)
	if err != nil {
		server.Close()
		return nil, err
	}
	svc := &Service{Server: server, listener: ln, done: make(chan struct{})}
	go func() {
		defer close(svc.done)
		for {
			qp, err := ln.Accept()
			if err != nil {
				return
			}
			// Track the accepted queue pair so Close can sever it: a
			// stopping server must hang up on its clients, or their
			// in-flight operations sit out the full op timeout before
			// discovering the outage (a cluster client's failover would
			// be timeout-bound instead of detection-bound). One that
			// failed is dead for good: it is closed and let go.
			svc.connMu.Lock()
			live := svc.conns[:0]
			for _, c := range svc.conns {
				if c.Failed() {
					_ = c.Close()
				} else {
					live = append(live, c)
				}
			}
			clear(svc.conns[len(live):])
			svc.conns = append(live, qp)
			svc.connMu.Unlock()
			go func() {
				if _, err := server.HandleConnection(qp); err != nil {
					_ = qp.Close()
				}
			}()
		}
	}()
	return svc, nil
}

// Addr returns the service's bound address.
func (s *Service) Addr() string { return s.listener.Addr() }

// Close stops accepting connections, hangs up on connected clients and
// shuts the server down.
func (s *Service) Close() {
	s.stopOnce.Do(func() {
		_ = s.listener.Close()
		<-s.done
		s.connMu.Lock()
		conns := s.conns
		s.conns = nil
		s.connMu.Unlock()
		for _, qp := range conns {
			_ = qp.Close()
		}
		s.Server.Close()
	})
}

// ReplicatedClusterService is an in-process deployment whose ring
// positions are replica groups: Groups[g] holds R independent Services
// that replicate the same key range. A group of one is a plain shard, so
// ServeReplicatedCluster(n, 1, cfg) is the N-shard deployment. Replicas
// of a group share one platform (and the same enclave image), so their
// sealing keys match and a sealed snapshot taken on one replica restores
// on another — the transfer anti-entropy repair performs. Clients drive
// the replication; see DialReplicatedCluster.
type ReplicatedClusterService struct {
	// Groups are the running services, Groups[g][r] = replica r of group g.
	Groups [][]*Service

	platforms []*Platform    // one per group, shared by its replicas
	cfgs      []ServerConfig // per-group config (with Platform set)
}

// ServeReplicatedCluster launches groups×replicas servers over the TCP
// fabric: `groups` ring positions, each backed by `replicas` copies.
// When cfg.Platform is nil each *group* gets a fresh platform shared by
// its replicas (clients still attest every replica separately; replicas
// of different groups share nothing). With a DataDir, replica r of group
// g keeps its value log in DataDir/group-g/replica-r.
func ServeReplicatedCluster(groups, replicas int, cfg ServerConfig) (*ReplicatedClusterService, error) {
	if groups <= 0 || replicas <= 0 {
		return nil, fmt.Errorf("precursor: replicated cluster needs groups>0 and replicas>0, got %d×%d", groups, replicas)
	}
	cs := &ReplicatedClusterService{}
	for g := 0; g < groups; g++ {
		groupCfg := cfg
		if groupCfg.Platform == nil {
			platform, err := NewPlatform()
			if err != nil {
				cs.Close()
				return nil, fmt.Errorf("group %d platform: %w", g, err)
			}
			groupCfg.Platform = platform
		}
		cs.Groups = append(cs.Groups, nil)
		cs.platforms = append(cs.platforms, groupCfg.Platform)
		cs.cfgs = append(cs.cfgs, groupCfg)
		for r := 0; r < replicas; r++ {
			svc, err := Serve("127.0.0.1:0", cs.replicaConfig(g, r))
			if err != nil {
				cs.Close()
				return nil, fmt.Errorf("group %d replica %d: %w", g, r, err)
			}
			cs.Groups[g] = append(cs.Groups[g], svc)
		}
	}
	return cs, nil
}

// replicaConfig is replica r of group g's ServerConfig: its group's, with
// a value-log directory of its own — replicas share a sealing key but
// never a value log, so repairs restore into fresh logs.
func (cs *ReplicatedClusterService) replicaConfig(g, r int) ServerConfig {
	cfg := cs.cfgs[g]
	if cfg.DataDir != "" {
		cfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("group-%d", g), fmt.Sprintf("replica-%d", r))
	}
	return cfg
}

// GroupSpecs returns the per-group ShardSpecs a client needs to
// DialReplicatedCluster this deployment.
func (cs *ReplicatedClusterService) GroupSpecs() [][]ShardSpec {
	specs := make([][]ShardSpec, len(cs.Groups))
	for g, members := range cs.Groups {
		for _, svc := range members {
			specs[g] = append(specs[g], ShardSpec{
				Addr:        svc.Addr(),
				PlatformKey: cs.platforms[g].AttestationPublicKey(),
				Measurement: svc.Server.Measurement(),
			})
		}
	}
	return specs
}

// RestartReplica kills replica r of group g and starts a fresh server —
// empty state, same address, same platform (so its attestation identity
// and sealing key are unchanged). This models a machine rebooting after
// a crash: the replica must be repaired from its peers (snapshot + delta
// replay through a repairing client) before it holds any data again.
func (cs *ReplicatedClusterService) RestartReplica(g, r int) (*Service, error) {
	if g < 0 || g >= len(cs.Groups) || r < 0 || r >= len(cs.Groups[g]) {
		return nil, fmt.Errorf("precursor: no replica %d/%d", g, r)
	}
	old := cs.Groups[g][r]
	addr := old.Addr()
	old.Close()
	svc, err := Serve(addr, cs.replicaConfig(g, r))
	if err != nil {
		return nil, fmt.Errorf("restart replica %d/%d on %s: %w", g, r, addr, err)
	}
	cs.Groups[g][r] = svc
	return svc, nil
}

// Close shuts every replica of every group down.
func (cs *ReplicatedClusterService) Close() {
	for _, members := range cs.Groups {
		for _, svc := range members {
			svc.Close()
		}
	}
}

// DialConfig configures Dial.
type DialConfig struct {
	// PlatformKey verifies the server's attestation quotes; required.
	PlatformKey *ecdsa.PublicKey
	// Measurement pins the expected enclave build; required.
	Measurement Measurement
	// Timeout bounds each operation (default 5 s).
	Timeout time.Duration
	// ReadRetries bounds the extra attempts an idempotent read makes
	// after a transient failure, within Timeout (0 = default, <0 = off).
	// A shed is returned, not retried: a Pool retries it under its budget.
	ReadRetries int
	// WrapConn, when set, interposes on the freshly dialed queue pair
	// before the attestation handshake — the hook the chaos harness uses
	// to inject transport faults (internal/faultfab), also usable for
	// tracing or traffic accounting. Must return a conn that delegates
	// to its argument.
	WrapConn func(rdma.Conn) rdma.Conn
	// Tracer, when set, records client-side stage timing for every
	// operation (see OBSERVABILITY.md). Share one SideClient tracer
	// across pooled or sharded connections to aggregate their stats.
	Tracer *Tracer
}

// Dial connects to a Serve-d Precursor instance over the TCP fabric,
// performing remote attestation before any data flows.
func Dial(addr string, cfg DialConfig) (*Client, error) {
	if cfg.PlatformKey == nil {
		return nil, fmt.Errorf("precursor: DialConfig.PlatformKey is required")
	}
	device := rdma.NewDevice("precursor-client-" + addr)
	conn, err := rdma.DialTCP(device, addr)
	if err != nil {
		return nil, err
	}
	var wrapped rdma.Conn = conn
	if cfg.WrapConn != nil {
		wrapped = cfg.WrapConn(conn)
	}
	client, err := core.Connect(core.ClientConfig{
		Conn: wrapped, Device: device,
		PlatformKey: cfg.PlatformKey,
		Measurement: cfg.Measurement,
		Timeout:     cfg.Timeout,
		ReadRetries: cfg.ReadRetries,
		Tracer:      cfg.Tracer,
	})
	if err != nil {
		_ = wrapped.Close()
		return nil, err
	}
	return client, nil
}
