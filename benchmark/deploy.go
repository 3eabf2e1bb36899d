package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"precursor"
	"precursor/internal/rdma"
)

// store is what the single-op load loop drives; both *precursor.Client
// and *precursor.ClusterClient satisfy it.
type store interface {
	Get(key string) ([]byte, error)
	Put(key string, value []byte) error
}

// batcher is what the batch load loop drives.
type batcher interface {
	Batch(ops []precursor.BatchOp) ([]precursor.BatchResult, error)
}

// countingConn counts the verbs and bytes posted on one queue-pair end.
type countingConn struct {
	rdma.Conn
	counts *connCounts
}

type connCounts struct {
	verbs, bytes atomic.Uint64
}

func (c countingConn) note(n int) {
	c.counts.verbs.Add(1)
	c.counts.bytes.Add(uint64(n))
}

func (c countingConn) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	c.note(len(data))
	return c.Conn.PostWrite(wrID, rkey, off, data, signaled)
}

func (c countingConn) PostWriteImm(wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, signaled bool) error {
	c.note(len(data))
	return c.Conn.PostWriteImm(wrID, rkey, off, data, imm, signaled)
}

func (c countingConn) PostRead(wrID uint64, rkey uint32, off uint64, dst []byte) error {
	c.note(len(dst))
	return c.Conn.PostRead(wrID, rkey, off, dst)
}

func (c countingConn) PostSend(wrID uint64, data []byte, signaled, inline bool) error {
	c.note(len(data))
	return c.Conn.PostSend(wrID, data, signaled, inline)
}

// deployment is one running store with its client side attached.
type deployment struct {
	spec    workloadSpec
	servers []*precursor.Server

	kv    store
	batch batcher // nil unless in-process

	client  *precursor.Client        // in-process only
	cluster *precursor.ClusterClient // replicated only
	service *precursor.ReplicatedClusterService
	specs   [][]precursor.ShardSpec

	// Set on a traced deployment only.
	cliTracer, srvTracer *precursor.Tracer
	counts               *connCounts

	dataDir, dataDirFS, dataDirNote string

	closers []func()
}

// opTimeout replaces the clients' default 5 s operation deadline. On a
// shared host the whole VM is sometimes descheduled for seconds (98 s of
// steal time in 100 minutes while this was written); with the default, the
// op in flight across such a stall fails as timed out and the run with it.
// With a minute it is a slow op — visible in the tail, as it should be.
const opTimeout = time.Minute

// traceRing is how many recent operations each tracer keeps: the stage
// medians of a traced run are taken over these, which are all from the
// end of the traced windows (Tracer.Snapshot is cumulative since
// construction and would mix the preload in).
const traceRing = 4096

// deploy starts the workload's store and connects its client(s). With
// traced set it also attaches the existing public tracers on both sides
// and wraps the queue pairs in a counting conn; nothing else differs.
func deploy(spec workloadSpec, traced bool, outDir string) (*deployment, error) {
	d := &deployment{spec: spec}
	if traced {
		d.cliTracer = precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideClient, Ring: traceRing})
		d.srvTracer = precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideServer, Ring: traceRing})
		d.counts = &connCounts{}
	}
	var err error
	if spec.Deploy == deployReplicated {
		err = d.startReplicated(outDir)
	} else {
		err = d.startInProc()
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) wrap(c rdma.Conn) rdma.Conn {
	if d.counts == nil {
		return c
	}
	return countingConn{Conn: c, counts: d.counts}
}

func (d *deployment) startInProc() error {
	platform, err := precursor.NewPlatform()
	if err != nil {
		return err
	}
	fabric := precursor.NewFabric()
	sdev, err := fabric.NewDevice("server")
	if err != nil {
		return err
	}
	// One trusted poller: with the one client it keeps busy threads equal
	// to the two cores this benchmark is sized for.
	server, err := precursor.NewServer(sdev, precursor.ServerConfig{
		Platform: platform, Workers: 1, Tracer: d.srvTracer,
	})
	if err != nil {
		return err
	}
	d.servers = []*precursor.Server{server}
	d.closers = append(d.closers, server.Close)
	cdev, err := fabric.NewDevice("client")
	if err != nil {
		return err
	}
	cq, sq := fabric.ConnectRC(cdev, sdev)
	handshake := make(chan error, 1)
	go func() {
		_, err := server.HandleConnection(d.wrap(sq))
		handshake <- err
	}()
	client, err := precursor.Connect(precursor.ClientConfig{
		Conn: d.wrap(cq), Device: cdev,
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: server.Measurement(),
		Timeout:     opTimeout,
		Tracer:      d.cliTracer,
	})
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	d.closers = append(d.closers, func() { _ = client.Close() })
	if err := <-handshake; err != nil {
		return fmt.Errorf("server handshake: %w", err)
	}
	d.client, d.kv, d.batch = client, client, client
	return nil
}

func (d *deployment) startReplicated(outDir string) error {
	dir, fsType, note, err := makeDataDir(outDir)
	if err != nil {
		return fmt.Errorf("data dir: %w", err)
	}
	d.dataDir, d.dataDirFS, d.dataDirNote = dir, fsType, note
	d.closers = append(d.closers, func() { _ = os.RemoveAll(dir) })
	// Workers 1 per replica for the same reason as in-process: two
	// servers with the default twelve pollers each would spin twenty-four
	// goroutines on two cores. The log's segments are pinned small: with
	// the default 64 MiB a run sees two to four compactions of ~30 MiB
	// each, and whether the last one lands inside the measured phase moved
	// allocs_per_op by 8% between runs; 8 MiB segments make compaction a
	// steady trickle (1.5%). GC stays on, at its default 2 s scan.
	service, err := precursor.ServeReplicatedCluster(1, 2, precursor.ServerConfig{
		Workers: 1,
		DataDir: dir,
		Vlog:    precursor.VlogConfig{MemoryCapBytes: vlogMemoryCap, SegmentBytes: vlogSegmentBytes},
		Tracer:  d.srvTracer,
	})
	if err != nil {
		return err
	}
	d.service = service
	d.closers = append(d.closers, service.Close)
	for _, svc := range service.Groups[0] {
		d.servers = append(d.servers, svc.Server)
	}
	d.specs = service.GroupSpecs()
	cfg := precursor.ClusterConfig{ConnsPerShard: 2, WriteQuorum: 2, Timeout: opTimeout, Tracer: d.cliTracer}
	if d.counts != nil {
		cfg.WrapConn = d.wrap
	}
	cluster, err := precursor.DialReplicatedCluster(d.specs, cfg)
	if err != nil {
		return err
	}
	d.cluster, d.kv = cluster, cluster
	d.closers = append(d.closers, func() { _ = cluster.Close() })
	return nil
}

// closeCluster closes the cluster client early (the restart check needs
// the replicas to itself); Close tolerates the second close.
func (d *deployment) closeCluster() {
	if d.cluster != nil {
		_ = d.cluster.Close()
	}
}

// Close stops everything deploy started, last started first, and waits
// for it to end.
func (d *deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// dialReplica opens a direct, attested connection to one replica,
// bypassing the cluster client and its pools.
func (d *deployment) dialReplica(addr string, replica int) (*precursor.Client, error) {
	spec := d.specs[0][replica]
	return precursor.Dial(addr, precursor.DialConfig{
		PlatformKey: spec.PlatformKey,
		Measurement: spec.Measurement,
		Timeout:     opTimeout,
	})
}

// counters is a snapshot of every counter the per-layer metrics take
// deltas of, summed over replicas where there are several.
type counters struct {
	srv     precursor.ServerStats // summed
	vlog    precursor.VlogStats   // summed; zero when no value log
	hasVlog bool
	cli     precursor.ClientStats // in-process only
	cluster precursor.ClusterStats
	verbs   uint64
	bytes   uint64
}

func (d *deployment) counters() counters {
	var c counters
	for _, s := range d.servers {
		st := s.Stats()
		c.srv.Puts += st.Puts
		c.srv.Gets += st.Gets
		c.srv.Batches += st.Batches
		c.srv.BatchedOps += st.BatchedOps
		c.srv.Replays += st.Replays
		c.srv.BadRequests += st.BadRequests
		c.srv.EnclaveCryptoBytes += st.EnclaveCryptoBytes
		c.srv.Entries += st.Entries
		c.srv.Enclave.Ecalls += st.Enclave.Ecalls
		c.srv.Enclave.Ocalls += st.Enclave.Ocalls
		c.srv.Enclave.PageFaults += st.Enclave.PageFaults
		c.srv.Enclave.EPCPages += st.Enclave.EPCPages
		c.srv.PoolBytesReserved += st.PoolBytesReserved
		c.srv.PoolBytesInUse += st.PoolBytesInUse
		c.srv.PoolGrowths += st.PoolGrowths
		if v := st.Vlog; v != nil {
			c.hasVlog = true
			c.vlog.Log.AppendedBytes += v.Log.AppendedBytes
			c.vlog.Log.GroupCommits += v.Log.GroupCommits
			c.vlog.Log.SyncedAppends += v.Log.SyncedAppends
			c.vlog.ReadThroughs += v.ReadThroughs
			c.vlog.GCRuns += v.GCRuns
			c.vlog.GCMovedRecords += v.GCMovedRecords
		}
	}
	if d.client != nil {
		c.cli = d.client.StatsStruct()
	}
	if d.cluster != nil {
		c.cluster = d.cluster.Stats()
	}
	if d.counts != nil {
		c.verbs, c.bytes = d.counts.verbs.Load(), d.counts.bytes.Load()
	}
	return c
}

// epcMiB is Table 1's quantity: the enclave working set, summed over
// replicas.
func (d *deployment) epcMiB() float64 {
	var pages int
	for _, s := range d.servers {
		pages += s.Stats().Enclave.EPCPages
	}
	return float64(pages) * 4096 / (1 << 20)
}
