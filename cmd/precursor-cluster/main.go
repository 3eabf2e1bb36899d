// Command precursor-cluster launches and drives a client-routed Precursor
// deployment over the TCP fabric: -shards ring positions, each a replica
// group of -replicas servers (see DESIGN.md, "Scaling out": the client
// owns placement and replication; the servers never coordinate). A group
// of one is a plain shard.
//
// Serve mode keeps a deployment up and prints one scrapeable line per
// member, with everything a client needs to dial it. A group of one prints
// a cluster-shard line — the format precursor-server -shard i/n emits,
// for DialCluster:
//
//	precursor-cluster -serve -shards 4
//
// With -replicas R > 1 every ring position is backed by R replicas sharing
// a platform (so sealed snapshots transfer between them for anti-entropy
// repair), and every member prints a cluster-replica line.
//
// Bench mode sweeps -shards × -replicas: for each pair it loads records
// and runs a YCSB workload through a cluster client, and for every R > 1
// it runs again with one replica killed mid-run, to measure the
// read-failover gap a client observes. It prints a table and writes the
// datapoints to a JSON file:
//
//	precursor-cluster -bench -shards 1,2,4 -records 2000 -clients 8 \
//	    -ops 2000 -json BENCH_cluster.json
//	precursor-cluster -bench -shards 2 -replicas 1,3 -write-quorum 2
//
// Top mode is a live fleet terminal view: it scrapes the given
// /metrics endpoints and renders cluster SLO rollups — availability
// vs. objective, error-budget burn, replication and security counters,
// worst per-stage p99s and anomaly flags — refreshing in place:
//
//	precursor-cluster -top -targets shard0=http://127.0.0.1:9090/metrics
//
// The timing gates — tracing, audit, heat, batching and overload cost —
// are not modes of this command but rows of the root package's TestGates:
//
//	PRECURSOR_OVERHEAD_GATE=1 go test . -run TestGates -v
package main

import (
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"precursor"
	"precursor/internal/cluster"
	"precursor/internal/fleet"
	"precursor/internal/ycsb"
)

func main() {
	var (
		serve    = flag.Bool("serve", false, "launch a cluster and keep it up until interrupted")
		bench    = flag.Bool("bench", false, "run the benchmark sweep over -shards x -replicas, with a kill run for every R > 1")
		shards   = flag.String("shards", "4", "ring positions (serve) or comma-separated counts to sweep (bench)")
		replicas = flag.String("replicas", "1", "replicas per ring position (serve) or comma-separated counts to sweep (bench)")
		workers  = flag.Int("workers", 2, "trusted polling threads per server")
		conns    = flag.Int("conns-per-shard", 4, "client connections pooled per server")
		records  = flag.Int("records", 2000, "records to load before measuring")
		valsize  = flag.Int("value-size", 128, "value size in bytes")
		clients  = flag.Int("clients", 8, "concurrent closed-loop clients")
		ops      = flag.Int("ops", 2000, "operations per client")
		workload = flag.String("workload", "B", "YCSB workload: A, B, C or update-mostly")
		seed     = flag.Int64("seed", 42, "workload seed")
		jsonPath = flag.String("json", "BENCH_cluster.json", "bench: write datapoints to this JSON file (empty = stdout only)")
		quorum   = flag.Int("write-quorum", 0, "write quorum for replicated groups (0 = majority)")
		metrics  = flag.String("metrics", "", "serve: expose Prometheus metrics for the whole cluster on this address")
		trace    = flag.Bool("trace", false, "serve: record per-stage op timing across all servers (needs -metrics to export)")
		traceRng = flag.Int("trace-ring", 0, "serve: retained-trace ring capacity for /debug/traces (0 = default 256; needs -trace)")
		tailSamp = flag.Float64("tail-sample", 0, "serve: probability an unremarkable trace is retained; slow/error/fault traces are always kept (0 = keep all)")
		pprofOn  = flag.Bool("pprof", false, "serve: net/http/pprof under /debug/pprof/ on the metrics address")
		fleetTgt = flag.String("fleet-targets", "", "serve: metrics endpoints to aggregate into /fleet on the -metrics address (comma-separated name=url)")
		top      = flag.Bool("top", false, "render a live fleet SLO view of the -targets metrics endpoints")
		targets  = flag.String("targets", "", "top: comma-separated metrics endpoints to scrape (name=url or bare url)")
		topEvery = flag.Duration("top-interval", 2*time.Second, "top: refresh interval")
		topIters = flag.Int("top-iterations", 0, "top: render this many frames then exit (0 = until interrupted)")
		topSLO   = flag.Float64("slo", 0.999, "top: fleet availability objective")
		heatOn   = flag.Bool("heat", false, "serve: accumulate workload heat across the servers and export it on the -metrics address (/debug/heat, precursor_heat_*)")
	)
	flag.Parse()
	if !oneMode(*serve, *bench, *top) {
		fmt.Fprintln(os.Stderr, "precursor-cluster: pass exactly one of -serve, -bench or -top")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *serve:
		err = runServe(*shards, *replicas, *workers, *metrics, *trace, *traceRng, *tailSamp, *pprofOn, *fleetTgt, *heatOn)
	case *top:
		err = runTop(*targets, *topEvery, *topIters, *topSLO, os.Stdout)
	default:
		err = runBench(benchConfig{
			shardCounts: *shards, replicaCounts: *replicas, writeQuorum: *quorum,
			workers: *workers, conns: *conns,
			records: *records, valueSize: *valsize, clients: *clients,
			opsPerClient: *ops, workload: *workload, seed: *seed,
			jsonPath: *jsonPath, out: os.Stdout,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "precursor-cluster:", err)
		os.Exit(1)
	}
}

// oneMode reports whether exactly one mode flag is set.
func oneMode(modes ...bool) bool {
	n := 0
	for _, on := range modes {
		if on {
			n++
		}
	}
	return n == 1
}

// parseCounts parses a comma-separated list of positive counts.
func parseCounts(name, list string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s count %q", name, part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// serveCount parses a serve-mode count flag: one positive count.
func serveCount(name, flagVal string) (int, error) {
	counts, err := parseCounts(name, flagVal)
	if err != nil || len(counts) != 1 {
		return 0, fmt.Errorf("-serve needs a single positive %s count, got %q", name, flagVal)
	}
	return counts[0], nil
}

// runServe launches n ring positions of `replicas` servers each and
// prints their scrapeable member lines.
func runServe(shardsFlag, replicasFlag string, workers int, metricsAddr string, trace bool, traceRing int, tailSample float64, pprofOn bool, fleetTargets string, heatOn bool) error {
	n, err := serveCount("shard", shardsFlag)
	if err != nil {
		return err
	}
	replicas, err := serveCount("replica", replicasFlag)
	if err != nil {
		return err
	}
	cfg := precursor.ServerConfig{Workers: workers}
	var tracer *precursor.Tracer
	if trace {
		// One shared server-side tracer: every server records into the
		// same histograms, so /metrics shows cluster-wide stage latency.
		tracer = precursor.NewTracer(precursor.TracerConfig{
			Side:       precursor.SideServer,
			Workers:    workers * n * replicas,
			Ring:       traceRing,
			TailSample: tailSample,
		})
		cfg.Tracer = tracer
	}
	var heatColl *precursor.HeatCollector
	if heatOn {
		// Like -trace, one shared collector: this process is one metrics
		// target, so its heat rolls up all in-process servers (per-shard
		// heat maps come from one endpoint per shard, as precursor-server
		// -heat serves).
		heatColl = precursor.NewHeatCollector(precursor.HeatConfig{
			Stripes: workers * n * replicas,
		})
		cfg.Heat = heatColl
	}
	cs, err := precursor.ServeReplicatedCluster(n, replicas, cfg)
	if err != nil {
		return err
	}
	defer cs.Close()
	if metricsAddr != "" {
		var opts []precursor.MetricsOption
		if tracer != nil {
			opts = append(opts, precursor.WithTracer("server", tracer))
		}
		if heatColl != nil {
			opts = append(opts, precursor.WithHeat("server", heatColl))
		}
		if pprofOn {
			opts = append(opts, precursor.WithPprof())
		}
		if fleetTargets != "" {
			specs, err := parseTargets(fleetTargets)
			if err != nil {
				return err
			}
			agg, err := fleet.New(fleet.Config{Targets: specs})
			if err != nil {
				return err
			}
			agg.Start()
			defer agg.Close()
			opts = append(opts, precursor.WithFleet(agg))
		}
		ms, err := precursor.ServeClusterMetrics(nil, metricsAddr, opts...)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Printf("metrics:          http://%s/metrics\n", ms.Addr())
		if fleetTargets != "" {
			fmt.Printf("fleet:            http://%s/fleet\n", ms.Addr())
		}
		if heatColl != nil {
			fmt.Printf("heat:             http://%s/debug/heat\n", ms.Addr())
		}
	}
	if err := printMembers(os.Stdout, cs.GroupSpecs()); err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

// printMembers writes one line per member of groups: a group of one is a
// shard, and prints the cluster-shard line precursor-server -shard i/n
// prints; a member of a larger group prints a cluster-replica line.
func printMembers(w io.Writer, groups [][]precursor.ShardSpec) error {
	n, replicas := len(groups), len(groups[0])
	if replicas == 1 {
		fmt.Fprintf(w, "precursor-cluster serving %d shards\n", n)
	} else {
		fmt.Fprintf(w, "precursor-cluster serving %d groups x %d replicas\n", n, replicas)
	}
	for g, group := range groups {
		for r, spec := range group {
			pub, err := x509.MarshalPKIXPublicKey(spec.PlatformKey)
			if err != nil {
				return err
			}
			member := "cluster-shard: " + cluster.ShardID{Index: g, Count: n}.String()
			if replicas > 1 {
				member = fmt.Sprintf("cluster-replica: %d/%d replica %d/%d", g, n, r, replicas)
			}
			fmt.Fprintf(w, "%s addr=%s key=%s measurement=%s\n", member, spec.Addr,
				base64.StdEncoding.EncodeToString(pub), hex.EncodeToString(spec.Measurement[:]))
		}
	}
	return nil
}

// BenchPoint is one datapoint of the sweep: a YCSB run against a shards ×
// replicas deployment and, on a kill run, the failover gap it measured.
type BenchPoint struct {
	Shards      int     `json:"shards"`
	Replicas    int     `json:"replicas"`
	WriteQuorum int     `json:"write_quorum"`
	Clients     int     `json:"clients"`
	Records     int     `json:"records"`
	ValueSize   int     `json:"value_size"`
	Workload    string  `json:"workload"`
	Ops         uint64  `json:"ops"`
	Errors      uint64  `json:"errors"`
	Kops        float64 `json:"kops"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	// ShardPuts counts the puts each server applied: placement balance.
	ShardPuts map[string]uint64 `json:"shard_puts"`
	// KilledReplica is set on a kill run: one replica of the probed group
	// was closed mid-workload.
	KilledReplica string `json:"killed_replica,omitempty"`
	// FailoverGapMs is the longest interval between two consecutive
	// successful probe reads around the kill — the client-visible
	// unavailability window.
	FailoverGapMs float64 `json:"failover_gap_ms,omitempty"`
	// ShardDownErrors counts probe reads that failed with ErrShardDown
	// (must be 0: surviving replicas absorb the load; 0 on a run without
	// a kill, which sends no probe).
	ShardDownErrors uint64 `json:"shard_down_errors"`
}

type benchConfig struct {
	shardCounts   string
	replicaCounts string
	writeQuorum   int
	workers       int
	conns         int
	records       int
	valueSize     int
	clients       int
	opsPerClient  int
	workload      string
	seed          int64
	jsonPath      string
	out           io.Writer
}

// runBench runs the sweep: every shard count against every replica
// count, and a kill run after each R > 1.
func runBench(cfg benchConfig) error {
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	shardCounts, err := parseCounts("shard", cfg.shardCounts)
	if err != nil {
		return err
	}
	replicaCounts, err := parseCounts("replica", cfg.replicaCounts)
	if err != nil {
		return err
	}
	var points []BenchPoint
	fmt.Fprintf(cfg.out, "%-7s %-9s %-7s %-8s %-8s %-9s %-9s %-9s %s\n",
		"shards", "replicas", "quorum", "clients", "ops", "kops", "p50(µs)", "p99(µs)", "failover(ms)")
	for _, n := range shardCounts {
		for _, r := range replicaCounts {
			for _, kill := range []bool{false, true}[:min(r, 2)] { // a kill run only where a replica can fail over
				p, err := benchOne(n, r, kill, wl, cfg)
				if err != nil {
					return fmt.Errorf("%d shards x %d replicas (kill run %v): %w", n, r, kill, err)
				}
				points = append(points, p)
				failover := "-"
				if kill {
					failover = fmt.Sprintf("%.1f (killed %s, shard-down errors: %d)", p.FailoverGapMs, p.KilledReplica, p.ShardDownErrors)
				}
				fmt.Fprintf(cfg.out, "%-7d %-9d %-7d %-8d %-8d %-9.1f %-9.1f %-9.1f %s\n",
					p.Shards, p.Replicas, p.WriteQuorum, p.Clients, p.Ops, p.Kops, p.P50Micros, p.P99Micros, failover)
			}
		}
	}
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(points, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "wrote %s\n", cfg.jsonPath)
	}
	return nil
}

// benchOne runs one YCSB pass against an n × r deployment. With kill set
// it also runs a probe-read pinger against one group, closes one of that
// group's replicas once half of the run's ops have been issued and reports
// the longest gap between consecutive successful probes.
func benchOne(n, r int, kill bool, wl ycsb.Workload, cfg benchConfig) (BenchPoint, error) {
	cs, err := precursor.ServeReplicatedCluster(n, r, precursor.ServerConfig{Workers: cfg.workers})
	if err != nil {
		return BenchPoint{}, err
	}
	defer cs.Close()
	specs := cs.GroupSpecs()
	cc, err := precursor.DialReplicatedCluster(specs, precursor.ClusterConfig{
		ConnsPerShard: cfg.conns,
		Timeout:       30 * time.Second,
		WriteQuorum:   cfg.writeQuorum,
		RetryBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		return BenchPoint{}, err
	}
	defer cc.Close()
	if err := ycsb.Load(cc, cfg.records, cfg.valueSize, cfg.seed); err != nil {
		return BenchPoint{}, err
	}

	point := BenchPoint{
		Shards: n, Replicas: r, WriteQuorum: effectiveQuorum(r, cfg.writeQuorum),
		Records: cfg.records, ValueSize: cfg.valueSize, Workload: wl.Name,
		ShardPuts: map[string]uint64{},
	}
	var store ycsb.Store = cc
	var pingDone, pingStop chan struct{}
	if kill {
		// The pinger hammers one key; killing a replica of the key's
		// owning group makes the max success-to-success interval the
		// client-visible failover gap.
		const probe = "replication-bench-probe"
		if err := cc.Put(probe, []byte("failover-gap")); err != nil {
			return BenchPoint{}, err
		}
		gi := ownerGroup(cc, specs, probe)
		point.KilledReplica = specs[gi][0].Addr
		pingStop = make(chan struct{})
		pingDone = make(chan struct{})
		go func() {
			defer close(pingDone)
			last := time.Now()
			var maxGap time.Duration
			for {
				select {
				case <-pingStop:
					point.FailoverGapMs = float64(maxGap) / 1e6
					return
				default:
				}
				if _, err := cc.Get(probe); err == nil {
					now := time.Now()
					if gap := now.Sub(last); gap > maxGap {
						maxGap = gap
					}
					last = now
				} else if errors.Is(err, precursor.ErrShardDown) {
					point.ShardDownErrors++
				}
			}
		}()
		// The replica dies once half of the run's ops have been issued, so
		// the kill lands inside the workload however short it is.
		store = &killAfter{Store: cc, at: int64(max(cfg.clients*cfg.opsPerClient/2, 1)), kill: func() {
			cs.Groups[gi][0].Close()
		}}
	}

	rep, err := ycsb.RunShared(store, ycsb.RunnerConfig{
		Workload: wl, Records: cfg.records, ValueSize: cfg.valueSize,
		Clients: cfg.clients, OpsPerClient: cfg.opsPerClient, Seed: cfg.seed,
	})
	if pingStop != nil {
		// Let the post-kill breaker trip and read failover fully settle
		// before sampling the gap.
		time.Sleep(500 * time.Millisecond)
		close(pingStop)
		<-pingDone
	}
	if err != nil {
		return BenchPoint{}, err
	}
	point.Clients = rep.Clients
	point.Ops = rep.Ops
	point.Errors = rep.Errors
	point.Kops = rep.Kops
	point.P50Micros = float64(rep.Latency.Quantile(0.50)) / 1e3
	point.P99Micros = float64(rep.Latency.Quantile(0.99)) / 1e3
	for _, ss := range cc.Stats().Shards {
		point.ShardPuts[ss.Name] = ss.Puts
	}
	return point, nil
}

// killAfter is a ycsb.Store that runs kill, exactly once, as the at-th op
// is issued, before that op goes to the store.
type killAfter struct {
	ycsb.Store
	issued atomic.Int64
	at     int64
	kill   func()
}

func (k *killAfter) tick() {
	if k.issued.Add(1) == k.at {
		k.kill()
	}
}

func (k *killAfter) Put(key string, value []byte) error {
	k.tick()
	return k.Store.Put(key, value)
}

func (k *killAfter) Get(key string) ([]byte, error) {
	k.tick()
	return k.Store.Get(key)
}

// effectiveQuorum mirrors the cluster package's majority default.
func effectiveQuorum(r, requested int) int {
	if requested <= 0 {
		return r/2 + 1
	}
	if requested > r {
		return r
	}
	return requested
}

// ownerGroup finds the index of the replica group that owns key.
func ownerGroup(cc *precursor.ClusterClient, specs [][]precursor.ShardSpec, key string) int {
	owner := cc.ShardFor(key)
	for g, group := range specs {
		if precursor.GroupName(group) == owner {
			return g
		}
	}
	return 0
}

func workloadByName(name string) (ycsb.Workload, error) {
	switch strings.ToUpper(name) {
	case "A":
		return ycsb.WorkloadA, nil
	case "B":
		return ycsb.WorkloadB, nil
	case "C":
		return ycsb.WorkloadC, nil
	case "UPDATE-MOSTLY":
		return ycsb.UpdateMostly, nil
	}
	return ycsb.Workload{}, fmt.Errorf("unknown workload %q (want A, B, C or update-mostly)", name)
}
