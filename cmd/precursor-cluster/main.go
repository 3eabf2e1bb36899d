// Command precursor-cluster launches and drives a client-routed N-shard
// Precursor deployment over the TCP fabric (see DESIGN.md, "Scaling
// out": the client owns shard placement; the servers never coordinate).
//
// Serve mode keeps an N-shard cluster up and prints one scrapeable
// cluster-shard line per member — the same format precursor-server
// -shard i/n emits — with everything a client needs to DialCluster:
//
//	precursor-cluster -serve -shards 4
//
// Bench mode measures scaling: for each shard count it loads records and
// runs a YCSB workload through a cluster client, printing a table and
// appending ops/s-vs-shard-count datapoints to a JSON file:
//
//	precursor-cluster -bench -shards 1,2,4 -records 2000 -clients 8 \
//	    -ops 2000 -json BENCH_cluster.json
//
// With -replicas R > 1, serve mode backs every ring position with R
// replicas sharing a platform (so sealed snapshots transfer between them
// for anti-entropy repair) and prints one cluster-replica line per
// member. Replication-bench mode compares R=1 against R=-replicas under
// the same workload and measures the read-failover gap when one replica
// is killed mid-run:
//
//	precursor-cluster -bench-replication -shards 2 -replicas 3 \
//	    -write-quorum 2 -repl-json BENCH_replication.json
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
	"os"
	"os/signal"
	"strconv"
	"strings"
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
		bench    = flag.Bool("bench", false, "run the multi-shard scaling benchmark")
		shards   = flag.String("shards", "4", "shard count (serve) or comma-separated counts to sweep (bench)")
		workers  = flag.Int("workers", 2, "trusted polling threads per shard")
		conns    = flag.Int("conns-per-shard", 4, "client connections pooled per shard")
		records  = flag.Int("records", 2000, "records to load before measuring")
		valsize  = flag.Int("value-size", 128, "value size in bytes")
		clients  = flag.Int("clients", 8, "concurrent closed-loop clients")
		ops      = flag.Int("ops", 2000, "operations per client")
		workload = flag.String("workload", "B", "YCSB workload: A, B, C or update-mostly")
		seed     = flag.Int64("seed", 42, "workload seed")
		jsonPath = flag.String("json", "BENCH_cluster.json", "bench: write datapoints to this JSON file (empty = stdout only)")
		benchRep = flag.Bool("bench-replication", false, "run the replication benchmark: R=1 vs -replicas, plus the failover gap")
		replicas = flag.Int("replicas", 1, "replicas per ring position (serve / bench-replication)")
		quorum   = flag.Int("write-quorum", 0, "write quorum for replicated groups (0 = majority)")
		replJSON = flag.String("repl-json", "BENCH_replication.json", "bench-replication: write datapoints to this JSON file (empty = stdout only)")
		metrics  = flag.String("metrics", "", "serve: expose Prometheus metrics for the whole cluster on this address")
		trace    = flag.Bool("trace", false, "serve: record per-stage op timing across all shards (needs -metrics to export)")
		traceRng = flag.Int("trace-ring", 0, "serve: retained-trace ring capacity for /debug/traces (0 = default 256; needs -trace)")
		tailSamp = flag.Float64("tail-sample", 0, "serve: probability an unremarkable trace is retained; slow/error/fault traces are always kept (0 = keep all)")
		pprofOn  = flag.Bool("pprof", false, "serve: net/http/pprof under /debug/pprof/ on the metrics address")
		fleetTgt = flag.String("fleet-targets", "", "serve: metrics endpoints to aggregate into /fleet on the -metrics address (comma-separated name=url)")
		top      = flag.Bool("top", false, "render a live fleet SLO view of the -targets metrics endpoints")
		targets  = flag.String("targets", "", "top: comma-separated metrics endpoints to scrape (name=url or bare url)")
		topEvery = flag.Duration("top-interval", 2*time.Second, "top: refresh interval")
		topIters = flag.Int("top-iterations", 0, "top: render this many frames then exit (0 = until interrupted)")
		topSLO   = flag.Float64("slo", 0.999, "top: fleet availability objective")
		heatOn   = flag.Bool("heat", false, "serve: accumulate workload heat per shard and export it on the -metrics address (/debug/heat, precursor_heat_*)")
	)
	flag.Parse()
	if !oneMode(*serve, *bench, *benchRep, *top) {
		fmt.Fprintln(os.Stderr, "precursor-cluster: pass exactly one of -serve, -bench, -bench-replication or -top")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *serve:
		err = runServe(*shards, *replicas, *workers, *metrics, *trace, *traceRng, *tailSamp, *pprofOn, *fleetTgt, *heatOn)
	case *top:
		err = runTop(*targets, *topEvery, *topIters, *topSLO, os.Stdout)
	case *benchRep:
		err = runBenchReplication(replBenchConfig{
			benchConfig: benchConfig{
				shardCounts: *shards, workers: *workers, conns: *conns,
				records: *records, valueSize: *valsize, clients: *clients,
				opsPerClient: *ops, workload: *workload, seed: *seed,
				jsonPath: *replJSON, out: os.Stdout,
			},
			replicas: *replicas, writeQuorum: *quorum,
		})
	default:
		err = runBench(benchConfig{
			shardCounts: *shards, workers: *workers, conns: *conns,
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

// runServe launches n ring positions (each backed by `replicas` servers
// when replicas > 1) and prints their scrapeable member lines.
func runServe(shardsFlag string, replicas, workers int, metricsAddr string, trace bool, traceRing int, tailSample float64, pprofOn bool, fleetTargets string, heatOn bool) error {
	n, err := strconv.Atoi(strings.TrimSpace(shardsFlag))
	if err != nil || n <= 0 {
		return fmt.Errorf("-serve needs a single positive shard count, got %q", shardsFlag)
	}
	if replicas <= 0 {
		replicas = 1
	}
	cfg := precursor.ServerConfig{Workers: workers}
	var tracer *precursor.Tracer
	if trace {
		// One shared server-side tracer: every shard records into the same
		// histograms, so /metrics shows cluster-wide stage latency.
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
		// target, so its heat rolls up all in-process shards (per-shard
		// heat maps come from one endpoint per shard, as precursor-server
		// -heat serves).
		heatColl = precursor.NewHeatCollector(precursor.HeatConfig{
			Stripes: workers * n * replicas,
		})
		cfg.Heat = heatColl
	}
	var closeAll func()
	var printMembers func() error
	if replicas > 1 {
		cs, err := precursor.ServeReplicatedCluster(n, replicas, cfg)
		if err != nil {
			return err
		}
		closeAll = cs.Close
		printMembers = func() error {
			fmt.Printf("precursor-cluster serving %d groups x %d replicas\n", n, replicas)
			for g, group := range cs.GroupSpecs() {
				for r, spec := range group {
					pub, err := x509.MarshalPKIXPublicKey(spec.PlatformKey)
					if err != nil {
						return err
					}
					fmt.Printf("cluster-replica: %d/%d replica %d/%d addr=%s key=%s measurement=%s\n",
						g, n, r, replicas, spec.Addr,
						base64.StdEncoding.EncodeToString(pub),
						hex.EncodeToString(spec.Measurement[:]))
				}
			}
			return nil
		}
	} else {
		cs, err := precursor.ServeCluster(n, cfg)
		if err != nil {
			return err
		}
		closeAll = cs.Close
		printMembers = func() error {
			fmt.Printf("precursor-cluster serving %d shards\n", n)
			for i, spec := range cs.Specs() {
				pub, err := x509.MarshalPKIXPublicKey(spec.PlatformKey)
				if err != nil {
					return err
				}
				id := cluster.ShardID{Index: i, Count: n}
				fmt.Printf("cluster-shard: %s addr=%s key=%s measurement=%s\n",
					id, spec.Addr,
					base64.StdEncoding.EncodeToString(pub),
					hex.EncodeToString(spec.Measurement[:]))
			}
			return nil
		}
	}
	defer closeAll()
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
	if err := printMembers(); err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

// BenchPoint is one ops/s-vs-shard-count datapoint of the scaling sweep.
type BenchPoint struct {
	Shards    int               `json:"shards"`
	Clients   int               `json:"clients"`
	Records   int               `json:"records"`
	ValueSize int               `json:"value_size"`
	Workload  string            `json:"workload"`
	Ops       uint64            `json:"ops"`
	Errors    uint64            `json:"errors"`
	Kops      float64           `json:"kops"`
	P50Micros float64           `json:"p50_us"`
	P99Micros float64           `json:"p99_us"`
	ShardPuts map[string]uint64 `json:"shard_puts"` // placement balance
}

type benchConfig struct {
	shardCounts  string
	workers      int
	conns        int
	records      int
	valueSize    int
	clients      int
	opsPerClient int
	workload     string
	seed         int64
	jsonPath     string
	out          *os.File
}

func runBench(cfg benchConfig) error {
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	var counts []int
	for _, part := range strings.Split(cfg.shardCounts, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad shard count %q", part)
		}
		counts = append(counts, n)
	}

	var points []BenchPoint
	fmt.Fprintf(cfg.out, "%-8s %-8s %-10s %-10s %-10s %-10s\n",
		"shards", "clients", "ops", "kops", "p50(µs)", "p99(µs)")
	for _, n := range counts {
		p, err := benchOne(n, wl, cfg)
		if err != nil {
			return fmt.Errorf("%d shards: %w", n, err)
		}
		points = append(points, p)
		fmt.Fprintf(cfg.out, "%-8d %-8d %-10d %-10.1f %-10.1f %-10.1f\n",
			p.Shards, p.Clients, p.Ops, p.Kops, p.P50Micros, p.P99Micros)
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

func benchOne(n int, wl ycsb.Workload, cfg benchConfig) (BenchPoint, error) {
	cs, err := precursor.ServeCluster(n, precursor.ServerConfig{Workers: cfg.workers})
	if err != nil {
		return BenchPoint{}, err
	}
	defer cs.Close()
	cc, err := precursor.DialCluster(cs.Specs(), precursor.ClusterConfig{
		ConnsPerShard: cfg.conns,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		return BenchPoint{}, err
	}
	defer cc.Close()

	if err := ycsb.Load(cc, cfg.records, cfg.valueSize, cfg.seed); err != nil {
		return BenchPoint{}, err
	}
	rep, err := ycsb.RunShared(cc, ycsb.RunnerConfig{
		Workload: wl, Records: cfg.records, ValueSize: cfg.valueSize,
		Clients: cfg.clients, OpsPerClient: cfg.opsPerClient, Seed: cfg.seed,
	})
	if err != nil {
		return BenchPoint{}, err
	}
	point := BenchPoint{
		Shards: n, Clients: rep.Clients,
		Records: cfg.records, ValueSize: cfg.valueSize, Workload: wl.Name,
		Ops: rep.Ops, Errors: rep.Errors, Kops: rep.Kops,
		P50Micros: float64(rep.Latency.Quantile(0.50)) / 1e3,
		P99Micros: float64(rep.Latency.Quantile(0.99)) / 1e3,
		ShardPuts: map[string]uint64{},
	}
	for _, ss := range cc.Stats().Shards {
		point.ShardPuts[ss.Name] = ss.Puts
	}
	return point, nil
}

// ReplBenchPoint is one replication-benchmark datapoint: a YCSB run at a
// replication factor, plus (for the kill run) the measured failover gap.
type ReplBenchPoint struct {
	Groups      int     `json:"groups"`
	Replicas    int     `json:"replicas"`
	WriteQuorum int     `json:"write_quorum"`
	Clients     int     `json:"clients"`
	Workload    string  `json:"workload"`
	Ops         uint64  `json:"ops"`
	Errors      uint64  `json:"errors"`
	Kops        float64 `json:"kops"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	// KilledReplica is set on the failover run: one replica of the probed
	// group was closed mid-workload.
	KilledReplica string `json:"killed_replica,omitempty"`
	// FailoverGapMs is the longest interval between two consecutive
	// successful probe reads around the kill — the client-visible
	// unavailability window.
	FailoverGapMs float64 `json:"failover_gap_ms,omitempty"`
	// ShardDownErrors counts probe reads that failed with ErrShardDown
	// (must be 0 for R>1: surviving replicas absorb the load).
	ShardDownErrors uint64 `json:"shard_down_errors"`
}

type replBenchConfig struct {
	benchConfig
	replicas    int
	writeQuorum int
}

// runBenchReplication compares R=1 against R=cfg.replicas under the same
// workload, then reruns at R=cfg.replicas killing one replica mid-run to
// measure the failover gap a client observes.
func runBenchReplication(cfg replBenchConfig) error {
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	groups, err := strconv.Atoi(strings.TrimSpace(cfg.shardCounts))
	if err != nil || groups <= 0 {
		return fmt.Errorf("-bench-replication needs a single positive -shards count, got %q", cfg.shardCounts)
	}
	if cfg.replicas <= 1 {
		cfg.replicas = 3
	}
	factors := []int{1, cfg.replicas}
	var points []ReplBenchPoint
	fmt.Fprintf(cfg.out, "%-9s %-8s %-8s %-10s %-10s %-10s %-14s\n",
		"replicas", "quorum", "clients", "kops", "p50(µs)", "p99(µs)", "failover(ms)")
	for _, r := range factors {
		p, err := replBenchOne(groups, r, wl, cfg, false)
		if err != nil {
			return fmt.Errorf("R=%d: %w", r, err)
		}
		points = append(points, p)
		fmt.Fprintf(cfg.out, "%-9d %-8d %-8d %-10.1f %-10.1f %-10.1f %-14s\n",
			p.Replicas, p.WriteQuorum, p.Clients, p.Kops, p.P50Micros, p.P99Micros, "-")
	}
	kill, err := replBenchOne(groups, cfg.replicas, wl, cfg, true)
	if err != nil {
		return fmt.Errorf("failover run: %w", err)
	}
	points = append(points, kill)
	fmt.Fprintf(cfg.out, "%-9d %-8d %-8d %-10.1f %-10.1f %-10.1f %-14.1f (killed %s, shard-down errors: %d)\n",
		kill.Replicas, kill.WriteQuorum, kill.Clients, kill.Kops,
		kill.P50Micros, kill.P99Micros, kill.FailoverGapMs, kill.KilledReplica, kill.ShardDownErrors)
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

// replBenchOne runs one YCSB pass against a groups x r deployment. With
// kill set it additionally runs a probe-read pinger against one group,
// closes one of that group's replicas mid-workload and reports the
// longest gap between consecutive successful probes.
func replBenchOne(groups, r int, wl ycsb.Workload, cfg replBenchConfig, kill bool) (ReplBenchPoint, error) {
	cs, err := precursor.ServeReplicatedCluster(groups, r, precursor.ServerConfig{Workers: cfg.workers})
	if err != nil {
		return ReplBenchPoint{}, err
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
		return ReplBenchPoint{}, err
	}
	defer cc.Close()
	if err := ycsb.Load(cc, cfg.records, cfg.valueSize, cfg.seed); err != nil {
		return ReplBenchPoint{}, err
	}

	point := ReplBenchPoint{
		Groups: groups, Replicas: r, Workload: wl.Name,
		WriteQuorum: effectiveQuorum(r, cfg.writeQuorum),
	}

	var pingDone chan struct{}
	var pingStop chan struct{}
	if kill && r > 1 {
		// The pinger hammers one key; killing a replica of the key's
		// owning group makes the max success-to-success interval the
		// client-visible failover gap.
		const probe = "replication-bench-probe"
		if err := cc.Put(probe, []byte("failover-gap")); err != nil {
			return ReplBenchPoint{}, err
		}
		gi, ri := ownerGroup(cc, specs, probe), 0
		point.KilledReplica = specs[gi][ri].Addr
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
		go func() {
			time.Sleep(300 * time.Millisecond)
			cs.Groups[gi][ri].Close()
		}()
	}

	rep, err := ycsb.RunShared(cc, ycsb.RunnerConfig{
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
		return ReplBenchPoint{}, err
	}
	point.Clients = rep.Clients
	point.Ops = rep.Ops
	point.Errors = rep.Errors
	point.Kops = rep.Kops
	point.P50Micros = float64(rep.Latency.Quantile(0.50)) / 1e3
	point.P99Micros = float64(rep.Latency.Quantile(0.99)) / 1e3
	return point, nil
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
