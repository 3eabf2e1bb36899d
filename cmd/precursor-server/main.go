// Command precursor-server runs a Precursor key-value store reachable
// over the TCP fabric.
//
// On startup it prints the two values clients need to attest the enclave:
// the platform attestation public key and the enclave measurement. Start a
// client with cmd/precursor-cli, passing both.
//
// Usage:
//
//	precursor-server -addr :7100 -workers 12
//	precursor-server -addr :7100 -hardened -owner-only
//	precursor-server -addr :7100 -state-dir /var/lib/precursor -seal-interval 30s
//
// With -state-dir the server restores the newest sealed snapshot on
// startup and seals on graceful shutdown (SIGTERM/SIGINT); -seal-interval
// additionally seals periodically, and SIGHUP seals on demand. The age of
// the last seal is exported on /metrics and /healthz.
//
// Shutdown is a graceful drain: on SIGTERM/SIGINT the server first stops
// admitting new operations (each is refused with a sealed RETRY_LATER so
// clients back off or fail over), /healthz flips to 503 "draining", and
// in-flight work is given -drain-timeout to finish before the final seal
// and exit.
//
// With -data-dir the server additionally spills large values to a
// durable value log on (untrusted) disk, serving datasets far beyond
// enclave memory; on startup it replays the log to recover every
// acknowledged write since the last snapshot (see DESIGN.md,
// "Trusted/untrusted storage split"):
//
//	precursor-server -addr :7100 -state-dir /var/lib/precursor -data-dir /var/lib/precursor/log
//
// As one member of a client-routed cluster (see DESIGN.md, "Scaling
// out"), give each server its shard position; it prints a
// machine-readable cluster-shard line an orchestrator can scrape:
//
//	precursor-server -addr :7100 -shard 0/4
//	precursor-server -addr :7101 -shard 1/4
//
// With -heat (and -metrics) the server accumulates workload heat on its
// apply path — hashed heavy hitters, ring-range load, op-rate EWMAs —
// and exports it as precursor_heat_* on /metrics and JSON on
// GET /debug/heat; a fleet aggregator scraping per-shard endpoints
// folds these into the cluster heat map (see OBSERVABILITY.md):
//
//	precursor-server -addr :7100 -shard 0/4 -heat -metrics :9090
package main

import (
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"precursor"
	"precursor/internal/cluster"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7100", "listen address")
		workers   = flag.Int("workers", 12, "trusted polling threads")
		hardened  = flag.Bool("hardened", false, "store payload MACs inside the enclave (§3.9)")
		inline    = flag.Bool("inline-small", false, "store values <56B inside the enclave (§5.2); the welcome announces it, so every client follows")
		ownerOnly = flag.Bool("owner-only", false, "only the writing client may read/delete a key")
		stats     = flag.Duration("stats", 0, "print server stats at this interval (0 = off)")
		metrics   = flag.String("metrics", "", "serve Prometheus metrics on this address (e.g. :9090)")
		stateDir  = flag.String("state-dir", "", "directory for durable state: platform identity, trusted counter, snapshot (empty = ephemeral)")
		sealEvery = flag.Duration("seal-interval", 0, "write a sealed snapshot at this interval (0 = only on shutdown; needs -state-dir)")
		shard     = flag.String("shard", "", "this server's shard position i/n in a client-routed cluster (e.g. 0/4)")
		trace     = flag.Bool("trace", false, "record per-stage op timing; exported on /metrics and /debug/traces (needs -metrics)")
		traceRing = flag.Int("trace-ring", 0, "retained-trace ring capacity for /debug/traces (0 = default 256; needs -trace)")
		tailSamp  = flag.Float64("tail-sample", 0, "probability an unremarkable trace is retained; slow/error/fault traces are always kept (0 = keep all)")
		pprofFlag = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the metrics address (needs -metrics)")
		slowop    = flag.Duration("slowop", 0, "log operations slower than this threshold (implies -trace; 0 = off)")
		heatOn    = flag.Bool("heat", false, "accumulate workload heat (hashed heavy hitters, ring-range load, op rates); exported on /metrics and /debug/heat (needs -metrics to export)")
		auditOn   = flag.Bool("audit", false, "record security events in a tamper-evident audit log; exported on /metrics, /debug/audit and /healthz (needs -metrics to export)")
		dataDir   = flag.String("data-dir", "", "directory for the durable value log: large values spill to untrusted disk and survive crashes (empty = memory only)")
		vlogMax   = flag.Int("vlog-inline-max", 0, "values larger than this many bytes go to the value log (0 = default 4096; needs -data-dir)")
		vlogSeg   = flag.Int64("vlog-segment-mb", 0, "value-log segment size in MiB (0 = default 64; needs -data-dir)")
		drainFor  = flag.Duration("drain-timeout", 5*time.Second, "on SIGTERM/SIGINT, how long to wait for in-flight ops after admission stops (0 = exit immediately)")
	)
	flag.Parse()
	if err := run(*addr, *workers, *hardened, *inline, *ownerOnly, *stats, *metrics, *stateDir, *sealEvery, *shard, *trace, *pprofFlag, *slowop, *traceRing, *tailSamp, *heatOn, *auditOn, *dataDir, *vlogMax, *vlogSeg, *drainFor); err != nil {
		fmt.Fprintln(os.Stderr, "precursor-server:", err)
		os.Exit(1)
	}
}

func run(addr string, workers int, hardened, inline, ownerOnly bool, statsEvery time.Duration, metricsAddr, stateDir string, sealEvery time.Duration, shard string, trace, pprofOn bool, slowop time.Duration, traceRing int, tailSample float64, heatOn, auditOn bool, dataDir string, vlogMax int, vlogSeg int64, drainFor time.Duration) error {
	var shardID cluster.ShardID
	if shard != "" {
		var err error
		if shardID, err = cluster.ParseShardID(shard); err != nil {
			return err
		}
	}
	cfg := precursor.ServerConfig{
		Workers:           workers,
		HardenedMACs:      hardened,
		InlineSmallValues: inline,
	}
	if dataDir == "" && (vlogMax != 0 || vlogSeg != 0) {
		return fmt.Errorf("-vlog-inline-max/-vlog-segment-mb require -data-dir")
	}
	if dataDir != "" {
		cfg.DataDir = dataDir
		cfg.Vlog = precursor.VlogConfig{
			InlineMax:    vlogMax,
			SegmentBytes: vlogSeg << 20,
		}
	}
	var tracer *precursor.Tracer
	if trace || slowop > 0 {
		tracer = precursor.NewTracer(precursor.TracerConfig{
			Side:          precursor.SideServer,
			Workers:       workers,
			SlowThreshold: slowop,
			Ring:          traceRing,
			TailSample:    tailSample,
		})
		cfg.Tracer = tracer
	}
	var heatColl *precursor.HeatCollector
	if heatOn {
		heatColl = precursor.NewHeatCollector(precursor.HeatConfig{Stripes: workers})
		cfg.Heat = heatColl
	}
	var auditLog *precursor.AuditLog
	if auditOn {
		auditLog = precursor.NewAuditLog(0)
		cfg.Audit = auditLog
	}
	var snapshotPath string
	if stateDir != "" {
		platform, err := precursor.LoadOrCreatePlatform(stateDir)
		if err != nil {
			return err
		}
		counter, err := precursor.OpenFileCounter(filepath.Join(stateDir, "counter"))
		if err != nil {
			return err
		}
		cfg.Platform = platform
		cfg.RollbackCounter = counter
		snapshotPath = filepath.Join(stateDir, "snapshot")
	} else {
		platform, err := precursor.NewPlatform()
		if err != nil {
			return err
		}
		cfg.Platform = platform
	}
	svc, err := precursor.Serve(addr, cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	svc.Server.SetOwnerOnly(ownerOnly)

	if sealEvery > 0 && snapshotPath == "" {
		return fmt.Errorf("-seal-interval requires -state-dir")
	}
	// sealNow writes one sealed snapshot atomically (tmp + rename), so a
	// crash mid-seal leaves the previous snapshot intact. Note the trusted
	// counter advances with every seal: after a periodic seal, only the
	// newest snapshot file restores.
	sealNow := func() error {
		f, err := os.Create(snapshotPath + ".tmp")
		if err != nil {
			return err
		}
		if err := svc.Server.Seal(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(snapshotPath+".tmp", snapshotPath)
	}
	if snapshotPath != "" {
		if f, err := os.Open(snapshotPath); err == nil {
			restoreErr := svc.Server.Restore(f)
			_ = f.Close()
			if restoreErr != nil {
				return fmt.Errorf("restore %s: %w", snapshotPath, restoreErr)
			}
			fmt.Printf("restored %d entries from %s\n", svc.Server.Stats().Entries, snapshotPath)
		}
		// Graceful shutdown (SIGTERM/SIGINT → normal return) seals a final
		// snapshot so a planned restart resumes with zero data loss.
		defer func() {
			if err := sealNow(); err != nil {
				fmt.Fprintln(os.Stderr, "seal:", err)
				return
			}
			fmt.Printf("sealed %d entries to %s\n", svc.Server.Stats().Entries, snapshotPath)
		}()
	}
	if dataDir != "" {
		// Replay the value log after (and on top of) any snapshot restore:
		// acknowledged writes since the last seal live only in the log.
		rec, err := svc.Server.ReplayVlog()
		if err != nil {
			return fmt.Errorf("value log replay: %w", err)
		}
		fmt.Printf("value log: replayed %d records from %s (%d applied, %d already indexed)\n",
			rec.Replay.Records, dataDir, rec.Applied, rec.Rehydrated)
		if rec.Replay.TornSegments > 0 {
			fmt.Fprintf(os.Stderr, "value log: truncated %d torn segment tail(s), %d bytes of unacknowledged writes discarded\n",
				rec.Replay.TornSegments, rec.Replay.TornBytes)
		}
	}

	if metricsAddr != "" {
		var opts []precursor.MetricsOption
		if tracer != nil {
			opts = append(opts, precursor.WithTracer("server", tracer))
		}
		if pprofOn {
			opts = append(opts, precursor.WithPprof())
		}
		if heatColl != nil {
			opts = append(opts, precursor.WithHeat("server", heatColl))
		}
		if auditLog != nil {
			opts = append(opts, precursor.WithAudit(auditLog))
		}
		metrics, err := precursor.ServeMetrics(svc.Server, metricsAddr, opts...)
		if err != nil {
			return err
		}
		defer metrics.Close()
		fmt.Printf("metrics:          http://%s/metrics"+"\n", metrics.Addr())
		if tracer != nil {
			fmt.Printf("traces:           http://%s/debug/traces"+"\n", metrics.Addr())
		}
		if heatColl != nil {
			fmt.Printf("heat:             http://%s/debug/heat"+"\n", metrics.Addr())
		}
		if auditLog != nil {
			fmt.Printf("audit:            http://%s/debug/audit"+"\n", metrics.Addr())
		}
		if pprofOn {
			fmt.Printf("pprof:            http://%s/debug/pprof/"+"\n", metrics.Addr())
		}
	} else if tracer != nil || pprofOn || auditLog != nil || heatColl != nil {
		fmt.Fprintln(os.Stderr, "precursor-server: -trace/-pprof/-slowop/-audit/-heat export requires -metrics (recording still active)")
	}

	pub, err := x509.MarshalPKIXPublicKey(cfg.Platform.AttestationPublicKey())
	if err != nil {
		return fmt.Errorf("marshal attestation key: %w", err)
	}
	m := svc.Server.Measurement()
	fmt.Printf("precursor-server listening on %s\n", svc.Addr())
	fmt.Printf("attestation-key:  %s\n", base64.StdEncoding.EncodeToString(pub))
	fmt.Printf("measurement:      %s\n", hex.EncodeToString(m[:]))
	if shard != "" {
		// One scrapeable line per shard: everything DialCluster needs for
		// this member, keyed by its position.
		fmt.Printf("cluster-shard: %s addr=%s key=%s measurement=%s\n",
			shardID, svc.Addr(),
			base64.StdEncoding.EncodeToString(pub), hex.EncodeToString(m[:]))
	}
	fmt.Printf("connect with: precursor-cli -addr %s -server-key <attestation-key> -measurement <measurement> ...\n", svc.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)

	var statsCh, sealCh <-chan time.Time
	if statsEvery > 0 {
		ticker := time.NewTicker(statsEvery)
		defer ticker.Stop()
		statsCh = ticker.C
	}
	if sealEvery > 0 {
		ticker := time.NewTicker(sealEvery)
		defer ticker.Stop()
		sealCh = ticker.C
	}
	for {
		select {
		case <-sig:
			// Graceful drain: stop admitting first, so every new op gets a
			// sealed RETRY_LATER (clients back off or fail over) and
			// /healthz reports 503 "draining", then give in-flight work a
			// bounded window to finish. The normal return runs the deferred
			// sealNow, so the shutdown snapshot includes everything that
			// completed during the drain.
			svc.Server.SetDraining(true)
			if drainFor > 0 {
				fmt.Printf("draining: shedding new ops, waiting up to %v for in-flight work\n", drainFor)
				waitDrained(svc.Server, drainFor)
			}
			return nil
		case <-hup:
			// SIGHUP = operator-requested seal (e.g. before a host reboot).
			if snapshotPath == "" {
				fmt.Fprintln(os.Stderr, "seal: SIGHUP ignored, no -state-dir")
				continue
			}
			if err := sealNow(); err != nil {
				fmt.Fprintln(os.Stderr, "seal:", err)
				continue
			}
			fmt.Printf("sealed %d entries to %s (SIGHUP)\n", svc.Server.Stats().Entries, snapshotPath)
		case <-sealCh:
			if err := sealNow(); err != nil {
				fmt.Fprintln(os.Stderr, "seal:", err)
			}
		case <-statsCh:
			st := svc.Server.Stats()
			fmt.Printf("clients=%d entries=%d puts=%d gets=%d deletes=%d replays=%d seals=%d epc=%.1fMiB\n",
				st.Clients, st.Entries, st.Puts, st.Gets, st.Deletes,
				st.Replays, svc.Server.SealsTotal(), st.Enclave.WorkingSetMiB())
		}
	}
}

// waitDrained polls the admission gate until no admitted operation is
// still in flight, or the grace period elapses — whichever comes first.
func waitDrained(srv *precursor.Server, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if srv.Gate().Stats().Inflight == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
