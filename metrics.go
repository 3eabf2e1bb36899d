package precursor

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"precursor/internal/audit"
	"precursor/internal/fleet"
	"precursor/internal/heat"
	"precursor/internal/obs"
)

// MetricsServer exposes a Precursor server's statistics over HTTP in the
// Prometheus text exposition format (stdlib only), for production
// monitoring of a deployed store. Besides GET /metrics it serves a
// readiness GET /healthz, and — when tracers are attached — recent
// operation traces on GET /debug/traces as Chrome trace_event JSON
// (loadable in Perfetto / chrome://tracing).
type MetricsServer struct {
	server *Server
	http   *http.Server
	ln     net.Listener
	pprof  bool
	start  time.Time

	mu        sync.Mutex
	cluster   *ClusterClient
	tracers   []tracerEntry
	heats     []heatEntry
	audit     *audit.Log
	fleet     *fleet.Aggregator
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// tracerEntry names one attached tracer for export.
type tracerEntry struct {
	side string
	t    *Tracer
}

// heatEntry names one attached heat collector for export.
type heatEntry struct {
	side string
	c    *HeatCollector
}

// MetricsOption customizes ServeMetrics / ServeClusterMetrics.
type MetricsOption func(*MetricsServer)

// WithTracer exports t's per-stage latency quantiles on /metrics
// (labeled side="...") and its recent traces on /debug/traces. May be
// given more than once (e.g. a server-side and a client-side tracer on
// one endpoint); nil tracers are ignored.
func WithTracer(side string, t *Tracer) MetricsOption {
	return func(m *MetricsServer) {
		if t != nil {
			m.tracers = append(m.tracers, tracerEntry{side: side, t: t})
		}
	}
}

// WithHeat exports c's workload-heat snapshot on /metrics (the
// precursor_heat_* families, labeled side="...") and on GET /debug/heat
// as JSON — heavy hitters by hashed key id (never plaintext keys), ring
// key-range load, skew, op rates, bytes and batch fill. May be given
// more than once (e.g. a server-side and a routing-side collector on
// one endpoint); nil collectors are ignored.
func WithHeat(side string, c *HeatCollector) MetricsOption {
	return func(m *MetricsServer) {
		if c != nil {
			m.heats = append(m.heats, heatEntry{side: side, c: c})
		}
	}
}

// WithAudit exports l's tamper-evident security event chain on
// GET /debug/audit (a signed JSON export the offline `precursor-cli
// audit verify` validates), adds the precursor_audit_* family to
// /metrics, and folds chain health into /healthz. Nil logs are ignored.
func WithAudit(l *audit.Log) MetricsOption {
	return func(m *MetricsServer) {
		if l != nil {
			m.audit = l
		}
	}
}

// WithFleet serves a's cluster SLO rollup on GET /fleet in the
// Prometheus text format — availability vs. objective, error-budget
// burn, fleet-wide replication and security counters and the worst p99
// per stage. Nil aggregators are ignored; the caller owns a's
// Start/Close lifecycle.
func WithFleet(a *fleet.Aggregator) MetricsOption {
	return func(m *MetricsServer) {
		if a != nil {
			m.fleet = a
		}
	}
}

// WithPprof additionally serves net/http/pprof under /debug/pprof/ on
// the metrics listener — CPU and heap profiling for a live store. Keep
// the metrics address off untrusted networks when enabling this.
func WithPprof() MetricsOption {
	return func(m *MetricsServer) { m.pprof = true }
}

// ServeMetrics starts an HTTP listener on addr exposing GET /metrics,
// GET /healthz (readiness: 503 until the server has completed
// bootstrap) and GET /debug/traces for the given store.
func ServeMetrics(server *Server, addr string, opts ...MetricsOption) (*MetricsServer, error) {
	return serveMetrics(server, nil, addr, opts...)
}

// ServeClusterMetrics starts a metrics endpoint for a cluster client:
// ring placement (per-shard hash-space ownership and a keys-per-shard
// estimate), per-shard operation counters, latency quantiles and shard
// health, all labeled by shard. Its /healthz reports 503 while every
// shard's breaker is open. Use TrackCluster instead to add the same
// series to an existing per-server endpoint.
func ServeClusterMetrics(cluster *ClusterClient, addr string, opts ...MetricsOption) (*MetricsServer, error) {
	return serveMetrics(nil, cluster, addr, opts...)
}

func serveMetrics(server *Server, cluster *ClusterClient, addr string, opts ...MetricsOption) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	m := &MetricsServer{server: server, cluster: cluster, ln: ln, start: time.Now(), done: make(chan struct{})}
	for _, opt := range opts {
		opt(m)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.HandleFunc("GET /debug/traces", m.handleTraces)
	mux.HandleFunc("GET /debug/audit", m.handleAudit)
	mux.HandleFunc("GET /debug/heat", m.handleHeat)
	mux.HandleFunc("GET /fleet", m.handleFleet)
	if m.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	m.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(m.done)
		_ = m.http.Serve(ln)
	}()
	return m, nil
}

// Addr returns the bound address.
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// TrackCluster adds (or replaces) a cluster client whose ring placement
// and per-shard health are exported on /metrics alongside any per-server
// series.
func (m *MetricsServer) TrackCluster(c *ClusterClient) {
	m.mu.Lock()
	m.cluster = c
	m.mu.Unlock()
}

// TrackTracer attaches a tracer after the endpoint is running — the
// dynamic equivalent of the WithTracer option.
func (m *MetricsServer) TrackTracer(side string, t *Tracer) {
	if t == nil {
		return
	}
	m.mu.Lock()
	m.tracers = append(m.tracers, tracerEntry{side: side, t: t})
	m.mu.Unlock()
}

// TrackHeat attaches a heat collector after the endpoint is running —
// the dynamic equivalent of the WithHeat option.
func (m *MetricsServer) TrackHeat(side string, c *HeatCollector) {
	if c == nil {
		return
	}
	m.mu.Lock()
	m.heats = append(m.heats, heatEntry{side: side, c: c})
	m.mu.Unlock()
}

// TrackAudit attaches an audit log after the endpoint is running — the
// dynamic equivalent of the WithAudit option.
func (m *MetricsServer) TrackAudit(l *audit.Log) {
	if l == nil {
		return
	}
	m.mu.Lock()
	m.audit = l
	m.mu.Unlock()
}

// snapshotRefs copies the mutable reference set under the lock.
func (m *MetricsServer) snapshotRefs() (*ClusterClient, []tracerEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cluster, append([]tracerEntry(nil), m.tracers...)
}

// heatRefs copies the attached heat collectors under the lock.
func (m *MetricsServer) heatRefs() []heatEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]heatEntry(nil), m.heats...)
}

// auditRef reads the attached audit log under the lock.
func (m *MetricsServer) auditRef() *audit.Log {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.audit
}

// Close stops the HTTP listener. Safe to call more than once and from
// concurrent goroutines; later calls return the first call's error.
func (m *MetricsServer) Close() error {
	m.closeOnce.Do(func() {
		m.closeErr = m.http.Close()
		<-m.done
	})
	return m.closeErr
}

// handleHealthz reports readiness, not liveness: load balancers must
// not route to an instance that is still bootstrapping (or restoring a
// snapshot), and a cluster endpoint whose every shard is unreachable
// has nothing to serve.
func (m *MetricsServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cluster, _ := m.snapshotRefs()
	if m.server != nil && !m.server.Ready() {
		http.Error(w, "not ready: server bootstrap/restore in progress", http.StatusServiceUnavailable)
		return
	}
	if m.server != nil && m.server.Draining() {
		// Graceful drain: the server sheds every new op with RETRY_LATER
		// while in-flight work finishes — scrapes and load balancers must
		// fail over now, before the process seals and exits.
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if cluster != nil && !cluster.Available() {
		http.Error(w, "not ready: no replica serving", http.StatusServiceUnavailable)
		return
	}
	auditLog := m.auditRef()
	if err := auditLog.Verify(); err != nil {
		// A chain that fails its own MAC walk means the in-memory event
		// history has been corrupted — stop trusting this instance.
		http.Error(w, "not ready: audit chain self-verification failed: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	line := "ok"
	if m.server != nil {
		if last := m.server.LastSealTime(); !last.IsZero() {
			// Operators probing /healthz see at a glance how stale the
			// durable snapshot is (see also precursor_last_seal_age_seconds).
			line += fmt.Sprintf(" seal_age_seconds=%g", time.Since(last).Seconds())
		}
	}
	if auditLog != nil {
		line += " audit_chain=ok"
		if last := auditLog.LastEventTime(); !last.IsZero() {
			line += fmt.Sprintf(" audit_last_event_age_seconds=%g", time.Since(last).Seconds())
		}
	}
	_, _ = w.Write([]byte(line + "\n"))
}

// handleAudit serves the audit log's signed export — the input to
// `precursor-cli audit verify`. 404 when no log is attached.
func (m *MetricsServer) handleAudit(w http.ResponseWriter, r *http.Request) {
	auditLog := m.auditRef()
	if auditLog == nil {
		http.Error(w, "no audit log attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = auditLog.WriteJSON(w)
}

// handleFleet serves the fleet aggregator's SLO rollup as promtext. 404
// when no aggregator is attached.
func (m *MetricsServer) handleFleet(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	agg := m.fleet
	m.mu.Unlock()
	if agg == nil {
		http.Error(w, "no fleet aggregator attached", http.StatusNotFound)
		return
	}
	agg.ServeHTTP(w, r)
}

// heatExport is one attached collector's slice of the /debug/heat
// payload.
type heatExport struct {
	// Side names the vantage point (the WithHeat label).
	Side string `json:"side"`
	// Heat is the collector's snapshot at request time.
	Heat HeatSnapshot `json:"heat"`
}

// handleHeat serves every attached heat collector's snapshot as JSON:
// heavy hitters by hashed key id (never plaintext keys), the
// ring-aligned range histogram with its skew coefficient, op rates,
// bytes and batch fill. 404 when no collector is attached.
func (m *MetricsServer) handleHeat(w http.ResponseWriter, r *http.Request) {
	heats := m.heatRefs()
	if len(heats) == 0 {
		http.Error(w, "no heat collector attached", http.StatusNotFound)
		return
	}
	out := make([]heatExport, 0, len(heats))
	for _, e := range heats {
		out = append(out, heatExport{Side: e.side, Heat: e.c.Snapshot()})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// RawTraceSet is one attached tracer's slice of the /debug/traces?raw=1
// payload: the retained traces plus the wall-clock anchor of the
// tracer's monotonic timebase, which is what lets a fleet collector
// (internal/fleet, `precursor-cli trace`) place spans from different
// processes on one shared time axis and stitch them by trace id.
type RawTraceSet struct {
	// Side names the vantage point (the WithTracer label).
	Side string `json:"side"`
	// TimeBaseUnixNano anchors the set's span timestamps: span Start
	// values are nanoseconds since this wall-clock instant.
	TimeBaseUnixNano int64 `json:"timebase_unix_nano"`
	// Traces are the tracer's retained recent traces, oldest first.
	Traces []obs.Trace `json:"traces"`
}

// handleTraces emits recent traces from every attached tracer as Chrome
// trace_event JSON: one process per tracer, one thread per trace. With
// ?raw=1 it instead emits the machine-readable RawTraceSet JSON that
// cross-node collectors stitch — raw span records with a wall-clock
// timebase anchor per tracer.
func (m *MetricsServer) handleTraces(w http.ResponseWriter, r *http.Request) {
	_, tracers := m.snapshotRefs()
	if r.URL.Query().Get("raw") != "" {
		out := make([]RawTraceSet, 0, len(tracers))
		for _, e := range tracers {
			out = append(out, RawTraceSet{
				Side:             e.side,
				TimeBaseUnixNano: obs.TimeBaseUnixNano(),
				Traces:           e.t.Recent(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
		return
	}
	sets := make([]obs.TraceSet, 0, len(tracers))
	for _, e := range tracers {
		sets = append(sets, obs.TraceSet{Side: e.side, Traces: e.t.Recent()})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, sets)
}

func (m *MetricsServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	m.writeBuildInfo(&b)
	if m.server != nil {
		m.writeServerMetrics(&b)
	}
	cluster, tracers := m.snapshotRefs()
	if cluster != nil {
		writeClusterMetrics(&b, cluster)
	}
	if auditLog := m.auditRef(); auditLog != nil {
		writeAuditMetrics(&b, auditLog)
	}
	writeStageMetrics(&b, tracers)
	writeHeatMetrics(&b, m.heatRefs())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}

// writeBuildInfo renders the build-identity and uptime series every
// endpoint flavor exports: precursor_build_info (a constant-1 gauge
// whose labels carry the library version and Go runtime, the standard
// *_build_info idiom) and precursor_uptime_seconds (seconds since this
// metrics endpoint started serving).
func (m *MetricsServer) writeBuildInfo(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP precursor_build_info Build identity; value is always 1, the labels carry the info\n# TYPE precursor_build_info gauge\n")
	fmt.Fprintf(b, "precursor_build_info{version=%q,go=%q} 1\n", Version, runtime.Version())
	fmt.Fprintf(b, "# HELP precursor_uptime_seconds Seconds since this metrics endpoint started\n# TYPE precursor_uptime_seconds gauge\n")
	fmt.Fprintf(b, "precursor_uptime_seconds %g\n", time.Since(m.start).Seconds())
}

func (m *MetricsServer) writeServerMetrics(b *strings.Builder) {
	st := m.server.Stats()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("precursor_puts_total", "Completed put operations", st.Puts)
	counter("precursor_gets_total", "Completed get operations", st.Gets)
	counter("precursor_deletes_total", "Completed delete operations", st.Deletes)
	counter("precursor_batches_total", "Multi-op batch frames applied", st.Batches)
	counter("precursor_batched_ops_total", "Operations carried by batch frames (each also counted in puts/gets/deletes)", st.BatchedOps)
	counter("precursor_replies_inline_total", "Replies a trusted thread wrote into the response ring itself", st.RepliesInline)
	counter("precursor_replies_queued_total", "Replies handed to the untrusted sender pool: ring out of credit, earlier replies queued, or a transport whose post can stall", st.RepliesQueued)
	counter("precursor_poll_spins_total", "Idle sweeps of the trusted threads that went straight on", st.PollSpins)
	counter("precursor_poll_yields_total", "Idle sweeps of the trusted threads that yielded the processor", st.PollYields)
	counter("precursor_poll_sleeps_total", "Idle sweeps of the trusted threads that slept PollInterval or parked on their TCP sessions' writes", st.PollSleeps)
	counter("precursor_poll_parks_woken_total", "Parks of the trusted threads that a write into one of their rings ended", st.PollParksWoken)
	counter("precursor_poll_parks_capped_total", "Parks of the trusted threads that ran to their cap with no write", st.PollParksCapped)
	counter("precursor_fabric_frames_written_total", "TCP fabric frames the server sent, acks included", st.Fabric.FramesWritten)
	counter("precursor_fabric_frames_read_total", "TCP fabric frames the server received", st.Fabric.FramesRead)
	counter("precursor_fabric_reads_total", "Reads from the server's TCP fabric sockets; each brings in one frame or several", st.Fabric.Reads)
	counter("precursor_fabric_acks_sent_total", "TCP fabric acks the server sent: one per op whose frame asked for it, and one per failed op", st.Fabric.AcksSent)
	counter("precursor_replays_total", "Rejected replayed requests", st.Replays)
	counter("precursor_auth_failures_total", "Control data (under server encryption also values) that failed authentication", st.AuthFailures)
	counter("precursor_bad_requests_total", "Malformed requests", st.BadRequests)
	counter("precursor_trace_context_errors_total", "Sealed controls whose trailing bytes did not decode as a trace context (version-skewed peer; the request was still served)", st.TraceCtxErrors)
	counter("precursor_enclave_crypto_bytes_total", "Bytes en/decrypted inside the enclave (control data; under server encryption also two passes per value)", st.EnclaveCryptoBytes)
	counter("precursor_enclave_ecalls_total", "Enclave entries", st.Enclave.Ecalls)
	counter("precursor_enclave_ocalls_total", "Enclave exits", st.Enclave.Ocalls)
	counter("precursor_enclave_page_faults_total", "EPC paging events", st.Enclave.PageFaults)
	gauge("precursor_entries", "Stored key-value entries", float64(st.Entries))
	gauge("precursor_clients", "Connected client sessions", float64(st.Clients))
	gauge("precursor_enclave_epc_pages", "Enclave working set in pages", float64(st.Enclave.EPCPages))
	gauge("precursor_pool_bytes_reserved", "Untrusted payload pool reserved bytes", float64(st.PoolBytesReserved))
	gauge("precursor_pool_bytes_in_use", "Untrusted payload pool live bytes, slot-rounded", float64(st.PoolBytesInUse))
	gauge("precursor_pool_bytes_requested", "Untrusted payload pool live bytes as stored, without size-class padding", float64(st.PoolBytesRequested))
	gauge("precursor_ready", "1 once the server has completed bootstrap (readiness)", boolGauge(m.server.Ready()))
	counter("precursor_seals_total", "Successful sealed-snapshot writes", m.server.SealsTotal())
	if last := m.server.LastSealTime(); !last.IsZero() {
		gauge("precursor_last_seal_age_seconds", "Seconds since the last successful seal", time.Since(last).Seconds())
	} else {
		gauge("precursor_last_seal_age_seconds", "Seconds since the last successful seal (-1 = never sealed)", -1)
	}
	if d := m.server.LastSealDuration(); d > 0 {
		gauge("precursor_seal_duration_seconds", "Wall time of the last successful seal (index-only with a value log, so flat as data grows)", d.Seconds())
	}
	counter("precursor_overload_shed_reads_total", "Reads refused by the admission gate with sealed RETRY_LATER", st.ShedReads)
	counter("precursor_overload_shed_writes_total", "Writes refused by the admission gate with sealed RETRY_LATER", st.ShedWrites)
	gauge("precursor_overload_draining", "1 while the server is in graceful drain (shedding every op before seal-and-exit)", boolGauge(st.Draining))
	if g := m.server.Gate(); g != nil {
		gs := g.Stats()
		counter("precursor_overload_admitted_total", "Operations admitted past the overload gate", gs.Admitted)
		gauge("precursor_overload_inflight", "Operations currently inside the admission gate", float64(gs.Inflight))
		gauge("precursor_overload_service_ewma_seconds", "Smoothed per-op service time the gate scales reply-queue backlog by", gs.ServiceEWMA.Seconds())
	}
	if v := st.Vlog; v != nil {
		gauge("precursor_vlog_segments", "Value-log segment files on disk", float64(v.Log.Segments))
		gauge("precursor_vlog_live_bytes", "Value-log bytes still referenced by the enclave index", float64(v.Log.LiveBytes))
		gauge("precursor_vlog_dead_bytes", "Value-log bytes superseded or deleted, awaiting GC", float64(v.Log.DeadBytes))
		gauge("precursor_vlog_cached_bytes", "Untrusted pool bytes caching value-log payloads", float64(v.CachedBytes))
		counter("precursor_vlog_appended_records_total", "Records appended to the value log", v.Log.AppendedRecords)
		counter("precursor_vlog_appended_bytes_total", "Bytes appended to the value log", v.Log.AppendedBytes)
		counter("precursor_vlog_group_commits_total", "Fsync batches issued by the group committer", v.Log.GroupCommits)
		counter("precursor_vlog_synced_appends_total", "Appends made durable by those batches", v.Log.SyncedAppends)
		gauge("precursor_vlog_group_commit_batch_avg", "Mean appends coalesced per fsync (durability amortization factor)", v.Log.BatchAvg())
		counter("precursor_vlog_read_throughs_total", "Gets served by reading the value from disk", v.ReadThroughs)
		counter("precursor_vlog_read_errors_total", "Disk read-throughs that failed structurally", v.ReadErrors)
		counter("precursor_vlog_auth_failures_total", "Value-log records whose sealed metadata failed authentication", v.AuthFailures)
		counter("precursor_vlog_gc_runs_total", "Value-log compaction passes", v.GCRuns)
		counter("precursor_vlog_gc_moved_records_total", "Live records relocated by compaction", v.GCMovedRecords)
		counter("precursor_vlog_gc_segments_total", "Segments removed by compaction", v.Log.GCSegments)
		counter("precursor_vlog_gc_reclaimed_bytes_total", "Bytes reclaimed by removing compacted segments", v.Log.GCReclaimed)
	}
}

// boolGauge renders a boolean as 0/1.
func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// seconds renders a duration as fractional seconds, Prometheus's base
// unit for time series.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}

// writeAuditMetrics renders the audit log's health: per-kind event
// counts, drops, recency and the result of a chain self-verification.
func writeAuditMetrics(b *strings.Builder, l *audit.Log) {
	head := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	counts := l.CountsByKind()
	if len(counts) > 0 {
		head("precursor_audit_events_total", "Security audit events recorded, by kind", "counter")
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(b, "precursor_audit_events_total{kind=%q} %d\n", k, counts[k])
		}
	}
	head("precursor_audit_chain_length", "Audit records currently retained in the chain", "gauge")
	fmt.Fprintf(b, "precursor_audit_chain_length %d\n", l.Len())
	head("precursor_audit_dropped_total", "Audit records evicted by the retention cap", "counter")
	fmt.Fprintf(b, "precursor_audit_dropped_total %d\n", l.Dropped())
	head("precursor_audit_chain_ok", "1 if the audit chain passes self-verification", "gauge")
	fmt.Fprintf(b, "precursor_audit_chain_ok %g\n", boolGauge(l.Verify() == nil))
	if last := l.LastEventTime(); !last.IsZero() {
		head("precursor_audit_last_event_age_seconds", "Seconds since the most recent audit event", "gauge")
		fmt.Fprintf(b, "precursor_audit_last_event_age_seconds %g\n", time.Since(last).Seconds())
	}
}

// writeStageMetrics renders every attached tracer's per-stage latency
// quantiles as one summary family labeled by side and stage.
func writeStageMetrics(b *strings.Builder, tracers []tracerEntry) {
	const name = "precursor_stage_latency_seconds"
	wrote := false
	for _, e := range tracers {
		snap := e.t.Snapshot()
		if len(snap) == 0 {
			continue
		}
		if !wrote {
			fmt.Fprintf(b, "# HELP %s Per-stage operation latency (see OBSERVABILITY.md for the stage glossary)\n# TYPE %s summary\n", name, name)
			wrote = true
		}
		for _, sq := range snap {
			q := sq.Quantiles
			labels := fmt.Sprintf("side=%q,stage=%q", e.side, sq.Stage)
			fmt.Fprintf(b, "%s{%s,quantile=\"0.5\"} %s\n", name, labels, seconds(q.P50))
			fmt.Fprintf(b, "%s{%s,quantile=\"0.95\"} %s\n", name, labels, seconds(q.P95))
			// The p99 line carries an OpenMetrics-style exemplar when the
			// stage recorded anything since the last scrape: the trace id
			// of the stage's slowest recent span, linking the quantile to
			// one concrete trace in /debug/traces. Parsers that don't know
			// exemplars take the first value field and ignore the suffix.
			if id, dur, ok := e.t.TakeExemplar(sq.Stage); ok {
				fmt.Fprintf(b, "%s{%s,quantile=\"0.99\"} %s # {trace_id=\"%016x\"} %s\n",
					name, labels, seconds(q.P99), id, seconds(dur))
			} else {
				fmt.Fprintf(b, "%s{%s,quantile=\"0.99\"} %s\n", name, labels, seconds(q.P99))
			}
			fmt.Fprintf(b, "%s{%s,quantile=\"0.999\"} %s\n", name, labels, seconds(q.P999))
			fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, seconds(q.Sum))
			fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, q.Count)
		}
	}
	if len(tracers) > 0 {
		const supp = "precursor_slowop_suppressed_total"
		fmt.Fprintf(b, "# HELP %s Slow-op log lines dropped by the tracer's log rate limiter\n# TYPE %s counter\n", supp, supp)
		for _, e := range tracers {
			fmt.Fprintf(b, "%s{side=%q} %d\n", supp, e.side, e.t.SlowSuppressed())
		}
		const ret = "precursor_traces_retained_total"
		fmt.Fprintf(b, "# HELP %s Finished traces retained in the recent-trace ring (essential or head-sampled)\n# TYPE %s counter\n", ret, ret)
		for _, e := range tracers {
			fmt.Fprintf(b, "%s{side=%q} %d\n", ret, e.side, e.t.Retained())
		}
		const disc = "precursor_traces_discarded_total"
		fmt.Fprintf(b, "# HELP %s Finished traces dropped by tail sampling (unremarkable and not head-sampled; their spans still count in the latency histograms)\n# TYPE %s counter\n", disc, disc)
		for _, e := range tracers {
			fmt.Fprintf(b, "%s{side=%q} %d\n", disc, e.side, e.t.Discarded())
		}
	}
}

// writeHeatMetrics renders every attached heat collector's snapshot as
// the precursor_heat_* families, labeled by side. The heavy-hitter list
// itself is JSON-only (GET /debug/heat) — per-hash series would churn
// label cardinality — but its concentration is summarized here as the
// top-1 and top-K shares of total ops.
func writeHeatMetrics(b *strings.Builder, heats []heatEntry) {
	if len(heats) == 0 {
		return
	}
	head := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	snaps := make([]HeatSnapshot, len(heats))
	for i, e := range heats {
		snaps[i] = e.c.Snapshot()
	}
	head("precursor_heat_ops_total", "Operations accounted by the heat collector, by kind", "counter")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_ops_total{side=%q,kind=\"put\"} %d\n", e.side, snaps[i].Puts)
		fmt.Fprintf(b, "precursor_heat_ops_total{side=%q,kind=\"get\"} %d\n", e.side, snaps[i].Gets)
		fmt.Fprintf(b, "precursor_heat_ops_total{side=%q,kind=\"delete\"} %d\n", e.side, snaps[i].Deletes)
	}
	head("precursor_heat_op_rate", "EWMA operation rate in ops/sec (~10s time constant), by kind", "gauge")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_op_rate{side=%q,kind=\"put\"} %g\n", e.side, snaps[i].PutRate)
		fmt.Fprintf(b, "precursor_heat_op_rate{side=%q,kind=\"get\"} %g\n", e.side, snaps[i].GetRate)
		fmt.Fprintf(b, "precursor_heat_op_rate{side=%q,kind=\"delete\"} %g\n", e.side, snaps[i].DeleteRate)
	}
	head("precursor_heat_bytes_in_total", "Payload bytes received from clients, per heat vantage", "counter")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_bytes_in_total{side=%q} %d\n", e.side, snaps[i].BytesIn)
	}
	head("precursor_heat_bytes_out_total", "Payload bytes returned to clients, per heat vantage", "counter")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_bytes_out_total{side=%q} %d\n", e.side, snaps[i].BytesOut)
	}
	head("precursor_heat_range_ops_total", "Operations per equal arc of the 64-bit ring hash space (bucket 0 = lowest hashes)", "counter")
	for i, e := range heats {
		for bk, n := range snaps[i].RangeBuckets {
			fmt.Fprintf(b, "precursor_heat_range_ops_total{side=%q,bucket=\"%d\"} %d\n", e.side, bk, n)
		}
	}
	head("precursor_heat_range_skew_cv", "Coefficient of variation across the key-range histogram (0 = perfectly balanced)", "gauge")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_range_skew_cv{side=%q} %g\n", e.side, snaps[i].RangeSkew.CV)
	}
	head("precursor_heat_range_skew_max_mean", "Hottest key-range bucket's load over the mean bucket load (1 = perfectly balanced)", "gauge")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_range_skew_max_mean{side=%q} %g\n", e.side, snaps[i].RangeSkew.MaxMean)
	}
	head("precursor_heat_top1_share", "Fraction of all ops hitting the single hottest hashed key", "gauge")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_top1_share{side=%q} %g\n", e.side, topShare(snaps[i], 1))
	}
	head("precursor_heat_topk_share", "Fraction of all ops hitting the sketch's tracked heavy hitters", "gauge")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_topk_share{side=%q} %g\n", e.side, topShare(snaps[i], len(snaps[i].Top)))
	}
	head("precursor_heat_batches_total", "Multi-op batch frames accounted by the heat collector", "counter")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_batches_total{side=%q} %d\n", e.side, snaps[i].Batches)
	}
	head("precursor_heat_batched_ops_total", "Operations carried inside those batch frames", "counter")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_batched_ops_total{side=%q} %d\n", e.side, snaps[i].BatchedOps)
	}
	head("precursor_heat_batch_fill_total", "Batch frames by fill level (cumulative le buckets)", "counter")
	for i, e := range heats {
		var cum uint64
		for bk := 0; bk < heat.BatchFillBucketCount; bk++ {
			cum += snaps[i].BatchFill[bk]
			bound := "+Inf"
			if ub := heat.BatchFillBucketBound(bk); ub >= 0 {
				bound = fmt.Sprintf("%d", ub)
			}
			fmt.Fprintf(b, "precursor_heat_batch_fill_total{side=%q,le=%q} %d\n", e.side, bound, cum)
		}
	}
	head("precursor_heat_uptime_seconds", "Age of the heat collector", "gauge")
	for i, e := range heats {
		fmt.Fprintf(b, "precursor_heat_uptime_seconds{side=%q} %s\n", e.side, seconds(snaps[i].Uptime))
	}
}

// topShare returns the fraction of a snapshot's total ops covered by
// its n hottest entries (estimated counts, so an upper bound).
func topShare(s HeatSnapshot, n int) float64 {
	total := s.TotalOps()
	if total == 0 {
		return 0
	}
	if n > len(s.Top) {
		n = len(s.Top)
	}
	var sum uint64
	for _, e := range s.Top[:n] {
		sum += e.Count
	}
	share := float64(sum) / float64(total)
	if share > 1 {
		share = 1
	}
	return share
}

// writeClusterMetrics renders ring-placement and per-shard series for a
// cluster client, labeled by shard name.
func writeClusterMetrics(b *strings.Builder, c *ClusterClient) {
	st := c.Stats()
	head := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	head("precursor_cluster_shards", "Cluster membership size (replicas across all groups)", "gauge")
	fmt.Fprintf(b, "precursor_cluster_shards %d\n", len(st.Shards))
	head("precursor_cluster_groups", "Replica groups (ring positions)", "gauge")
	fmt.Fprintf(b, "precursor_cluster_groups %d\n", st.Groups)
	head("precursor_cluster_read_failovers_total", "Replicated reads served by a non-preferred replica", "counter")
	fmt.Fprintf(b, "precursor_cluster_read_failovers_total %d\n", st.Failovers)
	head("precursor_cluster_quorum_shortfalls_total", "Replicated writes that missed their write quorum", "counter")
	fmt.Fprintf(b, "precursor_cluster_quorum_shortfalls_total %d\n", st.QuorumShortfalls)
	head("precursor_cluster_repairs_total", "Completed replica anti-entropy repairs", "counter")
	fmt.Fprintf(b, "precursor_cluster_repairs_total %d\n", st.Repairs)
	head("precursor_cluster_repair_failures_total", "Aborted replica repair attempts", "counter")
	fmt.Fprintf(b, "precursor_cluster_repair_failures_total %d\n", st.RepairFailures)
	head("precursor_cluster_hedges_launched_total", "Secondary reads issued by the hedge timer", "counter")
	fmt.Fprintf(b, "precursor_cluster_hedges_launched_total %d\n", st.HedgesLaunched)
	head("precursor_cluster_hedges_won_total", "Hedged reads where the secondary's sealed-valid reply arrived first", "counter")
	fmt.Fprintf(b, "precursor_cluster_hedges_won_total %d\n", st.HedgesWon)
	head("precursor_cluster_hedges_denied_total", "Hedge attempts refused by the retry budget", "counter")
	fmt.Fprintf(b, "precursor_cluster_hedges_denied_total %d\n", st.HedgesDenied)
	head("precursor_retry_budget_tokens", "Retry/hedge token-bucket level (successes deposit, retries and hedges spend)", "gauge")
	fmt.Fprintf(b, "precursor_retry_budget_tokens %g\n", st.RetryBudget.Tokens)
	head("precursor_retry_budget_granted_total", "Retries and hedges the budget allowed", "counter")
	fmt.Fprintf(b, "precursor_retry_budget_granted_total %d\n", st.RetryBudget.Granted)
	head("precursor_retry_budget_denied_total", "Retries and hedges the budget refused (amplification actively bounded)", "counter")
	fmt.Fprintf(b, "precursor_retry_budget_denied_total %d\n", st.RetryBudget.Denied)

	// Live keys across the cluster (puts minus deletes, an upper bound
	// under overwrites) scales each shard's ring ownership into a
	// keys-per-shard estimate.
	var live int64
	for _, ss := range st.Shards {
		live += int64(ss.Puts) - int64(ss.Deletes)
	}
	if live < 0 {
		live = 0
	}

	perShard := func(name, help, typ string, v func(ClusterShardStats) string) {
		head(name, help, typ)
		for _, ss := range st.Shards {
			fmt.Fprintf(b, "%s{shard=%q,group=%q} %s\n", name, ss.Name, ss.Group, v(ss))
		}
	}
	perShard("precursor_cluster_shard_up", "1 if the replica is serving (breaker closed and not repairing)", "gauge",
		func(ss ClusterShardStats) string {
			if ss.State == "up" {
				return "1"
			}
			return "0"
		})
	perShard("precursor_cluster_shard_repairing", "1 while the replica is being caught up by anti-entropy repair", "gauge",
		func(ss ClusterShardStats) string {
			if ss.State == "repairing" {
				return "1"
			}
			return "0"
		})
	perShard("precursor_cluster_shard_lag", "Writes the replica has missed since it was last caught up", "gauge",
		func(ss ClusterShardStats) string { return fmt.Sprintf("%d", ss.Lag) })
	perShard("precursor_cluster_shard_repairs_total", "Completed anti-entropy repairs of the replica", "counter",
		func(ss ClusterShardStats) string { return fmt.Sprintf("%d", ss.Repairs) })
	perShard("precursor_cluster_shard_ownership", "Shard's fraction of the placement ring's hash space", "gauge",
		func(ss ClusterShardStats) string { return fmt.Sprintf("%g", ss.Ownership) })
	perShard("precursor_cluster_shard_keys_estimate", "Estimated keys on the shard (ring ownership x live keys written through this client)", "gauge",
		func(ss ClusterShardStats) string { return fmt.Sprintf("%g", ss.Ownership*float64(live)) })
	perShard("precursor_cluster_shard_puts_total", "Puts routed to the shard", "counter",
		func(ss ClusterShardStats) string { return fmt.Sprintf("%d", ss.Puts) })
	perShard("precursor_cluster_shard_gets_total", "Gets routed to the shard", "counter",
		func(ss ClusterShardStats) string { return fmt.Sprintf("%d", ss.Gets) })
	perShard("precursor_cluster_shard_deletes_total", "Deletes routed to the shard", "counter",
		func(ss ClusterShardStats) string { return fmt.Sprintf("%d", ss.Deletes) })
	perShard("precursor_cluster_shard_errors_total", "Operations against the shard that failed", "counter",
		func(ss ClusterShardStats) string { return fmt.Sprintf("%d", ss.Errors) })

	// Per-shard whole-operation latency quantiles, one summary family.
	const lat = "precursor_cluster_shard_latency_seconds"
	wrote := false
	for _, ss := range st.Shards {
		q := ss.Latency
		if q.Count == 0 {
			continue
		}
		if !wrote {
			head(lat, "Whole-operation latency against the shard as seen by this client", "summary")
			wrote = true
		}
		labels := fmt.Sprintf("shard=%q,group=%q", ss.Name, ss.Group)
		fmt.Fprintf(b, "%s{%s,quantile=\"0.5\"} %s\n", lat, labels, seconds(q.P50))
		fmt.Fprintf(b, "%s{%s,quantile=\"0.95\"} %s\n", lat, labels, seconds(q.P95))
		fmt.Fprintf(b, "%s{%s,quantile=\"0.99\"} %s\n", lat, labels, seconds(q.P99))
		fmt.Fprintf(b, "%s{%s,quantile=\"0.999\"} %s\n", lat, labels, seconds(q.P999))
		fmt.Fprintf(b, "%s_sum{%s} %s\n", lat, labels, seconds(q.Sum))
		fmt.Fprintf(b, "%s_count{%s} %d\n", lat, labels, q.Count)
	}
}
