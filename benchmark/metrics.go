package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// metricDef declares one metric. The two lists below and BENCHMARK.json
// must agree name for name (a test checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	Help   string
}

// endToEnd are the gated metrics a user of the store would see; the same
// on every workload, always taken from an untraced run. Throughput, the
// latency medians and CPU per op were meant to be here as well; on a shared
// two-core host they move 25-40% between runs of the same code for tens of
// minutes at a time (NOISE.md), so they are reported with every run as
// harness.* and not gated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "start of the workload to first warm-up op: platform, server(s), attested connection(s), preload of every key"},
	{"allocs_per_op", "count", "lower", 0.05, "heap allocations (MemStats.Mallocs) over the measured phase per op"},
	{"alloc_bytes_per_op", "B", "lower", 0.05, "heap bytes allocated (MemStats.TotalAlloc) over the measured phase per op"},
	{"live_heap_mib", "MiB", "lower", 0.05, "HeapAlloc after a forced GC at the end of the measured phase"},
	{"epc_mib", "MiB", "lower", 0.02, "enclave working set (EPC pages x 4 KiB), summed over replicas"},
}

// perLayer are the single-layer metrics of a traced run (-trace 1). The
// prefix before the first dot is the module the number belongs to. A
// metric whose layer is not on a workload's path is reported as 0 there
// and marked not applicable in the result document.
var perLayer = []metricDef{
	{Name: "cryptox.control_seal_ns", Unit: "ns", Better: "lower", Help: "AEAD.SealAppend of one control segment at the workload's control size"},
	{Name: "cryptox.control_open_ns", Unit: "ns", Better: "lower", Help: "AEAD.OpenAppend of the same segment"},
	{Name: "cryptox.opkey_gen_ns", Unit: "ns", Better: "lower", Help: "NewOperationKey"},
	{Name: "cryptox.payload_encrypt_ns", Unit: "ns", Better: "lower", Help: "EncryptPayload at the workload's value size"},
	{Name: "cryptox.payload_decrypt_ns", Unit: "ns", Better: "lower", Help: "DecryptPayload at the workload's value size"},
	{Name: "cryptox.payload_mb_s", Unit: "MB/s", Better: "higher", Help: "value bytes per second through EncryptPayload"},
	{Name: "cryptox.allocs_per_call", Unit: "count", Better: "lower", Help: "heap allocations of one EncryptPayload+DecryptPayload pair"},

	{Name: "wire.request_encode_ns", Unit: "ns", Better: "lower", Help: "RequestControl.Encode + Request.Encode"},
	{Name: "wire.request_decode_ns", Unit: "ns", Better: "lower", Help: "DecodeRequest + DecodeRequestControl"},
	{Name: "wire.response_encode_ns", Unit: "ns", Better: "lower", Help: "ResponseControl.Encode + Response.Encode"},
	{Name: "wire.response_decode_ns", Unit: "ns", Better: "lower", Help: "DecodeResponse + DecodeResponseControl"},
	{Name: "wire.frame_bytes_per_op", Unit: "B", Better: "lower", Help: "request + response frame bytes per op, weighted by the mix"},
	{Name: "wire.batch_codec_ns_per_op", Unit: "ns", Better: "lower", Help: "batch control, request and reply encode + decode of a 32-op frame, per op"},

	{Name: "ringbuf.write_ns", Unit: "ns", Better: "lower", Help: "Writer.TryWrite of one request frame"},
	{Name: "ringbuf.poll_hit_ns", Unit: "ns", Better: "lower", Help: "Reader.PollInto that finds that frame"},
	{Name: "ringbuf.poll_empty_ns", Unit: "ns", Better: "lower", Help: "Reader.PollInto on an empty ring"},
	{Name: "ringbuf.credit_stalls", Unit: "count", Better: "lower", Help: "Writer.Stalls on the client's request ring over the traced windows"},

	{Name: "rdma.inproc_write_ns", Unit: "ns", Better: "lower", Help: "QP.PostWrite of one request frame on a ConnectRC pair"},
	{Name: "rdma.tcp_write_rtt_us", Unit: "us", Better: "lower", Help: "signaled PostWrite to completion over DialTCP/ListenTCP loopback"},
	{Name: "rdma.verbs_per_op", Unit: "count", Better: "lower", Help: "verbs posted on the wrapped queue-pair ends per op"},
	{Name: "rdma.bytes_per_op", Unit: "B", Better: "lower", Help: "bytes posted on the wrapped queue-pair ends per op"},

	{Name: "sgx.ecall_ns", Unit: "ns", Better: "lower", Help: "Enclave.Ecall of an empty function"},
	{Name: "sgx.touch_ns", Unit: "ns", Better: "lower", Help: "Region.Touch of one staging page"},
	{Name: "sgx.ecalls_per_op", Unit: "count", Better: "lower", Help: "Enclave.Stats ecalls over the traced windows per op (hot path: 0)"},
	{Name: "sgx.ocalls_per_op", Unit: "count", Better: "lower", Help: "ocalls over the traced windows per op"},
	{Name: "sgx.page_faults_per_op", Unit: "count", Better: "lower", Help: "EPC page faults over the traced windows per op"},
	{Name: "sgx.epc_pages", Unit: "count", Better: "lower", Help: "EPC pages in the working set, summed over replicas"},

	{Name: "hashtable.get_ns", Unit: "ns", Better: "lower", Help: "Table.Get at the workload's entry count"},
	{Name: "hashtable.swap_ns", Unit: "ns", Better: "lower", Help: "Table.Swap of an existing key"},
	{Name: "hashtable.get_parallel2_ns", Unit: "ns", Better: "lower", Help: "Table.Get per call with a second goroutine doing the same"},
	{Name: "hashtable.buckets_per_entry", Unit: "ratio", Better: "lower", Help: "Table.Buckets / Table.Len"},

	{Name: "slab.alloc_free_ns", Unit: "ns", Better: "lower", Help: "Pool.Alloc + Pool.Free at the stored value size"},
	{Name: "slab.write_read_ns", Unit: "ns", Better: "lower", Help: "Pool.Write + Pool.Read at the stored value size"},
	{Name: "slab.reserved_per_inuse", Unit: "ratio", Better: "lower", Help: "ServerStats.PoolBytesReserved / PoolBytesInUse"},
	{Name: "slab.growths", Unit: "count", Better: "lower", Help: "ServerStats.PoolGrowths since start"},

	{Name: "vlog.append_us", Unit: "us", Better: "lower", Help: "Log.Append (durable before return) from one goroutine"},
	{Name: "vlog.append_parallel2_us", Unit: "us", Better: "lower", Help: "Log.Append per call from two goroutines (group commit)"},
	{Name: "vlog.read_us", Unit: "us", Better: "lower", Help: "Log.ReadAt"},
	{Name: "vlog.appends_per_fsync", Unit: "ratio", Better: "higher", Help: "synced appends per group commit over the traced windows"},
	{Name: "vlog.bytes_written_per_user_byte", Unit: "ratio", Better: "lower", Help: "log bytes appended on all replicas per value byte put"},
	{Name: "vlog.read_throughs_per_get", Unit: "ratio", Better: "lower", Help: "gets served from the log, not the memory cache"},
	{Name: "vlog.gc_runs", Unit: "count", Better: "lower", Help: "compaction scans over the traced windows"},
	{Name: "vlog.gc_moved_records", Unit: "count", Better: "lower", Help: "live records relocated by compaction over the traced windows"},
	{Name: "vlog.replay_ms", Unit: "ms", Better: "lower", Help: "Server.ReplayVlog on a restarted replica"},

	{Name: "core.cli_encrypt_us", Unit: "us", Better: "lower", Help: "p50 of the cli_encrypt obs stage"},
	{Name: "core.cli_seal_us", Unit: "us", Better: "lower", Help: "p50 of cli_seal (cli_batch on batch frames)"},
	{Name: "core.cli_ring_write_us", Unit: "us", Better: "lower", Help: "p50 of cli_ring_write"},
	{Name: "core.cli_resp_wait_us", Unit: "us", Better: "lower", Help: "p50 of cli_resp_wait"},
	{Name: "core.cli_verify_us", Unit: "us", Better: "lower", Help: "p50 of cli_verify"},
	{Name: "core.srv_pickup_us", Unit: "us", Better: "lower", Help: "p50 of srv_pickup"},
	{Name: "core.srv_verify_us", Unit: "us", Better: "lower", Help: "p50 of srv_verify"},
	{Name: "core.srv_apply_us", Unit: "us", Better: "lower", Help: "p50 of srv_apply (srv_batch on batch frames)"},
	{Name: "core.srv_reply_seal_us", Unit: "us", Better: "lower", Help: "p50 of srv_reply_seal"},
	{Name: "core.srv_send_us", Unit: "us", Better: "lower", Help: "p50 of srv_send"},
	{Name: "core.enclave_crypto_bytes_per_op", Unit: "B", Better: "lower", Help: "ServerStats.EnclaveCryptoBytes per op: control only, never value size"},
	{Name: "core.ops_per_batch", Unit: "count", Better: "higher", Help: "ServerStats.BatchedOps / Batches"},
	{Name: "core.replays", Unit: "count", Better: "lower", Help: "rejected stale oids (must be 0)"},
	{Name: "core.bad_requests", Unit: "count", Better: "lower", Help: "malformed requests (must be 0)"},
	{Name: "core.read_retries", Unit: "count", Better: "lower", Help: "client read re-attempts (must be 0)"},
	{Name: "core.retry_laters", Unit: "count", Better: "lower", Help: "admission-control sheds seen by the client (must be 0)"},

	{Name: "cluster.put_overhead_us", Unit: "us", Better: "lower", Help: "ClusterClient.Put p50 minus the slower replica's direct Client.Put p50"},
	{Name: "cluster.get_overhead_us", Unit: "us", Better: "lower", Help: "ClusterClient.Get p50 minus the slower replica's direct Client.Get p50"},
	{Name: "cluster.replica_writes_per_put", Unit: "ratio", Better: "lower", Help: "replica puts per cluster put"},
	{Name: "cluster.quorum_shortfalls", Unit: "count", Better: "lower", Help: "writes that missed their quorum (must be 0)"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Help: "reads served by a replica other than the first tried"},

	{Name: "pool.put_overhead_us", Unit: "us", Better: "lower", Help: "Pool.Put p50 minus direct Client.Put p50 on the same connection"},

	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Help: "GC cycles over the traced windows"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower", Help: "stop-the-world pause total over the traced windows"},
	{Name: "go.peak_rss_mib", Unit: "MiB", Better: "lower", Help: "getrusage high-water resident set"},
	{Name: "go.goroutines", Unit: "count", Better: "lower", Help: "goroutines at the end of the traced windows"},

	{Name: "path.accounted_us", Unit: "us", Better: "lower", Help: "sum over the op path of calls-per-op x probe time (README has the table)"},
	{Name: "path.residual_us", Unit: "us", Better: "lower", Help: "mean op latency minus accounted: waiting, wake-ups, scheduling"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Help: "throughput lost with spans, tracers and the counting conn attached"},

	{Name: "harness.throughput_ops_s", Unit: "ops/s", Better: "higher", Help: "verified ops per second, median window (a batch frame counts its 32 ops); untraced"},
	{Name: "harness.get_p50_us", Unit: "us", Better: "lower", Help: "median get (or get-frame) latency at the client call, median window; untraced"},
	{Name: "harness.put_p50_us", Unit: "us", Better: "lower", Help: "median put (or put-frame) latency at the client call, median window; untraced"},
	{Name: "harness.cpu_us_per_op", Unit: "us", Better: "lower", Help: "process user+sys CPU over the measured phase per op, pollers included; untraced"},
	{Name: "harness.get_p99_us", Unit: "us", Better: "lower", Help: "p99 get latency over all windows (reported, not gated)"},
	{Name: "harness.put_p99_us", Unit: "us", Better: "lower", Help: "p99 put latency over all windows (reported, not gated)"},
	{Name: "harness.window_cv", Unit: "ratio", Better: "lower", Help: "spread of the windows' throughput (stddev / mean)"},
	{Name: "harness.calib_cpu_ms", Unit: "ms", Better: "lower", Help: "fixed SHA-256 loop timed after the run; a disturbed host shows here"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// NotApplicable marks a per-layer metric whose layer is not on this
	// workload's path; its value is 0.
	NotApplicable bool `json:"not_applicable,omitempty"`
}

// metricSet collects values against a declared list.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

// set records a value; an undeclared name is a bug in the harness.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

func (m *metricSet) get(name string) (float64, bool) {
	v, ok := m.values[name]
	return v.Value, ok && !v.NotApplicable
}

// complete fills every declared metric that was not set with a
// not-applicable zero, so the emitted set is always the declared set.
func (m *metricSet) complete() {
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			m.values[d.Name] = metricValue{Unit: d.Unit, NotApplicable: true}
		}
	}
}

// percentileNote is the sample count behind a latency figure and the
// deepest tail that count supports.
type percentileNote struct {
	Samples int     `json:"samples"`
	TailPct float64 `json:"tail_percentile,omitempty"`
	TailUs  float64 `json:"tail_us,omitempty"`
}

// windowStat is one measurement window.
type windowStat struct {
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	GetP50Us       float64 `json:"get_p50_us"`
	PutP50Us       float64 `json:"put_p50_us"`
	Gets           int     `json:"gets"`
	Puts           int     `json:"puts"`
}

// resultDoc is the full result document of one invocation, written to
// the out directory; the last stdout line is its driver-facing summary.
type resultDoc struct {
	Workload   string                 `json:"workload"`
	Why        string                 `json:"why"`
	Traced     bool                   `json:"traced"`
	Seed       uint64                 `json:"seed"`
	Keys       int                    `json:"keys"`
	ValueBytes int                    `json:"value_bytes"`
	Clients    int                    `json:"clients"`
	BatchOps   int                    `json:"batch_ops,omitempty"`
	Windows    int                    `json:"windows"`
	WindowS    float64                `json:"window_s"`
	WarmupS    float64                `json:"warmup_s"`
	Env        environment            `json:"environment"`
	Correct    bool                   `json:"correct"`
	Attempted  uint64                 `json:"ops_attempted"`
	Failed     uint64                 `json:"ops_failed"`
	FirstFail  string                 `json:"first_failure,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	// PathMissing lists calls-per-op terms that found no probe span and so
	// count as 0 in path.accounted_us (a probe a later change removed).
	PathMissing []string                  `json:"path_terms_without_probe,omitempty"`
	Percentiles map[string]percentileNote `json:"percentiles"`
	PerWindow   []windowStat              `json:"per_window"`
	SpanFile    string                    `json:"span_file,omitempty"`
}

// summaryLine is the driver's contract: the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary picks the declared metrics of one list out of the document.
func (d *resultDoc) summary(defs []metricDef) summaryLine {
	s := summaryLine{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed,
		Metrics: make(map[string]summaryItem, len(defs))}
	for _, def := range defs {
		v := d.Metrics[def.Name]
		s.Metrics[def.Name] = summaryItem{Value: v.Value, Unit: def.Unit}
	}
	return s
}

// printReport writes the human-readable report: every metric the document
// holds, by name with its unit and in declared order, the failure counts
// and the sample counts behind each percentile.
func (d *resultDoc) printReport(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", d.Workload, d.Seed, d.Traced)
	fmt.Fprintf(w, "  %s\n", d.Why)
	fmt.Fprintf(w, "  keys %d x %d B, clients %d, windows %d x %.3gs after %.3gs warm-up\n",
		d.Keys, d.ValueBytes, d.Clients, d.Windows, d.WindowS, d.WarmupS)
	e := d.Env
	fmt.Fprintf(w, "  nproc %d  GOMAXPROCS %d  %s  commit %s  calib_cpu_ms %.2f -> %.2f",
		e.NProc, e.GoMaxProcs, e.GoVersion, e.Commit, e.CalibBeforeMs, e.CalibAfterMs)
	if e.DataDirFS != "" {
		fmt.Fprintf(w, "  data dir on %s", e.DataDirFS)
	}
	fmt.Fprintln(w)
	if e.DataDirNote != "" {
		fmt.Fprintf(w, "  note: %s\n", e.DataDirNote)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  correct %v\n", d.Attempted, d.Failed, d.Correct)
	if d.FirstFail != "" {
		fmt.Fprintf(w, "  first failure: %s\n", d.FirstFail)
	}
	for _, def := range append(slices.Clone(endToEnd), perLayer...) {
		v, ok := d.Metrics[def.Name]
		if !ok {
			continue
		}
		if v.NotApplicable {
			fmt.Fprintf(w, "  %-36s %14s %-6s (layer not on this workload's path)\n", def.Name, "n/a", def.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s", def.Name, v.Value, def.Unit)
		if def.Bound > 0 {
			fmt.Fprintf(w, " gated: %s is better, bound %.0f%%;", def.Better, def.Bound*100)
		}
		fmt.Fprintf(w, " %s\n", def.Help)
	}
	names := make([]string, 0, len(d.Percentiles))
	for name := range d.Percentiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := d.Percentiles[name]
		fmt.Fprintf(w, "  %-36s %d samples", name+" samples", p.Samples)
		if p.TailPct > 0 {
			fmt.Fprintf(w, "; deepest supported tail p%g = %.2f us", p.TailPct*100, p.TailUs)
		}
		fmt.Fprintln(w)
	}
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
