package main

import "precursor"

// stageOf maps a per-layer metric to the obs stage whose median it
// reports; batch frames record their assembly and apply loop under their
// own stage names.
func stageOf(spec workloadSpec) map[string]string {
	seal, apply := "cli_seal", "srv_apply"
	if spec.Batch > 0 {
		seal, apply = "cli_batch", "srv_batch"
	}
	return map[string]string{
		"core.cli_encrypt_us":    "cli_encrypt",
		"core.cli_seal_us":       seal,
		"core.cli_ring_write_us": "cli_ring_write",
		"core.cli_resp_wait_us":  "cli_resp_wait",
		"core.cli_verify_us":     "cli_verify",
		"core.srv_pickup_us":     "srv_pickup",
		"core.srv_verify_us":     "srv_verify",
		"core.srv_apply_us":      apply,
		"core.srv_reply_seal_us": "srv_reply_seal",
		"core.srv_send_us":       "srv_send",
	}
}

// stageMetrics reads the existing tracers (never edits them): the median
// duration of each stage over the recent-trace ring, which holds the last
// traceRing operations of the traced windows. A stage that recorded
// nothing on this workload stays not applicable.
func stageMetrics(m *metricSet, d *deployment, spec workloadSpec) {
	byStage := make(map[string][]float64)
	for _, tr := range []*precursor.Tracer{d.cliTracer, d.srvTracer} {
		for _, t := range tr.Recent() {
			for _, sp := range t.Spans {
				name := sp.Stage.String()
				byStage[name] = append(byStage[name], float64(sp.Dur)/1e3)
			}
		}
	}
	for metric, stage := range stageOf(spec) {
		if v := byStage[stage]; len(v) > 0 {
			m.set(metric, median(v))
		}
	}
}

// counterMetrics turns the counter deltas over the traced windows into
// per-op ratios and counts, through Server.Stats, Client.StatsStruct,
// ClusterClient.Stats and the counting conn.
func counterMetrics(m *metricSet, res *phaseResult, spec workloadSpec) {
	b, a := res.before, res.after
	ops := float64(max(res.attempted, 1))
	gets := float64(max(a.srv.Gets-b.srv.Gets, 1))

	m.set("sgx.ecalls_per_op", float64(a.srv.Enclave.Ecalls-b.srv.Enclave.Ecalls)/ops)
	m.set("sgx.ocalls_per_op", float64(a.srv.Enclave.Ocalls-b.srv.Enclave.Ocalls)/ops)
	m.set("sgx.page_faults_per_op", float64(a.srv.Enclave.PageFaults-b.srv.Enclave.PageFaults)/ops)
	m.set("sgx.epc_pages", float64(a.srv.Enclave.EPCPages))

	if a.srv.PoolBytesInUse > 0 {
		m.set("slab.reserved_per_inuse", float64(a.srv.PoolBytesReserved)/float64(a.srv.PoolBytesInUse))
	}
	m.set("slab.growths", float64(a.srv.PoolGrowths))

	m.set("core.enclave_crypto_bytes_per_op", float64(a.srv.EnclaveCryptoBytes-b.srv.EnclaveCryptoBytes)/ops)
	if batches := a.srv.Batches - b.srv.Batches; batches > 0 {
		m.set("core.ops_per_batch", float64(a.srv.BatchedOps-b.srv.BatchedOps)/float64(batches))
	}
	m.set("core.replays", float64(a.srv.Replays-b.srv.Replays))
	m.set("core.bad_requests", float64(a.srv.BadRequests-b.srv.BadRequests))

	m.set("rdma.verbs_per_op", float64(a.verbs-b.verbs)/ops)
	m.set("rdma.bytes_per_op", float64(a.bytes-b.bytes)/ops)

	if spec.Deploy == deployInProc {
		// Only a direct connection exposes its client counters; the
		// cluster client does not pass its pooled connections' through.
		m.set("core.read_retries", float64(a.cli.Retries-b.cli.Retries))
		m.set("core.retry_laters", float64(a.cli.RetryLaters-b.cli.RetryLaters))
		m.set("ringbuf.credit_stalls", float64(a.cli.CreditStalls-b.cli.CreditStalls))
	}

	if a.hasVlog {
		if commits := a.vlog.Log.GroupCommits - b.vlog.Log.GroupCommits; commits > 0 {
			m.set("vlog.appends_per_fsync", float64(a.vlog.Log.SyncedAppends-b.vlog.Log.SyncedAppends)/float64(commits))
		}
		// ClusterStats.Puts already sums the replicas' puts; the harness
		// knows how many puts the clients made.
		if puts := float64(len(res.putNs)); puts > 0 {
			m.set("vlog.bytes_written_per_user_byte",
				float64(a.vlog.Log.AppendedBytes-b.vlog.Log.AppendedBytes)/(puts*float64(spec.ValueSize)))
			m.set("cluster.replica_writes_per_put", float64(a.cluster.Puts-b.cluster.Puts)/puts)
		}
		m.set("vlog.read_throughs_per_get", float64(a.vlog.ReadThroughs-b.vlog.ReadThroughs)/gets)
		m.set("vlog.gc_runs", float64(a.vlog.GCRuns-b.vlog.GCRuns))
		m.set("vlog.gc_moved_records", float64(a.vlog.GCMovedRecords-b.vlog.GCMovedRecords))
		m.set("cluster.quorum_shortfalls", float64(a.cluster.QuorumShortfalls-b.cluster.QuorumShortfalls))
		m.set("cluster.failovers", float64(a.cluster.Failovers-b.cluster.Failovers))
	}

	m.set("go.gc_cycles", float64(res.gcCycles))
	m.set("go.gc_pause_total_ms", float64(res.gcPause)/1e6)
	m.set("go.peak_rss_mib", peakRSSMiB())
	m.set("go.goroutines", float64(res.goroutines))
}
