package precursor_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"precursor"
)

func TestMetricsEndpoint(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	metrics, err := precursor.ServeMetrics(svc.Server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Close()

	client, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		if err := client.Put("m", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Get("m"); err != nil {
		t.Fatal(err)
	}
	if results, err := client.Batch([]precursor.BatchOp{
		{Kind: precursor.BatchPut, Key: "mb", Value: []byte("v")},
		{Kind: precursor.BatchGet, Key: "m"},
	}); err != nil || results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("batch: %v %+v", err, results)
	}

	resp, err := http.Get("http://" + metrics.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		// 5 single puts + 1 get, plus a 2-op batch (1 put + 1 get):
		// batched ops count in the per-kind totals too.
		"precursor_puts_total 6",
		"precursor_gets_total 2",
		"precursor_entries 2",
		"precursor_clients 1",
		"# TYPE precursor_enclave_epc_pages gauge",
		// "m" and "mb" each hold 1 B of ciphertext + 8 B nonce + 16 B MAC
		// in the smallest slot: 32 B of value + that 24 B framing.
		"precursor_pool_bytes_in_use 112",
		"precursor_pool_bytes_requested 50",
		"precursor_enclave_crypto_bytes_total",
		"precursor_batches_total 1",
		"precursor_batched_ops_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}

	health, err := http.Get("http://" + metrics.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", health.StatusCode)
	}
}

// TestVlogMetricsEndpoint: with a value log attached, /metrics grows the
// precursor_vlog_* families and the seal-duration gauge.
func TestVlogMetricsEndpoint(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
		DataDir: t.TempDir(),
		Vlog:    precursor.VlogConfig{InlineMax: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	metrics, err := precursor.ServeMetrics(svc.Server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Close()

	client, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	big := strings.Repeat("v", 512) // above InlineMax: spills to the log
	for i := 0; i < 4; i++ {
		if err := client.Put(fmt.Sprintf("vm%d", i), []byte(big)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Get("vm0"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Server.Seal(io.Discard); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + metrics.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"precursor_vlog_segments 1",
		"precursor_vlog_appended_records_total 4",
		"precursor_vlog_group_commits_total",
		"precursor_vlog_group_commit_batch_avg",
		"precursor_vlog_live_bytes",
		"precursor_vlog_read_throughs_total",
		"precursor_vlog_auth_failures_total 0",
		"precursor_vlog_gc_reclaimed_bytes_total 0",
		"precursor_seal_duration_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("vlog metrics missing %q\n%s", want, text)
		}
	}
}

// TestMetricsServerDoubleClose: Close is idempotent, including from
// concurrent goroutines.
func TestMetricsServerDoubleClose(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	metrics, err := precursor.ServeMetrics(svc.Server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = metrics.Close()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent Close %d: %v", i, err)
		}
	}
	if err := metrics.Close(); err != nil {
		t.Errorf("Close after Close: %v", err)
	}
}

// TestClusterMetricsEndpoint: ring placement, per-shard counters and
// shard health are exported with shard labels, and a dead shard flips to
// up=0.
func TestClusterMetricsEndpoint(t *testing.T) {
	cs, err := precursor.ServeReplicatedCluster(2, 1, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		Timeout: 2 * time.Second, RetryBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i := 0; i < 40; i++ {
		if err := cc.Put(fmt.Sprintf("mk%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	metrics, err := precursor.ServeClusterMetrics(cc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Close()

	fetch := func() string {
		t.Helper()
		resp, err := http.Get("http://" + metrics.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	text := fetch()
	for _, want := range []string{
		"precursor_cluster_shards 2",
		"precursor_cluster_shard_up{shard=\"" + cs.Groups[0][0].Addr() + "\",group=\"" + cs.Groups[0][0].Addr() + "\"} 1",
		"precursor_cluster_shard_up{shard=\"" + cs.Groups[1][0].Addr() + "\",group=\"" + cs.Groups[1][0].Addr() + "\"} 1",
		"precursor_cluster_shard_ownership{shard=\"" + cs.Groups[0][0].Addr() + "\",group=\"" + cs.Groups[0][0].Addr() + "\"}",
		"precursor_cluster_shard_keys_estimate",
		"precursor_cluster_shard_puts_total",
		"precursor_cluster_shard_errors_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster metrics missing %q\n%s", want, text)
		}
	}

	// Kill shard 1 and trip its breaker; the endpoint reports it down.
	deadAddr := cs.Groups[1][0].Addr()
	cs.Groups[1][0].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var deadKey string
		for i := 0; ; i++ {
			k := fmt.Sprintf("dead%05d", i)
			if cc.ShardFor(k) == deadAddr {
				deadKey = k
				break
			}
		}
		if err := cc.Put(deadKey, []byte("x")); err != nil && len(cc.Degraded()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened for dead shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	text = fetch()
	if want := "precursor_cluster_shard_up{shard=\"" + deadAddr + "\",group=\"" + deadAddr + "\"} 0"; !strings.Contains(text, want) {
		t.Errorf("metrics missing %q after shard death\n%s", want, text)
	}
}

// TestHealthzReadiness: /healthz is a readiness probe — 200 while the
// server accepts traffic, 503 once it has shut down (and during
// bootstrap/restore, which Server.Ready gates the same way).
func TestHealthzReadiness(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 1, PollInterval: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := precursor.ServeMetrics(svc.Server, "127.0.0.1:0")
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	defer metrics.Close()

	status := func() int {
		t.Helper()
		resp, err := http.Get("http://" + metrics.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(); got != http.StatusOK {
		t.Fatalf("healthz on live server = %d, want 200", got)
	}
	svc.Close()
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz on closed server = %d, want 503", got)
	}
}

// TestClusterHealthzAllShardsDown: a cluster metrics endpoint stays
// ready while any shard serves, and flips to 503 only when every
// shard's breaker is open.
func TestClusterHealthzAllShardsDown(t *testing.T) {
	cs, err := precursor.ServeReplicatedCluster(2, 1, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		Timeout: time.Second, RetryBackoff: time.Minute, MaxBackoff: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	metrics, err := precursor.ServeClusterMetrics(cc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Close()

	status := func() int {
		t.Helper()
		resp, err := http.Get("http://" + metrics.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(); got != http.StatusOK {
		t.Fatalf("healthz with all shards up = %d, want 200", got)
	}

	// Kill every shard and trip every breaker.
	for _, group := range cs.Groups {
		group[0].Close()
	}
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; len(cc.Degraded()) < 2; i++ {
		_ = cc.Put(fmt.Sprintf("hz%05d", i), []byte("x"))
		if time.Now().After(deadline) {
			t.Fatalf("breakers never opened for both shards: degraded=%v", cc.Degraded())
		}
	}
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz with all shards down = %d, want 503", got)
	}
}

// validatePromText checks the Prometheus text-format contract: every
// sample belongs to a family that carries exactly one HELP and one TYPE
// line, values parse as floats, and only _sum/_count suffixes may ride
// on a summary family.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	help := map[string]int{}
	typ := map[string]string{}
	var samples []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("HELP line without help text: %q", line)
				continue
			}
			help[f[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			if _, dup := typ[f[2]]; dup {
				t.Errorf("duplicate TYPE for family %s", f[2])
			}
			typ[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			// comment: legal
		default:
			samples = append(samples, line)
		}
	}
	for fam, n := range help {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines, want exactly 1", fam, n)
		}
		if _, ok := typ[fam]; !ok {
			t.Errorf("family %s has HELP but no TYPE", fam)
		}
	}
	for fam := range typ {
		if help[fam] == 0 {
			t.Errorf("family %s has TYPE but no HELP", fam)
		}
	}
	for _, s := range samples {
		name := s
		if i := strings.IndexAny(s, "{ "); i >= 0 {
			name = s[:i]
		}
		fam, suffixed := name, false
		if _, ok := typ[fam]; !ok {
			for _, suf := range []string{"_sum", "_count"} {
				if base := strings.TrimSuffix(name, suf); base != name {
					if typ[base] == "summary" {
						fam, suffixed = base, true
					}
				}
			}
		}
		tt, ok := typ[fam]
		if !ok {
			t.Errorf("sample %q belongs to no HELP/TYPE family", s)
			continue
		}
		if suffixed && tt != "summary" {
			t.Errorf("sample %q uses a summary suffix on %s family %s", s, tt, fam)
		}
		if strings.Contains(s, "quantile=") && tt != "summary" {
			t.Errorf("sample %q carries a quantile label on %s family %s", s, tt, fam)
		}
		val := s[strings.LastIndexByte(s, ' ')+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("sample %q value %q does not parse: %v", s, val, err)
		}
	}
}

// TestMetricsPromTextRoundTrip: the full exposition — server counters,
// cluster series and tracer summaries on one endpoint — survives a
// strict text-format parse.
func TestMetricsPromTextRoundTrip(t *testing.T) {
	cs, err := precursor.ServeReplicatedCluster(2, 1, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	ctrace := precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideClient, Workers: 4})
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		Timeout: 2 * time.Second, Tracer: ctrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i := 0; i < 20; i++ {
		if err := cc.Put(fmt.Sprintf("rt%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Get(fmt.Sprintf("rt%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	metrics, err := precursor.ServeMetrics(cs.Groups[0][0].Server, "127.0.0.1:0",
		precursor.WithTracer("client", ctrace))
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Close()
	metrics.TrackCluster(cc)

	resp, err := http.Get("http://" + metrics.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE precursor_stage_latency_seconds summary",
		`side="client"`,
		`stage="cli_total"`,
		"# TYPE precursor_cluster_shard_latency_seconds summary",
		"precursor_stage_latency_seconds_count",
		"precursor_cluster_shard_latency_seconds_sum",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("round-trip exposition missing %q", want)
		}
	}
	validatePromText(t, text)
}

// TestDebugTraces: /debug/traces returns valid Chrome trace_event JSON
// whose per-op pipeline stages (>=6 named server stages) are exactly
// the stages exported as latency summaries on /metrics.
func TestDebugTraces(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	tracer := precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideServer, Workers: 2})
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	metrics, err := precursor.ServeMetrics(svc.Server, "127.0.0.1:0",
		precursor.WithTracer("server", tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Close()

	client, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: svc.Server.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Put("trace-me", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get("trace-me"); err != nil {
		t.Fatal(err)
	}
	// A server trace is finished after its reply's ring write — the client
	// call can return first — so wait, bounded, until both ops' are in.
	for deadline := time.Now().Add(5 * time.Second); len(tracer.Recent()) < 2 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}

	resp, err := http.Get("http://" + metrics.Addr() + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("traces Content-Type = %q", ct)
	}
	var payload struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("traces is not valid Chrome trace JSON: %v\n%s", err, body)
	}
	stages := map[string]bool{}
	byTid := map[uint64]map[string]bool{}
	for _, ev := range payload.TraceEvents {
		if ev.Ph != "X" || !strings.HasPrefix(ev.Name, "srv_") {
			continue
		}
		stages[ev.Name] = true
		if byTid[ev.Tid] == nil {
			byTid[ev.Tid] = map[string]bool{}
		}
		byTid[ev.Tid][ev.Name] = true
		if ev.Dur <= 0 {
			t.Errorf("span %s has non-positive dur %v", ev.Name, ev.Dur)
		}
	}
	if len(stages) < 6 {
		t.Fatalf("want >=6 named server pipeline stages across traces, got %v", stages)
	}
	// At least one single operation (one tid) shows >=6 stages end-to-end.
	var best int
	for _, set := range byTid {
		if len(set) > best {
			best = len(set)
		}
	}
	if best < 6 {
		t.Errorf("no single op trace carries >=6 stages (best %d): %v", best, byTid)
	}

	// The same stage names must be exported as summaries on /metrics.
	mresp, err := http.Get("http://" + metrics.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	mtext := string(mbody)
	for stage := range stages {
		if want := `stage="` + stage + `"`; !strings.Contains(mtext, want) {
			t.Errorf("/metrics missing summary series for traced stage %s", stage)
		}
	}
	validatePromText(t, mtext)
}
