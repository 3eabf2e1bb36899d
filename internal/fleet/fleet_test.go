package fleet

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParsePromBasics(t *testing.T) {
	in := `# HELP precursor_puts_total Completed put operations
# TYPE precursor_puts_total counter
precursor_puts_total 42

precursor_ready 1
precursor_stage_latency_seconds{side="client",stage="cli_total",quantile="0.99"} 0.00123
precursor_cluster_shard_up{shard="127.0.0.1:7100",group="g0"} 1
precursor_fleet_anomaly{flag="target \"x\" down: dial\ntimeout"} 1
`
	samples, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5", len(samples))
	}
	if samples[0].Name != "precursor_puts_total" || samples[0].Value != 42 {
		t.Fatalf("sample 0: %+v", samples[0])
	}
	if samples[2].Labels["quantile"] != "0.99" || samples[2].Labels["side"] != "client" {
		t.Fatalf("sample 2 labels: %+v", samples[2].Labels)
	}
	if samples[3].Labels["shard"] != "127.0.0.1:7100" {
		t.Fatalf("sample 3 labels: %+v", samples[3].Labels)
	}
	if want := "target \"x\" down: dial\ntimeout"; samples[4].Labels["flag"] != want {
		t.Fatalf("escape handling: %q, want %q", samples[4].Labels["flag"], want)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"precursor_puts_total",
		"precursor_puts_total notanumber",
		`precursor_x{unterminated="v 1`,
		`precursor_x{novalue} 1`,
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm(%q) accepted malformed input", bad)
		}
	}
}

// promTarget serves a fixed metrics payload.
func promTarget(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestAggregatorRollup(t *testing.T) {
	a1 := promTarget(t, `precursor_cluster_quorum_shortfalls_total 3
precursor_cluster_read_failovers_total 2
precursor_cluster_repairs_total 1
precursor_auth_failures_total 4
precursor_pool_bytes_reserved 2097152
precursor_pool_bytes_requested 1500000
precursor_audit_events_total{kind="breaker_trip"} 2
precursor_stage_latency_seconds{side="client",stage="cli_total",quantile="0.99"} 0.002
`)
	a2 := promTarget(t, `precursor_replays_total 5
precursor_pool_bytes_reserved 1048576
precursor_pool_bytes_requested 4120
precursor_audit_events_total{kind="breaker_trip"} 1
precursor_audit_events_total{kind="byzantine_failover"} 1
precursor_stage_latency_seconds{side="client",stage="cli_total",quantile="0.99"} 0.004
precursor_stage_latency_seconds{side="client",stage="cli_total",quantile="0.5"} 0.001
`)
	agg, err := New(Config{Targets: []Target{
		{Name: "t1", URL: a1.URL},
		{Name: "t2", URL: a2.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	r := agg.Snapshot()
	if r.TargetsUp != 2 || r.Availability != 1 {
		t.Fatalf("up=%d avail=%g, want 2 and 1", r.TargetsUp, r.Availability)
	}
	if r.ErrorBudgetBurn != 0 {
		t.Fatalf("burn=%g, want 0", r.ErrorBudgetBurn)
	}
	if r.QuorumShortfalls != 3 || r.ReadFailovers != 2 || r.Repairs != 1 {
		t.Fatalf("cluster counters: %+v", r)
	}
	if r.AuthFailures != 4 || r.Replays != 5 {
		t.Fatalf("security counters: %+v", r)
	}
	if r.PoolBytesReserved != 3<<20 || r.PoolBytesRequested != 1504120 {
		t.Fatalf("pool bytes: reserved %d requested %d", r.PoolBytesReserved, r.PoolBytesRequested)
	}
	if r.AuditEvents["breaker_trip"] != 3 || r.AuditEvents["byzantine_failover"] != 1 {
		t.Fatalf("audit events: %+v", r.AuditEvents)
	}
	// Worst-of across targets: t2's 4ms wins.
	if len(r.StageP99) != 1 || r.StageP99[0].P99 != 0.004 || r.StageP99[0].Target != "t2" {
		t.Fatalf("stage p99: %+v", r.StageP99)
	}
	// Shortfalls, auth failures, replays and the byzantine audit kind all
	// flag anomalies.
	if len(r.Anomalies) < 4 {
		t.Fatalf("anomalies: %v", r.Anomalies)
	}
}

func TestAggregatorDownTarget(t *testing.T) {
	up := promTarget(t, "precursor_ready 1\n")
	down := promTarget(t, "")
	downURL := down.URL
	down.Close() // refuses connections from here on
	agg, err := New(Config{Targets: []Target{
		{Name: "up", URL: up.URL},
		{Name: "down", URL: downURL},
	}, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	agg.ScrapeOnce()
	r := agg.Snapshot()
	if r.TargetsUp != 1 {
		t.Fatalf("TargetsUp=%d, want 1", r.TargetsUp)
	}
	if math.Abs(r.Availability-0.5) > 1e-9 {
		t.Fatalf("Availability=%g, want 0.5", r.Availability)
	}
	if r.ErrorBudgetBurn < 1 {
		t.Fatalf("burn=%g, want >= 1 with half the fleet down", r.ErrorBudgetBurn)
	}
	foundDown, foundBurn := false, false
	for _, an := range r.Anomalies {
		if strings.Contains(an, "target down down") || strings.Contains(an, "target down") {
			foundDown = true
		}
		if strings.Contains(an, "error-budget burn") {
			foundBurn = true
		}
	}
	if !foundDown || !foundBurn {
		t.Fatalf("anomalies missing down/burn flags: %v", r.Anomalies)
	}
}

// TestWritePromRoundTrip feeds /fleet output back through ParseProm —
// the promtext round-trip the satellite task demands.
func TestWritePromRoundTrip(t *testing.T) {
	src := promTarget(t, `precursor_cluster_quorum_shortfalls_total 7
precursor_cluster_read_failovers_total 2
precursor_pool_bytes_reserved 1045504
precursor_pool_bytes_requested 935240
precursor_audit_events_total{kind="replay"} 9
`)
	agg, err := New(Config{Targets: []Target{{Name: "s", URL: src.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	var buf bytes.Buffer
	if err := agg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("fleet output failed to re-parse: %v\n%s", err, buf.String())
	}
	byName := func(name string) (Sample, bool) {
		for _, s := range samples {
			if s.Name == name {
				return s, true
			}
		}
		return Sample{}, false
	}
	if s, ok := byName("precursor_fleet_quorum_shortfalls_total"); !ok || s.Value != 7 {
		t.Fatalf("quorum shortfalls: %+v ok=%v", s, ok)
	}
	if s, ok := byName("precursor_fleet_read_failovers_total"); !ok || s.Value != 2 {
		t.Fatalf("read failovers: %+v ok=%v", s, ok)
	}
	if s, ok := byName("precursor_fleet_pool_bytes_reserved"); !ok || s.Value != 1045504 {
		t.Fatalf("pool reserved: %+v ok=%v", s, ok)
	}
	if s, ok := byName("precursor_fleet_pool_bytes_requested"); !ok || s.Value != 935240 {
		t.Fatalf("pool requested: %+v ok=%v", s, ok)
	}
	if s, ok := byName("precursor_fleet_audit_events_total"); !ok || s.Labels["kind"] != "replay" || s.Value != 9 {
		t.Fatalf("audit events: %+v ok=%v", s, ok)
	}
	if s, ok := byName("precursor_fleet_availability"); !ok || s.Value != 1 {
		t.Fatalf("availability: %+v ok=%v", s, ok)
	}
}

func TestServeHTTPAndTop(t *testing.T) {
	src := promTarget(t, "precursor_cluster_repairs_total 1\nprecursor_stage_latency_seconds{side=\"server\",stage=\"srv_apply\",quantile=\"0.99\"} 0.0001\n")
	agg, err := New(Config{Targets: []Target{{Name: "s", URL: src.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	rec := httptest.NewRecorder()
	agg.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "precursor_fleet_repairs_total 1") {
		t.Fatalf("ServeHTTP: code=%d body=%q", rec.Code, rec.Body.String())
	}
	var top bytes.Buffer
	WriteTop(&top, agg.Snapshot())
	out := top.String()
	for _, want := range []string{"PRECURSOR FLEET", "repairs=1", "srv_apply"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteTop output missing %q:\n%s", want, out)
		}
	}
}

// TestParsePromNaNInfQuantiles covers summary families whose windows
// are empty or degenerate: the text format spells those NaN/+Inf/-Inf,
// ParseProm must accept them (they are valid floats), and the rollup
// fold must not let them poison worst-of comparisons or counter sums.
func TestParsePromNaNInfQuantiles(t *testing.T) {
	in := `precursor_stage_latency_seconds{side="client",stage="cli_total",quantile="0.99"} NaN
precursor_stage_latency_seconds{side="client",stage="cli_verify",quantile="0.99"} +Inf
precursor_stage_latency_seconds{side="server",stage="srv_apply",quantile="0.99"} -Inf
`
	samples, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	if !math.IsNaN(samples[0].Value) {
		t.Fatalf("sample 0: %+v, want NaN", samples[0])
	}
	if !math.IsInf(samples[1].Value, 1) || !math.IsInf(samples[2].Value, -1) {
		t.Fatalf("Inf handling: %+v %+v", samples[1], samples[2])
	}

	// The NaN target is listed first, so without the rollup's guard its
	// NaN would claim the cli_total slot and block t2's real value.
	nan := promTarget(t, `precursor_stage_latency_seconds{side="client",stage="cli_total",quantile="0.99"} NaN
precursor_stage_latency_seconds{side="client",stage="cli_verify",quantile="0.99"} +Inf
precursor_heat_op_rate{side="server",kind="put"} NaN
`)
	real := promTarget(t, `precursor_stage_latency_seconds{side="client",stage="cli_total",quantile="0.99"} 0.002
`)
	agg, err := New(Config{Targets: []Target{
		{Name: "t-nan", URL: nan.URL},
		{Name: "t-real", URL: real.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	r := agg.Snapshot()
	if len(r.StageP99) != 1 || r.StageP99[0].Stage != "cli_total" {
		t.Fatalf("stage p99 fold: %+v, want only cli_total (NaN and Inf skipped)", r.StageP99)
	}
	if r.StageP99[0].P99 != 0.002 || r.StageP99[0].Target != "t-real" {
		t.Fatalf("NaN displaced the real p99: %+v", r.StageP99[0])
	}
	for _, th := range r.Heat {
		if math.IsNaN(th.Rate) {
			t.Fatalf("NaN leaked into heat rate: %+v", th)
		}
	}
}

// TestAggregatorDuplicateMetricNames pins the aggregator's duplicate
// semantics: the same family appearing twice within one scrape body
// sums (two vantage labels of one counter), while re-scrapes of the
// same target replace its samples — counters must not double-count
// across scrape rounds.
func TestAggregatorDuplicateMetricNames(t *testing.T) {
	src := promTarget(t, `precursor_cluster_quorum_shortfalls_total 3
precursor_cluster_quorum_shortfalls_total 2
precursor_heat_ops_total{side="server",kind="put"} 10
precursor_heat_ops_total{side="server",kind="get"} 30
precursor_heat_ops_total{side="router",kind="get"} 5
`)
	agg, err := New(Config{Targets: []Target{{Name: "s", URL: src.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	r := agg.Snapshot()
	if r.QuorumShortfalls != 5 {
		t.Fatalf("within-scrape duplicates: got %d, want 3+2=5", r.QuorumShortfalls)
	}
	if len(r.Heat) != 1 || r.Heat[0].Ops != 45 {
		t.Fatalf("heat ops across labels: %+v, want 45", r.Heat)
	}
	// Two more scrape rounds: the totals must stay put, not triple.
	agg.ScrapeOnce()
	agg.ScrapeOnce()
	r = agg.Snapshot()
	if r.QuorumShortfalls != 5 || r.Heat[0].Ops != 45 {
		t.Fatalf("re-scrape doubled counters: shortfalls=%d heat=%d", r.QuorumShortfalls, r.Heat[0].Ops)
	}
}

// TestAggregatorHTTP500MidWindow flips a target from healthy to HTTP
// 500 partway through the availability window: the target must read as
// down with the status in its error, availability must reflect the
// mixed window, and the last good scrape's counters must still feed
// the rollup (last-known values, not zeros).
func TestAggregatorHTTP500MidWindow(t *testing.T) {
	healthy := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy {
			http.Error(w, "internal error", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte("precursor_cluster_repairs_total 4\n"))
	}))
	t.Cleanup(srv.Close)
	agg, err := New(Config{Targets: []Target{{Name: "s", URL: srv.URL}}, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	agg.ScrapeOnce()
	healthy = false
	agg.ScrapeOnce()
	agg.ScrapeOnce()
	r := agg.Snapshot()
	ts := r.Targets[0]
	if ts.Up {
		t.Fatal("target still up after HTTP 500s")
	}
	if !strings.Contains(ts.Err, "HTTP 500") {
		t.Fatalf("error text: %q, want HTTP 500", ts.Err)
	}
	if math.Abs(ts.Availability-0.5) > 1e-9 {
		t.Fatalf("availability=%g, want 0.5 (2 of 4 windowed scrapes failed)", ts.Availability)
	}
	if ts.Scrapes != 4 || ts.Failures != 2 {
		t.Fatalf("scrapes=%d failures=%d, want 4 and 2", ts.Scrapes, ts.Failures)
	}
	if r.Repairs != 4 {
		t.Fatalf("last-known counters lost on failure: repairs=%d, want 4", r.Repairs)
	}
	foundDown := false
	for _, an := range r.Anomalies {
		if strings.Contains(an, "HTTP 500") {
			foundDown = true
		}
	}
	if !foundDown {
		t.Fatalf("no down anomaly naming HTTP 500: %v", r.Anomalies)
	}
}

// TestFleetHeatRollup drives the heat fold end to end: per-target heat
// summaries, hottest-target election, cross-shard skew, the /fleet
// promtext families, the -top HEAT pane and the load-skew anomaly.
func TestFleetHeatRollup(t *testing.T) {
	hot := promTarget(t, `precursor_heat_ops_total{side="server",kind="put"} 300
precursor_heat_ops_total{side="server",kind="get"} 2700
precursor_heat_op_rate{side="server",kind="get"} 90.5
precursor_heat_range_skew_cv{side="server"} 1.4
precursor_heat_range_skew_max_mean{side="server"} 6.2
`)
	cold := promTarget(t, `precursor_heat_ops_total{side="server",kind="get"} 100
precursor_heat_op_rate{side="server",kind="get"} 3.1
precursor_heat_range_skew_cv{side="server"} 0.2
precursor_heat_range_skew_max_mean{side="server"} 1.3
`)
	bare := promTarget(t, "precursor_ready 1\n") // no heat exported
	agg, err := New(Config{Targets: []Target{
		{Name: "hot", URL: hot.URL},
		{Name: "cold", URL: cold.URL},
		{Name: "bare", URL: bare.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	r := agg.Snapshot()
	if len(r.Heat) != 2 {
		t.Fatalf("heat targets: %+v, want 2 (bare target excluded)", r.Heat)
	}
	if r.Heat[0].Name != "hot" || r.Heat[0].Ops != 3000 || r.Heat[0].Rate != 90.5 {
		t.Fatalf("hot target heat: %+v", r.Heat[0])
	}
	if r.Heat[0].RangeSkew.MaxMean != 6.2 || r.Heat[0].RangeSkew.CV != 1.4 {
		t.Fatalf("hot target range skew: %+v", r.Heat[0].RangeSkew)
	}
	if r.HottestTarget != "hot" {
		t.Fatalf("hottest=%q, want hot", r.HottestTarget)
	}
	// ops {3000, 100}: mean 1550, max/mean ~1.935 — skewed but below the
	// 2.0 anomaly threshold.
	if r.HeatSkew.MaxMean < 1.9 || r.HeatSkew.MaxMean > 2.0 {
		t.Fatalf("fleet heat skew: %+v", r.HeatSkew)
	}
	var buf bytes.Buffer
	if err := agg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`precursor_fleet_heat_ops_total{target="hot"} 3000`,
		`precursor_fleet_heat_op_rate{target="cold"} 3.1`,
		`precursor_fleet_heat_range_skew_max_mean{target="hot"} 6.2`,
		`precursor_fleet_hottest_target{target="hot"} 1`,
		"precursor_fleet_heat_skew_max_mean ",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/fleet missing %q:\n%s", want, buf.String())
		}
	}
	var top bytes.Buffer
	WriteTop(&top, r)
	for _, want := range []string{"HEAT", "hottest=hot", "90.5/s", "6.20x"} {
		if !strings.Contains(top.String(), want) {
			t.Fatalf("-top HEAT pane missing %q:\n%s", want, top.String())
		}
	}
}

// TestFleetHeatSkewAnomaly crosses the skew-anomaly thresholds (>= 2x
// max/mean with >= 1000 total ops) and expects the actionable flag.
func TestFleetHeatSkewAnomaly(t *testing.T) {
	// Four shards: max/mean over N counters tops out at N, so a 2x
	// threshold needs more than two targets to be crossable at all.
	hot := promTarget(t, `precursor_heat_ops_total{side="server",kind="get"} 5000
`)
	cold := promTarget(t, `precursor_heat_ops_total{side="server",kind="get"} 100
`)
	agg, err := New(Config{Targets: []Target{
		{Name: "shard0", URL: hot.URL},
		{Name: "shard1", URL: cold.URL},
		{Name: "shard2", URL: cold.URL},
		{Name: "shard3", URL: cold.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	agg.ScrapeOnce()
	r := agg.Snapshot()
	found := false
	for _, an := range r.Anomalies {
		if strings.Contains(an, "load skew") && strings.Contains(an, "shard0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no load-skew anomaly naming shard0: %v", r.Anomalies)
	}
}

func TestStartAndClose(t *testing.T) {
	src := promTarget(t, "precursor_ready 1\n")
	agg, err := New(Config{Targets: []Target{{Name: "s", URL: src.URL}}, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	agg.Start()
	defer agg.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r := agg.Snapshot(); r.TargetsUp == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background scrape never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
