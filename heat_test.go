package precursor_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"precursor"
	"precursor/internal/core"
	"precursor/internal/fleet"
	"precursor/internal/ycsb"
)

// TestHeatMetricsEndpoint: a server with a heat collector attached
// exports the precursor_heat_* families, the build-info/uptime series
// and the slow-op suppression counter on /metrics, and serves the
// heavy-hitter snapshot on /debug/heat as JSON that never leaks a
// plaintext key.
func TestHeatMetricsEndpoint(t *testing.T) {
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	heatColl := precursor.NewHeatCollector(precursor.HeatConfig{})
	tracer := precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideServer, Workers: 2})
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
		Platform: platform, Workers: 2, PollInterval: time.Microsecond,
		Heat: heatColl, Tracer: tracer, InlineSmallValues: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	metrics, err := precursor.ServeMetrics(svc.Server, "127.0.0.1:0",
		precursor.WithHeat("server", heatColl),
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
	// One dominant key plus background traffic so the top-1 share is
	// meaningful, and a batch frame so the fill histogram is populated.
	const hotKey = "sensitive-customer-key"
	for i := 0; i < 8; i++ {
		if err := client.Put(hotKey, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := client.Put(fmt.Sprintf("cold%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Get(hotKey); err != nil {
		t.Fatal(err)
	}
	if results, err := client.Batch([]precursor.BatchOp{
		{Kind: precursor.BatchPut, Key: "hb", Value: []byte("v")},
		{Kind: precursor.BatchGet, Key: hotKey},
	}); err != nil || results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("batch: %v %+v", err, results)
	}

	// The server records an op's heat once the frame's reply is written, so
	// the counts may trail the replies this goroutine holds by a moment.
	heatSettled(t, func(s precursor.HeatSnapshot) bool { return s.Puts == 13 && s.Gets == 2 }, heatColl)
	text := string(httpGet(t, "http://"+metrics.Addr()+"/metrics", http.StatusOK))
	for _, want := range []string{
		`precursor_build_info{version="` + precursor.Version + `"`,
		"precursor_uptime_seconds",
		// 9 puts (8 hot + the batch one is batched... counted per kind too)
		`precursor_heat_ops_total{side="server",kind="put"} 13`,
		`precursor_heat_ops_total{side="server",kind="get"} 2`,
		`precursor_heat_op_rate{side="server",kind="put"}`,
		`precursor_heat_bytes_in_total{side="server"}`,
		`precursor_heat_bytes_out_total{side="server"}`,
		`precursor_heat_range_ops_total{side="server",bucket="`,
		`precursor_heat_range_skew_cv{side="server"}`,
		`precursor_heat_range_skew_max_mean{side="server"}`,
		`precursor_heat_top1_share{side="server"}`,
		`precursor_heat_topk_share{side="server"}`,
		`precursor_heat_batches_total{side="server"} 1`,
		`precursor_heat_batched_ops_total{side="server"} 2`,
		`precursor_heat_batch_fill_total{side="server",le="2"} 1`,
		`precursor_heat_batch_fill_total{side="server",le="+Inf"} 1`,
		`precursor_heat_uptime_seconds{side="server"}`,
		`precursor_slowop_suppressed_total{side="server"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	validatePromText(t, text)

	raw := httpGet(t, "http://"+metrics.Addr()+"/debug/heat", http.StatusOK)
	if bytes.Contains(raw, []byte(hotKey)) {
		t.Fatalf("/debug/heat leaks a plaintext key:\n%s", raw)
	}
	var payload []struct {
		Side string                 `json:"side"`
		Heat precursor.HeatSnapshot `json:"heat"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("parse /debug/heat: %v\n%s", err, raw)
	}
	if len(payload) != 1 || payload[0].Side != "server" {
		t.Fatalf("/debug/heat payload = %+v, want one server-side snapshot", payload)
	}
	snap := payload[0].Heat
	if len(snap.Top) == 0 {
		t.Fatal("/debug/heat reports no heavy hitters after traffic")
	}
	// The dominant key must be the reported top-1, by hashed id only.
	if want := precursor.HeatHashKey(hotKey); snap.Top[0].Hash != want {
		t.Errorf("top-1 hash = %016x, want %016x (the dominant key)", snap.Top[0].Hash, want)
	}
	if snap.Top[0].Count < 10 {
		t.Errorf("top-1 count = %d, want >= 10 (8 puts + get + batched get)", snap.Top[0].Count)
	}

	// Bytes out are accounted where a get's result is produced, so they
	// cannot depend on the framing: a batched get counts exactly what the
	// same single get does — for a value stored in the untrusted pool and
	// for one the enclave holds inline, as this server's inline mode does
	// for every value shorter than the bound it announces.
	for key, value := range map[string][]byte{
		"enclave-inline": []byte("tiny"),
		"pool-resident":  bytes.Repeat([]byte("v"), 4*core.DefaultInlineMax),
	} {
		if err := client.Put(key, value); err != nil {
			t.Fatal(err)
		}
		base := heatColl.Snapshot() // a put adds no bytes out
		gets, before := base.Gets, base.BytesOut
		if _, err := client.Get(key); err != nil {
			t.Fatal(err)
		}
		single := heatSettled(t, func(s precursor.HeatSnapshot) bool { return s.Gets > gets }, heatColl).BytesOut - before
		if res, err := client.Batch([]precursor.BatchOp{{Kind: precursor.BatchGet, Key: key}}); err != nil || res[0].Err != nil {
			t.Fatalf("batched get of %s: %v %+v", key, err, res)
		}
		batched := heatSettled(t, func(s precursor.HeatSnapshot) bool { return s.Gets > gets+1 }, heatColl).BytesOut - before - single
		if single < uint64(len(value)) || batched != single {
			t.Errorf("%s (%d B): bytes out = %d for a single get, %d for the same get batched", key, len(value), single, batched)
		}
	}

	// An endpoint with no collector attached 404s the debug route.
	bare, err := precursor.ServeMetrics(svc.Server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	httpGet(t, "http://"+bare.Addr()+"/debug/heat", http.StatusNotFound)
}

// heatSettled waits until the collector's snapshot satisfies done — a
// server records an op's heat after the frame's reply is written — and
// returns it; it fails the test after five seconds.
func heatSettled(t *testing.T, done func(precursor.HeatSnapshot) bool, c *precursor.HeatCollector) precursor.HeatSnapshot {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s := c.Snapshot()
		if done(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("heat counts did not settle: %d puts, %d gets", s.Puts, s.Gets)
		}
	}
}

// heatTally is an exact per-key op counter wrapped around the cluster
// client — the ground truth the sketch recall is measured against.
type heatTally struct {
	inner ycsb.Store
	mu    sync.Mutex
	count map[string]uint64
}

func (h *heatTally) Put(key string, value []byte) error {
	h.note(key)
	return h.inner.Put(key, value)
}

func (h *heatTally) Get(key string) ([]byte, error) {
	h.note(key)
	return h.inner.Get(key)
}

func (h *heatTally) note(key string) {
	h.mu.Lock()
	h.count[key]++
	h.mu.Unlock()
}

// TestHeatFleetAcceptance is the workload-heat acceptance test: under a
// zipf θ=1.2 workload on a 4-shard cluster,
//
//   - every shard's /metrics feeds a fleet aggregator whose /fleet
//     rollup names the hottest shard — and that shard matches an exact
//     client-side tally of per-shard ops;
//   - GET /debug/heat on the hottest shard lists the true top-10 hashed
//     key ids (vs exact counts of keys routed there) with >= 90% recall.
func TestHeatFleetAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("heat acceptance test skipped in -short mode")
	}
	const (
		shards       = 4
		records      = 1500
		clients      = 8
		opsPerClient = 1500
		theta        = 1.2
	)

	// Serve each shard individually so every shard carries its own heat
	// collector and its own metrics endpoint (one scrape target per
	// shard, as a fleet deployment would).
	var (
		specs     []precursor.ShardSpec
		heats     []*precursor.HeatCollector
		endpoints []*precursor.MetricsServer
		addrIdx   = map[string]int{} // shard addr -> index
		targets   []fleet.Target
	)
	for i := 0; i < shards; i++ {
		platform, err := precursor.NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		hc := precursor.NewHeatCollector(precursor.HeatConfig{})
		svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
			Platform: platform, Workers: 2, PollInterval: 50 * time.Microsecond,
			Heat: hc,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		ms, err := precursor.ServeMetrics(svc.Server, "127.0.0.1:0",
			precursor.WithHeat("server", hc))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ms.Close() })
		specs = append(specs, precursor.ShardSpec{
			Addr:        svc.Addr(),
			PlatformKey: platform.AttestationPublicKey(),
			Measurement: svc.Server.Measurement(),
		})
		heats = append(heats, hc)
		endpoints = append(endpoints, ms)
		addrIdx[svc.Addr()] = i
		targets = append(targets, fleet.Target{
			Name: fmt.Sprintf("shard%d", i),
			URL:  "http://" + ms.Addr() + "/metrics",
		})
	}

	routeHeat := precursor.NewHeatCollector(precursor.HeatConfig{})
	cc, err := precursor.DialCluster(specs, precursor.ClusterConfig{
		Timeout: 10 * time.Second, Heat: routeHeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })

	// Drive the zipf workload through an exact tally. The load phase
	// goes through the tally too, so the exact counts cover everything
	// the servers saw.
	tally := &heatTally{inner: cc, count: make(map[string]uint64)}
	if err := ycsb.Load(tally, records, 64, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := ycsb.RunShared(tally, ycsb.RunnerConfig{
		Workload: ycsb.WorkloadB, Records: records, ValueSize: 64,
		Dist: ycsb.Zipfian, ZipfTheta: theta,
		Clients: clients, OpsPerClient: opsPerClient, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("workload hit %d errors", rep.Errors)
	}

	// Fleet endpoint: aggregate the four shard scrape targets, plus the
	// client's routing-side heat on the same endpoint.
	agg, err := fleet.New(fleet.Config{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	fleetMS, err := precursor.ServeClusterMetrics(cc, "127.0.0.1:0",
		precursor.WithFleet(agg), precursor.WithHeat("client", routeHeat))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fleetMS.Close() })
	agg.ScrapeOnce()

	// Exact per-shard op totals from the tally and the client's ring.
	exactShardOps := make([]uint64, shards)
	tally.mu.Lock()
	type keyCount struct {
		key string
		n   uint64
	}
	var all []keyCount
	for k, c := range tally.count {
		idx, ok := addrIdx[cc.ShardFor(k)]
		if !ok {
			tally.mu.Unlock()
			t.Fatalf("ShardFor(%q) names an unknown shard", k)
		}
		exactShardOps[idx] += c
		all = append(all, keyCount{k, c})
	}
	tally.mu.Unlock()
	exactHottest := 0
	for i, n := range exactShardOps {
		if n > exactShardOps[exactHottest] {
			exactHottest = i
		}
	}

	// /fleet must name that shard as the hottest target.
	fleetBody := httpGet(t, "http://"+fleetMS.Addr()+"/fleet", http.StatusOK)
	samples, err := fleet.ParseProm(bytes.NewReader(fleetBody))
	if err != nil {
		t.Fatalf("parse /fleet: %v", err)
	}
	var fleetHottest string
	heatTargets := 0
	for _, s := range samples {
		switch s.Name {
		case "precursor_fleet_hottest_target":
			fleetHottest = s.Labels["target"]
		case "precursor_fleet_heat_ops_total":
			heatTargets++
		}
	}
	if heatTargets != shards {
		t.Errorf("/fleet exports heat ops for %d targets, want %d\n%s", heatTargets, shards, fleetBody)
	}
	wantHottest := fmt.Sprintf("shard%d", exactHottest)
	if fleetHottest != wantHottest {
		t.Fatalf("/fleet hottest target = %q, want %q (exact per-shard ops %v)",
			fleetHottest, wantHottest, exactShardOps)
	}

	// True top-10 of the keys routed to the hottest shard, by exact
	// count.
	hotAddr := specs[exactHottest].Addr
	var onShard []keyCount
	for _, kc := range all {
		if cc.ShardFor(kc.key) == hotAddr {
			onShard = append(onShard, kc)
		}
	}
	sort.Slice(onShard, func(i, j int) bool {
		if onShard[i].n != onShard[j].n {
			return onShard[i].n > onShard[j].n
		}
		return onShard[i].key < onShard[j].key
	})
	topN := 10
	if topN > len(onShard) {
		topN = len(onShard)
	}

	// /debug/heat on the hottest shard must list >= 90% of those keys'
	// hashed ids among its reported heavy hitters.
	raw := httpGet(t, "http://"+endpoints[exactHottest].Addr()+"/debug/heat", http.StatusOK)
	var payload []struct {
		Side string                 `json:"side"`
		Heat precursor.HeatSnapshot `json:"heat"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("parse /debug/heat: %v\n%s", err, raw)
	}
	if len(payload) != 1 || payload[0].Side != "server" {
		t.Fatalf("/debug/heat payload sides = %+v, want one server snapshot", payload)
	}
	reported := payload[0].Heat.Top
	listed := make(map[uint64]bool, len(reported))
	for _, e := range reported {
		listed[e.Hash] = true
	}
	hits := 0
	for _, kc := range onShard[:topN] {
		if listed[precursor.HeatHashKey(kc.key)] {
			hits++
		}
	}
	recall := float64(hits) / float64(topN)
	t.Logf("theta=%g ops=%d shard ops=%v hottest=%s recall=%d/%d",
		theta, rep.Ops, exactShardOps, wantHottest, hits, topN)
	if recall < 0.9 {
		t.Fatalf("hottest shard top-%d recall = %.2f, want >= 0.90", topN, recall)
	}

	// The per-shard heat the fleet rolled up must agree with the shard's
	// own collector (same snapshot source), and the routing-side view on
	// the fleet endpoint must carry client-side heat too.
	roll := agg.Snapshot()
	if roll.HottestTarget != wantHottest {
		t.Errorf("rollup hottest = %q, want %q", roll.HottestTarget, wantHottest)
	}
	if roll.HeatSkew.MaxMean < 1.0 {
		t.Errorf("rollup heat skew max/mean = %g, want >= 1", roll.HeatSkew.MaxMean)
	}
	if got := routeHeat.Snapshot().TotalOps(); got == 0 {
		t.Error("routing-side heat collector recorded no ops")
	}
	fleetProm := string(fleetBody)
	for _, want := range []string{
		"precursor_fleet_heat_skew_max_mean",
		`precursor_fleet_hottest_target{target="` + wantHottest + `"} 1`,
	} {
		if !strings.Contains(fleetProm, want) {
			t.Errorf("/fleet missing %q", want)
		}
	}
	fleetText := string(httpGet(t, "http://"+fleetMS.Addr()+"/metrics", http.StatusOK))
	if want := `precursor_heat_ops_total{side="client",kind="put"}`; !strings.Contains(fleetText, want) {
		t.Errorf("fleet endpoint /metrics missing %q (routing-side heat)", want)
	}
	validatePromText(t, fleetText)
}
