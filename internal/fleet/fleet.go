// Package fleet is Precursor's cluster-level SLO aggregator: the view
// that turns per-process /metrics islands into one fleet health rollup.
//
// An Aggregator scrapes every configured shard/replica metrics endpoint
// (the Prometheus text format ServeMetrics emits — parsed here with a
// stdlib-only reader, no client_golang dependency), tracks per-target
// availability over a sliding window of scrape outcomes, and folds the
// targets' counters into cluster SLO rollups: availability vs. objective,
// error-budget burn, quorum-shortfall / failover / repair totals,
// security-event totals from the audit log, and the worst p99 per
// pipeline stage anywhere in the fleet. The rollup is served as one
// /fleet promtext endpoint (ServeHTTP / WriteProm) and rendered as a
// live terminal table by `precursor-cluster -top` (WriteTop).
package fleet

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"precursor/internal/heat"
)

// Defaults for Config zero values.
const (
	// DefaultSLO is the availability objective when Config.SLO is 0:
	// three nines, the ROADMAP's production-scale starting point.
	DefaultSLO = 0.999
	// DefaultWindow is the per-target scrape-outcome window used for
	// availability when Config.Window is 0.
	DefaultWindow = 64
	// DefaultInterval is Start's scrape cadence when Config.Interval
	// is 0.
	DefaultInterval = 2 * time.Second
	// DefaultScrapeTimeout bounds one target scrape when Config.Client
	// is nil.
	DefaultScrapeTimeout = 3 * time.Second
)

// Target names one metrics endpoint to scrape.
type Target struct {
	// Name labels the target in rollups ("g0/r1", "shard2", …).
	Name string
	// URL is the full metrics URL (e.g. "http://127.0.0.1:9090/metrics").
	URL string
}

// Config parameterizes New.
type Config struct {
	// Targets are the endpoints to scrape; required, at least one.
	Targets []Target
	// SLO is the fleet availability objective in [0,1) used for
	// error-budget burn (DefaultSLO if 0).
	SLO float64
	// Window is how many recent scrape outcomes feed each target's
	// availability (DefaultWindow if 0).
	Window int
	// Interval is the background scrape cadence for Start
	// (DefaultInterval if 0).
	Interval time.Duration
	// Client performs the scrapes (a DefaultScrapeTimeout-bounded
	// client if nil).
	Client *http.Client
}

// targetState is one target's scrape bookkeeping.
type targetState struct {
	name, url string
	up        bool
	err       string
	samples   []Sample
	window    []bool // ring of recent scrape outcomes
	widx      int
	wfill     int
	scrapes   uint64
	failures  uint64
}

// availability is the fraction of windowed scrapes that succeeded
// (1 when nothing has been scraped yet — an unobserved target is not a
// burning one).
func (t *targetState) availability() float64 {
	if t.wfill == 0 {
		return 1
	}
	up := 0
	for i := 0; i < t.wfill; i++ {
		if t.window[i] {
			up++
		}
	}
	return float64(up) / float64(t.wfill)
}

// record folds one scrape outcome into the window.
func (t *targetState) record(ok bool) {
	t.scrapes++
	if !ok {
		t.failures++
	}
	t.window[t.widx] = ok
	t.widx = (t.widx + 1) % len(t.window)
	if t.wfill < len(t.window) {
		t.wfill++
	}
}

// Aggregator scrapes the configured targets and serves fleet rollups.
// Safe for concurrent use.
type Aggregator struct {
	cfg    Config
	client *http.Client

	mu      sync.Mutex
	targets []*targetState

	stopCh    chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// New builds an Aggregator over cfg. It performs no I/O until
// ScrapeOnce or Start.
func New(cfg Config) (*Aggregator, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("fleet: at least one target is required")
	}
	if cfg.SLO == 0 {
		cfg.SLO = DefaultSLO
	}
	if cfg.SLO < 0 || cfg.SLO >= 1 {
		return nil, fmt.Errorf("fleet: SLO %g outside [0,1)", cfg.SLO)
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: DefaultScrapeTimeout}
	}
	a := &Aggregator{cfg: cfg, client: client, stopCh: make(chan struct{})}
	for _, t := range cfg.Targets {
		a.targets = append(a.targets, &targetState{
			name: t.Name, url: t.URL, window: make([]bool, cfg.Window),
		})
	}
	return a, nil
}

// ScrapeOnce scrapes every target once, concurrently, and folds the
// results in. It blocks until all scrapes complete or time out.
func (a *Aggregator) ScrapeOnce() {
	type result struct {
		samples []Sample
		err     error
	}
	results := make([]result, len(a.targets))
	var wg sync.WaitGroup
	for i, t := range a.targets {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			samples, err := a.scrape(url)
			results[i] = result{samples: samples, err: err}
		}(i, t.url)
	}
	wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, t := range a.targets {
		r := results[i]
		if r.err != nil {
			t.record(false)
			t.up = false
			t.err = r.err.Error()
			continue
		}
		t.record(true)
		t.up = true
		t.err = ""
		t.samples = r.samples
	}
}

// scrape fetches and parses one target's metrics.
func (a *Aggregator) scrape(url string) ([]Sample, error) {
	resp, err := a.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s: HTTP %d", url, resp.StatusCode)
	}
	return ParseProm(resp.Body)
}

// Start launches the background scrape loop at the configured interval
// (an immediate first scrape, then ticks). Close stops it.
func (a *Aggregator) Start() {
	a.startOnce.Do(func() {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.ScrapeOnce()
			t := time.NewTicker(a.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-a.stopCh:
					return
				case <-t.C:
					a.ScrapeOnce()
				}
			}
		}()
	})
}

// Close stops the background scrape loop. Safe to call more than once,
// and without Start.
func (a *Aggregator) Close() {
	a.closeOnce.Do(func() { close(a.stopCh) })
	a.wg.Wait()
}

// TargetStatus is one target's health in a Rollup.
type TargetStatus struct {
	// Name and URL identify the target.
	Name, URL string
	// Up reports the most recent scrape's outcome.
	Up bool
	// Err is the most recent scrape error ("" when up).
	Err string
	// Availability is the windowed scrape success fraction.
	Availability float64
	// Scrapes and Failures count lifetime scrape attempts and failures.
	Scrapes, Failures uint64
}

// StageLatency is the worst p99 observed anywhere in the fleet for one
// pipeline stage.
type StageLatency struct {
	// Side is "client" or "server"; Stage is the obs stage name.
	Side, Stage string
	// P99 is the stage's worst 99th-percentile latency in seconds.
	P99 float64
	// Target names the endpoint reporting it.
	Target string
}

// TargetHeat is one target's workload-heat summary in a Rollup, folded
// from the target's precursor_heat_* families (absent for targets that
// export no heat collector).
type TargetHeat struct {
	// Name is the target's configured name.
	Name string
	// Ops sums precursor_heat_ops_total over kinds and sides.
	Ops uint64
	// Rate sums precursor_heat_op_rate over kinds and sides (ops/sec).
	Rate float64
	// RangeSkew is the target's worst key-range imbalance across its
	// heat vantages (hot keys *within* the shard's arc of the ring).
	RangeSkew heat.Skew
}

// heatSkewMinOps gates the load-skew anomaly: with fewer total fleet
// ops than this, imbalance is noise, not signal.
const heatSkewMinOps = 1000

// heatSkewAnomalyMaxMean is the hottest-shard max/mean ratio at or
// above which the rollup raises a load-skew anomaly.
const heatSkewAnomalyMaxMean = 2.0

// Rollup is one consistent snapshot of fleet health.
type Rollup struct {
	// Targets are the per-endpoint statuses, in configuration order.
	Targets []TargetStatus
	// TargetsUp counts targets whose last scrape succeeded.
	TargetsUp int
	// Availability is the mean windowed availability across targets.
	Availability float64
	// SLO echoes the configured objective.
	SLO float64
	// ErrorBudgetBurn is (1-Availability)/(1-SLO): burn 1.0 consumes
	// the budget exactly as fast as the objective allows; above 1.0 the
	// fleet is out of budget.
	ErrorBudgetBurn float64
	// QuorumShortfalls, ReadFailovers, Repairs and RepairFailures sum
	// the cluster replication counters across all targets.
	QuorumShortfalls, ReadFailovers, Repairs, RepairFailures uint64
	// AuthFailures and Replays sum the server-side integrity counters
	// across all targets.
	AuthFailures, Replays uint64
	// PoolBytesReserved and PoolBytesRequested sum the servers' payload
	// pools: memory held against bytes actually stored in it. Their ratio
	// is the fleet's pool memory per stored byte (class padding plus free
	// and never-used slots).
	PoolBytesReserved, PoolBytesRequested uint64
	// AuditEvents sums precursor_audit_events_total by kind across all
	// targets (empty when no target exports an audit log).
	AuditEvents map[string]uint64
	// StageP99 is the worst p99 per (side, stage) across the fleet,
	// sorted by side then stage.
	StageP99 []StageLatency
	// Heat holds per-target workload-heat summaries, in configuration
	// order, for targets exporting precursor_heat_* (empty otherwise).
	Heat []TargetHeat
	// HottestTarget names the target with the most heat-accounted ops
	// ("" when no target exports heat or all are idle).
	HottestTarget string
	// HeatSkew is the fleet-wide load imbalance across the heat-exporting
	// targets' op counts — the cross-shard skew the hash ring is supposed
	// to keep near {0, 1}.
	HeatSkew heat.Skew
	// Anomalies are human-readable flags raised by this rollup: down
	// targets, budget overburn, integrity events present.
	Anomalies []string
}

// Snapshot computes a Rollup from the latest scrape state. It does not
// scrape; pair with ScrapeOnce or Start.
func (a *Aggregator) Snapshot() Rollup {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := Rollup{SLO: a.cfg.SLO, AuditEvents: make(map[string]uint64)}
	var availSum float64
	worst := make(map[[2]string]StageLatency)
	for _, t := range a.targets {
		ts := TargetStatus{
			Name: t.name, URL: t.url, Up: t.up, Err: t.err,
			Availability: t.availability(), Scrapes: t.scrapes, Failures: t.failures,
		}
		r.Targets = append(r.Targets, ts)
		if t.up {
			r.TargetsUp++
		}
		availSum += ts.Availability
		th := TargetHeat{Name: t.name}
		heatSeen := false
		for _, s := range t.samples {
			// A target emitting NaN or ±Inf (an empty summary window, a
			// division by zero upstream) must not poison worst-of or sum
			// folds: NaN compares false against everything, so a NaN that
			// arrived first would hold its slot forever.
			if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
				continue
			}
			switch s.Name {
			case "precursor_heat_ops_total":
				th.Ops += uint64(s.Value)
				heatSeen = true
			case "precursor_heat_op_rate":
				th.Rate += s.Value
				heatSeen = true
			case "precursor_heat_range_skew_cv":
				if s.Value > th.RangeSkew.CV {
					th.RangeSkew.CV = s.Value
				}
			case "precursor_heat_range_skew_max_mean":
				if s.Value > th.RangeSkew.MaxMean {
					th.RangeSkew.MaxMean = s.Value
				}
			case "precursor_cluster_quorum_shortfalls_total":
				r.QuorumShortfalls += uint64(s.Value)
			case "precursor_cluster_read_failovers_total":
				r.ReadFailovers += uint64(s.Value)
			case "precursor_cluster_repairs_total":
				r.Repairs += uint64(s.Value)
			case "precursor_cluster_repair_failures_total":
				r.RepairFailures += uint64(s.Value)
			case "precursor_auth_failures_total":
				r.AuthFailures += uint64(s.Value)
			case "precursor_replays_total":
				r.Replays += uint64(s.Value)
			case "precursor_pool_bytes_reserved":
				r.PoolBytesReserved += uint64(s.Value)
			case "precursor_pool_bytes_requested":
				r.PoolBytesRequested += uint64(s.Value)
			case "precursor_audit_events_total":
				if kind := s.Labels["kind"]; kind != "" {
					r.AuditEvents[kind] += uint64(s.Value)
				}
			case "precursor_stage_latency_seconds":
				if s.Labels["quantile"] != "0.99" {
					continue
				}
				key := [2]string{s.Labels["side"], s.Labels["stage"]}
				if cur, ok := worst[key]; !ok || s.Value > cur.P99 {
					worst[key] = StageLatency{Side: key[0], Stage: key[1], P99: s.Value, Target: t.name}
				}
			}
		}
		if heatSeen {
			r.Heat = append(r.Heat, th)
		}
	}
	if len(r.Heat) > 0 {
		ops := make([]uint64, len(r.Heat))
		var hottest uint64
		for i, th := range r.Heat {
			ops[i] = th.Ops
			if th.Ops > hottest {
				hottest = th.Ops
				r.HottestTarget = th.Name
			}
		}
		r.HeatSkew = heat.SkewOf(ops)
	} else {
		r.HeatSkew = heat.Skew{MaxMean: 1}
	}
	if len(a.targets) > 0 {
		r.Availability = availSum / float64(len(a.targets))
	}
	r.ErrorBudgetBurn = (1 - r.Availability) / (1 - r.SLO)
	for _, sl := range worst {
		r.StageP99 = append(r.StageP99, sl)
	}
	sort.Slice(r.StageP99, func(i, j int) bool {
		if r.StageP99[i].Side != r.StageP99[j].Side {
			return r.StageP99[i].Side < r.StageP99[j].Side
		}
		return r.StageP99[i].Stage < r.StageP99[j].Stage
	})
	for _, ts := range r.Targets {
		if !ts.Up && ts.Scrapes > 0 {
			r.Anomalies = append(r.Anomalies, fmt.Sprintf("target %s down: %s", ts.Name, ts.Err))
		}
	}
	if r.ErrorBudgetBurn >= 1 {
		r.Anomalies = append(r.Anomalies, fmt.Sprintf("error-budget burn %.2fx (availability %.4f vs SLO %g)", r.ErrorBudgetBurn, r.Availability, r.SLO))
	}
	if r.QuorumShortfalls > 0 {
		r.Anomalies = append(r.Anomalies, fmt.Sprintf("%d quorum shortfalls", r.QuorumShortfalls))
	}
	if r.RepairFailures > 0 {
		r.Anomalies = append(r.Anomalies, fmt.Sprintf("%d repair failures", r.RepairFailures))
	}
	if r.AuthFailures > 0 {
		r.Anomalies = append(r.Anomalies, fmt.Sprintf("%d auth failures", r.AuthFailures))
	}
	if r.Replays > 0 {
		r.Anomalies = append(r.Anomalies, fmt.Sprintf("%d replay rejections", r.Replays))
	}
	for _, kind := range []string{"byzantine_failover", "rollback", "snapshot_auth", "attest_fail"} {
		if n := r.AuditEvents[kind]; n > 0 {
			r.Anomalies = append(r.Anomalies, fmt.Sprintf("%d %s audit events", n, kind))
		}
	}
	if r.HottestTarget != "" && r.HeatSkew.MaxMean >= heatSkewAnomalyMaxMean {
		var totalOps uint64
		for _, th := range r.Heat {
			totalOps += th.Ops
		}
		if totalOps >= heatSkewMinOps {
			r.Anomalies = append(r.Anomalies, fmt.Sprintf(
				"load skew: hottest shard %s at %.2fx mean (cv %.2f) — see its /debug/heat for the hot keys",
				r.HottestTarget, r.HeatSkew.MaxMean, r.HeatSkew.CV))
		}
	}
	return r
}

// WriteProm renders the current rollup in the Prometheus text format —
// the payload of the /fleet endpoint.
func (a *Aggregator) WriteProm(w io.Writer) error {
	r := a.Snapshot()
	var b strings.Builder
	head := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	head("precursor_fleet_targets", "Configured scrape targets", "gauge")
	fmt.Fprintf(&b, "precursor_fleet_targets %d\n", len(r.Targets))
	head("precursor_fleet_targets_up", "Targets whose last scrape succeeded", "gauge")
	fmt.Fprintf(&b, "precursor_fleet_targets_up %d\n", r.TargetsUp)
	head("precursor_fleet_availability", "Mean windowed scrape availability across targets", "gauge")
	fmt.Fprintf(&b, "precursor_fleet_availability %g\n", r.Availability)
	head("precursor_fleet_slo", "Configured availability objective", "gauge")
	fmt.Fprintf(&b, "precursor_fleet_slo %g\n", r.SLO)
	head("precursor_fleet_error_budget_burn", "Error-budget burn rate: (1-availability)/(1-SLO)", "gauge")
	fmt.Fprintf(&b, "precursor_fleet_error_budget_burn %g\n", r.ErrorBudgetBurn)
	head("precursor_fleet_quorum_shortfalls_total", "Quorum shortfalls summed across the fleet", "counter")
	fmt.Fprintf(&b, "precursor_fleet_quorum_shortfalls_total %d\n", r.QuorumShortfalls)
	head("precursor_fleet_read_failovers_total", "Read failovers summed across the fleet", "counter")
	fmt.Fprintf(&b, "precursor_fleet_read_failovers_total %d\n", r.ReadFailovers)
	head("precursor_fleet_repairs_total", "Completed repairs summed across the fleet", "counter")
	fmt.Fprintf(&b, "precursor_fleet_repairs_total %d\n", r.Repairs)
	head("precursor_fleet_repair_failures_total", "Repair failures summed across the fleet", "counter")
	fmt.Fprintf(&b, "precursor_fleet_repair_failures_total %d\n", r.RepairFailures)
	head("precursor_fleet_auth_failures_total", "Authentication failures summed across the fleet", "counter")
	fmt.Fprintf(&b, "precursor_fleet_auth_failures_total %d\n", r.AuthFailures)
	head("precursor_fleet_replays_total", "Replay rejections summed across the fleet", "counter")
	fmt.Fprintf(&b, "precursor_fleet_replays_total %d\n", r.Replays)
	head("precursor_fleet_pool_bytes_reserved", "Payload pool memory reserved, summed across the fleet", "gauge")
	fmt.Fprintf(&b, "precursor_fleet_pool_bytes_reserved %d\n", r.PoolBytesReserved)
	head("precursor_fleet_pool_bytes_requested", "Payload bytes stored in those pools, without size-class padding", "gauge")
	fmt.Fprintf(&b, "precursor_fleet_pool_bytes_requested %d\n", r.PoolBytesRequested)
	if len(r.AuditEvents) > 0 {
		head("precursor_fleet_audit_events_total", "Security audit events summed across the fleet, by kind", "counter")
		kinds := make([]string, 0, len(r.AuditEvents))
		for k := range r.AuditEvents {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "precursor_fleet_audit_events_total{kind=%q} %d\n", k, r.AuditEvents[k])
		}
	}
	head("precursor_fleet_target_up", "1 if the target's last scrape succeeded", "gauge")
	for _, ts := range r.Targets {
		up := 0
		if ts.Up {
			up = 1
		}
		fmt.Fprintf(&b, "precursor_fleet_target_up{target=%q} %d\n", ts.Name, up)
	}
	head("precursor_fleet_target_availability", "Windowed scrape availability per target", "gauge")
	for _, ts := range r.Targets {
		fmt.Fprintf(&b, "precursor_fleet_target_availability{target=%q} %g\n", ts.Name, ts.Availability)
	}
	if len(r.StageP99) > 0 {
		head("precursor_fleet_stage_p99_seconds", "Worst p99 stage latency anywhere in the fleet", "gauge")
		for _, sl := range r.StageP99 {
			fmt.Fprintf(&b, "precursor_fleet_stage_p99_seconds{side=%q,stage=%q,target=%q} %g\n", sl.Side, sl.Stage, sl.Target, sl.P99)
		}
	}
	if len(r.Heat) > 0 {
		head("precursor_fleet_heat_ops_total", "Heat-accounted operations per target (all kinds and vantages)", "counter")
		for _, th := range r.Heat {
			fmt.Fprintf(&b, "precursor_fleet_heat_ops_total{target=%q} %d\n", th.Name, th.Ops)
		}
		head("precursor_fleet_heat_op_rate", "EWMA heat-accounted op rate per target in ops/sec", "gauge")
		for _, th := range r.Heat {
			fmt.Fprintf(&b, "precursor_fleet_heat_op_rate{target=%q} %g\n", th.Name, th.Rate)
		}
		head("precursor_fleet_heat_range_skew_max_mean", "Worst within-target key-range imbalance (hot keys inside the shard's ring arc)", "gauge")
		for _, th := range r.Heat {
			fmt.Fprintf(&b, "precursor_fleet_heat_range_skew_max_mean{target=%q} %g\n", th.Name, th.RangeSkew.MaxMean)
		}
		head("precursor_fleet_heat_skew_cv", "Cross-target load imbalance: coefficient of variation of per-target heat ops", "gauge")
		fmt.Fprintf(&b, "precursor_fleet_heat_skew_cv %g\n", r.HeatSkew.CV)
		head("precursor_fleet_heat_skew_max_mean", "Cross-target load imbalance: hottest target's ops over the mean", "gauge")
		fmt.Fprintf(&b, "precursor_fleet_heat_skew_max_mean %g\n", r.HeatSkew.MaxMean)
		if r.HottestTarget != "" {
			head("precursor_fleet_hottest_target", "Constant-1 gauge whose target label names the most-loaded target", "gauge")
			fmt.Fprintf(&b, "precursor_fleet_hottest_target{target=%q} 1\n", r.HottestTarget)
		}
	}
	head("precursor_fleet_anomalies", "Anomaly flags raised by the current rollup", "gauge")
	fmt.Fprintf(&b, "precursor_fleet_anomalies %d\n", len(r.Anomalies))
	for _, an := range r.Anomalies {
		fmt.Fprintf(&b, "precursor_fleet_anomaly{flag=%q} 1\n", an)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP serves the rollup as promtext — mount it at GET /fleet.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = a.WriteProm(w)
}
