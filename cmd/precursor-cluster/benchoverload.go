package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"precursor"
	"precursor/internal/faultfab"
	"precursor/internal/ycsb"
)

// Acceptance bounds for -bench-overload -gate.
const (
	// overloadGoodputMin: at 2x the peak client count the fleet must
	// still deliver at least this fraction of its peak throughput —
	// admission control sheds excess load instead of collapsing.
	overloadGoodputMin = 0.70
	// overloadP99Stretch bounds the p99 of *admitted* ops under 2x
	// saturation relative to the peak pass's p99 (floored, since a
	// fast machine's peak p99 can be microseconds). Shedding keeps the
	// queue short, so admitted ops must not see unbounded queueing.
	overloadP99Stretch = 25.0
	overloadP99Floor   = 50 * time.Millisecond
	// overloadMaxAmplification bounds server arrivals per logical
	// client op across shed/recover cycles: the token-bucket retry
	// budget must keep shed-retries from becoming a retry storm.
	overloadMaxAmplification = 1.10
	// overloadHedgeExtraMax bounds the extra read traffic hedging may
	// add, and hedgeP99CutMax is the read-p99 reduction it must buy
	// under the one-slow-replica fault injection.
	overloadHedgeExtraMax = 0.10
	hedgeP99CutMax        = 0.90
)

// Chaos-phase schedule: every chaosCycle one random shard is put into
// drain (shedding everything) for chaosDrainSpan, then recovered. The
// duty cycle is sized so shed-retry demand stays under the retry
// budget's 10% deposit rate — the regime the amplification bound is
// meant to hold in.
const (
	chaosCycle     = 150 * time.Millisecond
	chaosDrainSpan = 25 * time.Millisecond
)

// Hedge-phase fault injection: every client->server ring write is
// delayed with probability hedgeDelayProb for up to hedgeMaxDelay.
// The tail this puts on the primary replica is what hedged reads are
// supposed to cut; 4% > 1% guarantees the delay dominates p99, and
// the delay ceiling is sized well above a loaded machine's service
// EWMA so the hedge (fired at ~3x EWMA) clearly beats waiting it out.
const (
	hedgeDelayProb = 0.04
	hedgeMaxDelay  = 80 * time.Millisecond
)

// OverloadPass is one measured YCSB pass of the -bench-overload run.
type OverloadPass struct {
	Clients int     `json:"clients"`
	Ops     uint64  `json:"ops"`
	Errors  uint64  `json:"errors"`
	Kops    float64 `json:"kops"`
	P99Ms   float64 `json:"p99_ms"`
}

// OverloadChaos is the shed/recover chaos phase: unique-key acked puts
// while shards cycle through drain, then a full readback.
type OverloadChaos struct {
	// Cycles is how many drain/recover cycles ran during the writes.
	Cycles int `json:"cycles"`
	// LogicalPuts counts client Put calls; AckedPuts those that
	// returned nil. Sheds and retries inside the pool are invisible
	// here — that is the point of the amplification measure.
	LogicalPuts uint64 `json:"logical_puts"`
	AckedPuts   uint64 `json:"acked_puts"`
	// ShedOps is the fleet-wide shed count (reads+writes+batches) the
	// servers recorded during the write phase.
	ShedOps uint64 `json:"shed_ops"`
	// Arrivals is the fleet-wide server arrival count (applied +
	// shed) during the write phase; Amplification = Arrivals /
	// LogicalPuts. 1.0 = no retries at all.
	Arrivals      uint64  `json:"arrivals"`
	Amplification float64 `json:"amplification"`
	// LostAcked counts acked puts the readback could not produce —
	// must be zero (an acknowledged write is never lost; a shed op
	// was never applied).
	LostAcked int `json:"lost_acked"`
}

// OverloadHedge compares read p99 with hedging off vs on while a
// fault fabric injects a delay tail on the ring writes of a 2x2
// replicated cluster.
type OverloadHedge struct {
	DelayProb  float64 `json:"delay_prob"`
	MaxDelayMs float64 `json:"max_delay_ms"`
	ReadsOff   uint64  `json:"reads_off"`
	ReadsOn    uint64  `json:"reads_on"`
	P99OffMs   float64 `json:"p99_off_ms"`
	P99OnMs    float64 `json:"p99_on_ms"`
	// HedgesLaunched/Won/Denied echo the cluster client's hedge
	// counters from the hedge-on pass; ExtraReadPct is launched
	// hedges over total reads (bounded by overloadHedgeExtraMax).
	HedgesLaunched uint64  `json:"hedges_launched"`
	HedgesWon      uint64  `json:"hedges_won"`
	HedgesDenied   uint64  `json:"hedges_denied"`
	ExtraReadPct   float64 `json:"extra_read_pct"`
}

// OverloadBenchResult is the full -bench-overload output.
type OverloadBenchResult struct {
	Shards    int    `json:"shards"`
	Workers   int    `json:"workers"`
	Records   int    `json:"records"`
	ValueSize int    `json:"value_size"`
	Workload  string `json:"workload"`

	Peak     OverloadPass `json:"peak"`
	Overload OverloadPass `json:"overload"`
	// GoodputRatio is overload kops over peak kops.
	GoodputRatio float64 `json:"goodput_ratio"`

	Chaos OverloadChaos `json:"chaos"`
	Hedge OverloadHedge `json:"hedge"`
}

type overloadBenchConfig struct {
	benchConfig
	gate bool
}

// overloadDeploy is an n-shard gated deployment. Admission gates hold
// per-server inflight state, so each shard needs its own gate (and
// therefore its own Serve call — ServeCluster shares one ServerConfig).
type overloadDeploy struct {
	svcs  []*precursor.Service
	specs []precursor.ShardSpec
}

func (d *overloadDeploy) close() {
	for _, svc := range d.svcs {
		svc.Close()
	}
}

// shedTotal sums the fleet's shed counters; arrivalTotal sums every
// server arrival — applied ops plus sheds — the numerator of the
// retry-amplification measure.
func (d *overloadDeploy) shedTotal() uint64 {
	var n uint64
	for _, svc := range d.svcs {
		st := svc.Server.Stats()
		n += st.ShedReads + st.ShedWrites
	}
	return n
}

func (d *overloadDeploy) arrivalTotal() uint64 {
	var n uint64
	for _, svc := range d.svcs {
		st := svc.Server.Stats()
		n += st.Puts + st.Gets + st.Deletes
		n += st.ShedReads + st.ShedWrites
	}
	return n
}

// serveOverloadShards launches n single-shard services, each with a
// fresh platform and its own admission gate at defaults.
func serveOverloadShards(n, workers int) (*overloadDeploy, error) {
	d := &overloadDeploy{}
	for i := 0; i < n; i++ {
		platform, err := precursor.NewPlatform()
		if err != nil {
			d.close()
			return nil, fmt.Errorf("shard %d platform: %w", i, err)
		}
		svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{
			Workers:  workers,
			Platform: platform,
			Overload: precursor.NewOverloadGate(precursor.OverloadGateConfig{}),
		})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		d.svcs = append(d.svcs, svc)
		d.specs = append(d.specs, precursor.ShardSpec{
			Addr:        svc.Addr(),
			PlatformKey: platform.AttestationPublicKey(),
			Measurement: svc.Server.Measurement(),
		})
	}
	return d, nil
}

// runBenchOverload measures the overload-protection stack end to end:
// peak throughput, goodput and admitted-op p99 at 2x saturation,
// retry amplification and acked-put durability across shed/recover
// cycles, and the read-p99 cut hedging buys under a delay-tail fault
// injection. With -gate, each bound gets one re-measure before the
// run fails (scheduling noise at these run lengths is real); a lost
// acked put fails immediately — durability is not noise.
func runBenchOverload(cfg overloadBenchConfig) error {
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(strings.TrimSpace(cfg.shardCounts))
	if err != nil || n <= 0 {
		return fmt.Errorf("-bench-overload needs a single positive -shards count, got %q", cfg.shardCounts)
	}

	result, err := measureOverload(n, wl, cfg)
	if err != nil {
		return err
	}
	if cfg.gate {
		if viol := overloadViolations(result); len(viol) > 0 {
			fmt.Fprintf(cfg.out, "gate miss (%s); re-measuring\n", strings.Join(viol, "; "))
			result, err = measureOverload(n, wl, cfg)
			if err != nil {
				return err
			}
		}
	}
	printOverload(cfg, result)

	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "wrote %s\n", cfg.jsonPath)
	}
	if cfg.gate {
		if viol := overloadViolations(result); len(viol) > 0 {
			return fmt.Errorf("overload gate: %s", strings.Join(viol, "; "))
		}
	}
	return nil
}

// overloadViolations checks every -gate bound and returns the misses.
func overloadViolations(r *OverloadBenchResult) []string {
	var viol []string
	if r.GoodputRatio < overloadGoodputMin {
		viol = append(viol, fmt.Sprintf("goodput %.2f < %.2f of peak", r.GoodputRatio, overloadGoodputMin))
	}
	p99Bound := time.Duration(overloadP99Stretch * r.Peak.P99Ms * float64(time.Millisecond))
	if p99Bound < overloadP99Floor {
		p99Bound = overloadP99Floor
	}
	if over := time.Duration(r.Overload.P99Ms * float64(time.Millisecond)); over > p99Bound {
		viol = append(viol, fmt.Sprintf("admitted p99 %v exceeds bound %v", over, p99Bound))
	}
	if r.Chaos.Amplification > overloadMaxAmplification {
		viol = append(viol, fmt.Sprintf("retry amplification %.3f > %.2f", r.Chaos.Amplification, overloadMaxAmplification))
	}
	if r.Chaos.LostAcked > 0 {
		viol = append(viol, fmt.Sprintf("%d acked puts lost", r.Chaos.LostAcked))
	}
	if r.Hedge.P99OnMs > r.Hedge.P99OffMs*hedgeP99CutMax {
		viol = append(viol, fmt.Sprintf("hedged read p99 %.2fms not under %.0f%% of unhedged %.2fms",
			r.Hedge.P99OnMs, hedgeP99CutMax*100, r.Hedge.P99OffMs))
	}
	if r.Hedge.ExtraReadPct > overloadHedgeExtraMax {
		viol = append(viol, fmt.Sprintf("hedge extra reads %.1f%% > %.0f%%",
			r.Hedge.ExtraReadPct*100, overloadHedgeExtraMax*100))
	}
	return viol
}

func printOverload(cfg overloadBenchConfig, r *OverloadBenchResult) {
	fmt.Fprintf(cfg.out, "peak:     clients=%-3d kops=%-8.1f p99=%.2fms\n",
		r.Peak.Clients, r.Peak.Kops, r.Peak.P99Ms)
	fmt.Fprintf(cfg.out, "overload: clients=%-3d kops=%-8.1f p99=%.2fms errors=%d goodput=%.2f\n",
		r.Overload.Clients, r.Overload.Kops, r.Overload.P99Ms, r.Overload.Errors, r.GoodputRatio)
	fmt.Fprintf(cfg.out, "chaos:    cycles=%d puts=%d acked=%d sheds=%d amplification=%.3f lost=%d\n",
		r.Chaos.Cycles, r.Chaos.LogicalPuts, r.Chaos.AckedPuts, r.Chaos.ShedOps,
		r.Chaos.Amplification, r.Chaos.LostAcked)
	fmt.Fprintf(cfg.out, "hedge:    p99(off)=%.2fms p99(on)=%.2fms launched=%d won=%d denied=%d extra-reads=%.1f%%\n",
		r.Hedge.P99OffMs, r.Hedge.P99OnMs, r.Hedge.HedgesLaunched, r.Hedge.HedgesWon,
		r.Hedge.HedgesDenied, r.Hedge.ExtraReadPct*100)
}

// measureOverload runs the four phases against fresh deployments.
func measureOverload(n int, wl ycsb.Workload, cfg overloadBenchConfig) (*OverloadBenchResult, error) {
	result := &OverloadBenchResult{
		Shards: n, Workers: cfg.workers, Records: cfg.records,
		ValueSize: cfg.valueSize, Workload: wl.Name,
	}

	// Phases 1+2: peak vs 2x saturation on one gated fleet. The same
	// deployment serves both passes so the capacity being compared is
	// identical. ConnsPerShard is pinned to 1: the connection pool is
	// the client-side concurrency gate, so doubled offered load turns
	// into client-side queueing at a fixed server-side concurrency —
	// the degradation mode the goodput bound asserts — instead of
	// unbounded fan-in the servers never admitted.
	d, err := serveOverloadShards(n, cfg.workers)
	if err != nil {
		return nil, err
	}
	cc, err := precursor.DialCluster(d.specs, precursor.ClusterConfig{
		ConnsPerShard: 1,
		Timeout:       30 * time.Second,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	if err := ycsb.Load(cc, cfg.records, cfg.valueSize, cfg.seed); err != nil {
		cc.Close()
		d.close()
		return nil, err
	}
	pass := func(clients int) (OverloadPass, error) {
		rep, err := ycsb.RunShared(cc, ycsb.RunnerConfig{
			Workload: wl, Records: cfg.records, ValueSize: cfg.valueSize,
			Clients: clients, OpsPerClient: cfg.opsPerClient, Seed: cfg.seed,
		})
		if err != nil {
			return OverloadPass{}, err
		}
		return OverloadPass{
			Clients: clients, Ops: rep.Ops, Errors: rep.Errors, Kops: rep.Kops,
			P99Ms: float64(rep.Latency.Quantile(0.99)) / float64(time.Millisecond),
		}, nil
	}
	result.Peak, err = pass(cfg.clients)
	if err == nil {
		result.Overload, err = pass(2 * cfg.clients)
	}
	cc.Close()
	d.close()
	if err != nil {
		return nil, err
	}
	if result.Peak.Kops > 0 {
		result.GoodputRatio = result.Overload.Kops / result.Peak.Kops
	}

	result.Chaos, err = chaosPhase(n, cfg)
	if err != nil {
		return nil, err
	}
	result.Hedge, err = hedgePhase(cfg)
	if err != nil {
		return nil, err
	}
	return result, nil
}

// chaosPhase drives unique-key puts through a gated fleet while a
// toggler cycles random shards through drain (every op shed) and back.
// It measures retry amplification — server arrivals per logical client
// put — and then reads every acked key back: an acked put must
// survive, a shed put must never have been applied.
func chaosPhase(n int, cfg overloadBenchConfig) (OverloadChaos, error) {
	d, err := serveOverloadShards(n, cfg.workers)
	if err != nil {
		return OverloadChaos{}, err
	}
	defer d.close()
	cc, err := precursor.DialCluster(d.specs, precursor.ClusterConfig{
		ConnsPerShard: cfg.conns,
		// Short enough that a shed-retry sequence gives up inside the
		// phase instead of stretching it; sheds resolve in tens of ms.
		Timeout: 2 * time.Second,
	})
	if err != nil {
		return OverloadChaos{}, err
	}
	defer cc.Close()

	before := d.arrivalTotal()
	shedsBefore := d.shedTotal()

	// Drain/recover toggler: one random shard at a time, fixed duty
	// cycle (see chaosCycle/chaosDrainSpan).
	stop := make(chan struct{})
	var cycles int
	var togglerDone sync.WaitGroup
	togglerDone.Add(1)
	go func() {
		defer togglerDone.Done()
		rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0xD12A1))
		for {
			select {
			case <-stop:
				return
			case <-time.After(chaosCycle - chaosDrainSpan):
			}
			svc := d.svcs[rng.IntN(len(d.svcs))]
			svc.Server.SetDraining(true)
			cycles++
			select {
			case <-stop:
				svc.Server.SetDraining(false)
				return
			case <-time.After(chaosDrainSpan):
			}
			svc.Server.SetDraining(false)
		}
	}()

	// Writers: unique keys, deterministic values, every ack recorded.
	type acked struct{ key, val string }
	writers := cfg.clients
	perWriter := cfg.opsPerClient
	ackedCh := make(chan acked, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("chaos-w%d-k%d", w, i)
				val := key + "-v"
				if err := cc.Put(key, []byte(val)); err == nil {
					ackedCh <- acked{key, val}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	togglerDone.Wait()
	close(ackedCh)

	ch := OverloadChaos{
		Cycles:      cycles,
		LogicalPuts: uint64(writers * perWriter),
	}
	var ackedPuts []acked
	for a := range ackedCh {
		ackedPuts = append(ackedPuts, a)
	}
	ch.AckedPuts = uint64(len(ackedPuts))
	ch.Arrivals = d.arrivalTotal() - before
	ch.ShedOps = d.shedTotal() - shedsBefore
	if ch.LogicalPuts > 0 {
		ch.Amplification = float64(ch.Arrivals) / float64(ch.LogicalPuts)
	}

	// Readback with every shard recovered: acked-put-never-lost.
	for _, svc := range d.svcs {
		svc.Server.SetDraining(false)
	}
	for _, a := range ackedPuts {
		v, err := cc.Get(a.key)
		if err != nil || string(v) != a.val {
			ch.LostAcked++
		}
	}
	return ch, nil
}

// hedgePhase measures read p99 with hedging off vs on against a 2x2
// replicated cluster whose client->server ring writes carry an
// injected delay tail (internal/faultfab). Every replica gets the
// same tail, so whichever replica the EWMA router prefers, a slow
// read is overwhelmingly likely to find the other replica fast — the
// situation hedging exists for.
func hedgePhase(cfg overloadBenchConfig) (OverloadHedge, error) {
	h := OverloadHedge{
		DelayProb:  hedgeDelayProb,
		MaxDelayMs: float64(hedgeMaxDelay) / float64(time.Millisecond),
	}
	d, err := precursor.ServeReplicatedCluster(2, 2, precursor.ServerConfig{Workers: cfg.workers})
	if err != nil {
		return h, err
	}
	defer d.Close()
	specs := d.GroupSpecs()

	dial := func(hedge bool) (*precursor.ClusterClient, error) {
		fab := faultfab.New(faultfab.Config{
			Seed: uint64(cfg.seed),
			C2S: faultfab.ClassMap{faultfab.ClassWrite: faultfab.ClassProbs{
				Delay: hedgeDelayProb, MaxDelay: hedgeMaxDelay,
			}},
		})
		return precursor.DialReplicatedCluster(specs, precursor.ClusterConfig{
			ConnsPerShard: cfg.conns,
			Timeout:       30 * time.Second,
			WrapConn: func(c precursor.Conn) precursor.Conn {
				return fab.Wrap(c, faultfab.C2S, "bench-overload")
			},
			HedgeReads: hedge,
		})
	}
	readWl, err := workloadByName("C")
	if err != nil {
		return h, err
	}
	run := func(cc *precursor.ClusterClient, load bool) (p99ms float64, reads uint64, err error) {
		if load {
			if err := ycsb.Load(cc, cfg.records, cfg.valueSize, cfg.seed); err != nil {
				return 0, 0, err
			}
		}
		rep, err := ycsb.RunShared(cc, ycsb.RunnerConfig{
			Workload: readWl, Records: cfg.records, ValueSize: cfg.valueSize,
			Clients: cfg.clients, OpsPerClient: cfg.opsPerClient, Seed: cfg.seed,
		})
		if err != nil {
			return 0, 0, err
		}
		return float64(rep.Latency.Quantile(0.99)) / float64(time.Millisecond), rep.Ops, nil
	}

	ccOff, err := dial(false)
	if err != nil {
		return h, err
	}
	h.P99OffMs, h.ReadsOff, err = run(ccOff, true)
	ccOff.Close()
	if err != nil {
		return h, err
	}

	ccOn, err := dial(true)
	if err != nil {
		return h, err
	}
	h.P99OnMs, h.ReadsOn, err = run(ccOn, false)
	if err == nil {
		st := ccOn.Stats()
		h.HedgesLaunched = st.HedgesLaunched
		h.HedgesWon = st.HedgesWon
		h.HedgesDenied = st.HedgesDenied
		if h.ReadsOn > 0 {
			h.ExtraReadPct = float64(h.HedgesLaunched) / float64(h.ReadsOn)
		}
	}
	ccOn.Close()
	return h, err
}
