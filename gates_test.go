package precursor_test

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precursor"
	"precursor/internal/faultfab"
	"precursor/internal/ycsb"
)

// TestGates is the table of the repository's timing gates. A row
// compares an "off" side with an "on" side under one harness: both sides
// run the same ops, interleaved so that scheduler and GC noise lands on
// both alike, with the side that goes first alternating; the verdict is
// taken on medians; and a row that misses a bound is measured once more,
// because one burst of noise on a shared host can push one sample set
// past its bound while a real regression fails both. (The chaos row has
// no off side: it counts the fleet's arrivals against the client's puts.)
// Every bound logs one line:
//
//	gate <row> <metric> value <v> bound <b> verdict <pass|FAIL> (<detail>)
//
// Timing-sensitive by design, so it only runs when opted in:
//
//	PRECURSOR_OVERHEAD_GATE=1 go test . -run TestGates -v
func TestGates(t *testing.T) {
	if os.Getenv("PRECURSOR_OVERHEAD_GATE") == "" {
		t.Skip("set PRECURSOR_OVERHEAD_GATE=1 to run the gate table")
	}
	for _, row := range []struct {
		name string
		// build deploys both sides once and returns the measurement.
		build func(t *testing.T) func() []gateCheck
	}{
		{"trace", traceRow},
		{"audit", auditRow},
		{"heat", heatRow},
		{"batch", batchRow},
		{"overload", overloadRow},
		{"hedge", hedgeRow},
		{"chaos", chaosRow},
	} {
		t.Run(row.name, func(t *testing.T) {
			measure := row.build(t)
			checks := measure()
			if slices.ContainsFunc(checks, func(c gateCheck) bool { return !c.ok }) {
				t.Logf("gate %s missed a bound; re-measuring once", row.name)
				checks = measure()
			}
			for _, c := range checks {
				verdict := "pass"
				if !c.ok {
					verdict = "FAIL"
					t.Fail()
				}
				t.Logf("gate %s %s value %s bound %s verdict %s (%s)",
					row.name, c.metric, c.value, c.bound, verdict, c.detail)
			}
		})
	}
}

// gateCheck is one bound of a row, value and bound as printed.
type gateCheck struct {
	metric, value, bound, detail string
	ok                           bool
}

func atMost(metric, format string, v, bound float64, detail string) gateCheck {
	return gateCheck{metric, fmt.Sprintf(format, v), "<= " + fmt.Sprintf(format, bound), detail, v <= bound}
}

func atLeast(metric, format string, v, bound float64, detail string) gateCheck {
	return gateCheck{metric, fmt.Sprintf(format, v), ">= " + fmt.Sprintf(format, bound), detail, v >= bound}
}

// interleave runs n pairs, one call of each side per pair, the side that
// goes first alternating so a periodic disturbance cannot favour one
// side, and returns each side's per-call durations.
func interleave(n int, off, on func(i int)) (offLat, onLat []time.Duration) {
	offLat, onLat = make([]time.Duration, n), make([]time.Duration, n)
	for i := 0; i < n; i++ {
		first, second, firstLat, secondLat := off, on, offLat, onLat
		if i%2 == 1 {
			first, second, firstLat, secondLat = on, off, onLat, offLat
		}
		start := time.Now()
		first(i)
		firstLat[i] = time.Since(start)
		start = time.Now()
		second(i)
		secondLat[i] = time.Since(start)
	}
	return offLat, onLat
}

// ms converts d to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median[T cmp.Ordered](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// gateValue is the value every per-op row writes.
var gateValue = func() []byte {
	v := make([]byte, 128)
	for i := range v {
		v[i] = byte(i)
	}
	return v
}()

// ycsbOps draws n ops from a YCSB generator.
func ycsbOps(t *testing.T, cfg ycsb.GeneratorConfig, n int) []ycsb.Op {
	g, err := ycsb.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]ycsb.Op, n)
	for i := range ops {
		op := g.Next()
		ops[i] = ycsb.Op{Read: op.Read, Key: op.Key}
	}
	return ops
}

// overheadRow is the per-op row: deploy builds the off and the on side,
// records 0 … records-1 are written on both, and both run ops, op i
// being ops[i%len(ops)] with every update writing gateValue. The value
// is the on side's median per-op latency over the off side's, less one.
func overheadRow(t *testing.T, maxOver float64, records int, ops []ycsb.Op, deploy func(on bool) ycsb.Store) func() []gateCheck {
	off, on := deploy(false), deploy(true)
	for i := 0; i < records; i++ {
		for _, s := range []ycsb.Store{off, on} {
			if err := s.Put(ycsb.Key(i), gateValue); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func(s ycsb.Store) func(i int) {
		return func(i int) {
			op := ops[i%len(ops)]
			var err error
			if op.Read {
				_, err = s.Get(op.Key)
			} else {
				err = s.Put(op.Key, gateValue)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	interleave(200, run(off), run(on)) // warm allocators, pools and tables
	return func() []gateCheck {
		offLat, onLat := interleave(4000, run(off), run(on))
		b, o := median(offLat), median(onLat)
		return []gateCheck{atMost("overhead", "%+.2f%%", (float64(o)/float64(b)-1)*100, maxOver*100,
			fmt.Sprintf("median per op: off %v, on %v", b, o))}
	}
}

// traceRow: full tracing — context propagation, the extended reply AD,
// span recording on both ends — against none, on a bare client over the
// TCP fabric, the path production tracing rides (precursor-server -trace).
func traceRow(t *testing.T) func() []gateCheck {
	const records = 64
	ops := make([]ycsb.Op, records) // puts and gets by turns
	for i := range ops {
		ops[i] = ycsb.Op{Read: i%2 == 1, Key: ycsb.Key(i)}
	}
	return overheadRow(t, 0.05, records, ops, func(on bool) ycsb.Store {
		platform, err := precursor.NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		cfg := precursor.ServerConfig{Platform: platform, Workers: 1, PollInterval: time.Microsecond}
		var ctracer *precursor.Tracer
		if on {
			cfg.Tracer = precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideServer, Workers: 1})
			ctracer = precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideClient, Workers: 1})
		}
		svc, err := precursor.Serve("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		c, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
			PlatformKey: platform.AttestationPublicKey(),
			Measurement: svc.Server.Measurement(),
			Tracer:      ctracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	})
}

// auditRow: one audit log shared by both servers of an R=2 group and
// the cluster client, against none. A clean run records no event, so
// the cost measured is the hooks on the op path — what production pays
// until an incident happens.
func auditRow(t *testing.T) func() []gateCheck {
	const records = 2000
	ops := ycsbOps(t, ycsb.GeneratorConfig{Workload: ycsb.WorkloadB, Records: records, Seed: 42}, 4000)
	return overheadRow(t, 0.05, records, ops, func(on bool) ycsb.Store {
		var log *precursor.AuditLog
		if on {
			log = precursor.NewAuditLog(0)
		}
		cs, err := precursor.ServeReplicatedCluster(1, 2, precursor.ServerConfig{Workers: 1, Audit: log})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cs.Close)
		cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
			Timeout: 30 * time.Second, Audit: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cc.Close() })
		return cc
	})
}

// heatRow: heat accounting on every server of a 4-shard cluster and on
// the routing side, against none, under zipf θ = 1.2 — the worst case
// for sketch stripe contention, since every op hammers the same hot
// hashes.
func heatRow(t *testing.T) func() []gateCheck {
	const records = 2000
	ops := ycsbOps(t, ycsb.GeneratorConfig{
		Workload: ycsb.WorkloadB, Records: records, Dist: ycsb.Zipfian, ZipfTheta: 1.2, Seed: 42,
	}, 4000)
	return overheadRow(t, 0.03, records, ops, func(on bool) ycsb.Store {
		heatIf := func() *precursor.HeatCollector {
			if on {
				return precursor.NewHeatCollector(precursor.HeatConfig{})
			}
			return nil
		}
		f := serveShards(t, 4, func() precursor.ServerConfig {
			return precursor.ServerConfig{Workers: 1, Heat: heatIf()}
		})
		cc, err := precursor.DialCluster(f.specs, precursor.ClusterConfig{
			Timeout: 30 * time.Second, Heat: heatIf(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cc.Close() })
		return cc
	})
}

// batchRow: the same puts and gets against one server, op by op on one
// connection and in frames of batchFrame on another. Batching amortizes
// the control seal, the ring doorbell and the reply poll of a frame, so
// batched throughput must reach 1.5× op-by-op.
func batchRow(t *testing.T) func() []gateCheck {
	const (
		batchFrame = 16
		records    = 3000
	)
	platform, err := precursor.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := precursor.Serve("127.0.0.1:0", precursor.ServerConfig{Platform: platform, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	dial := func() *precursor.Client {
		c, err := precursor.Dial(svc.Addr(), precursor.DialConfig{
			PlatformKey: platform.AttestationPublicKey(),
			Measurement: svc.Server.Measurement(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	single, batcher := dial(), dial()
	// Unit i is a frame's worth of ops: puts of block i/2 when i is even,
	// gets of the same block when odd, so every get finds its value.
	unit := func(i int) []precursor.BatchOp {
		kind, base := precursor.BatchPut, (i/2)*batchFrame
		if i%2 == 1 {
			kind = precursor.BatchGet
		}
		ops := make([]precursor.BatchOp, batchFrame)
		for j := range ops {
			ops[j] = precursor.BatchOp{Kind: kind, Key: fmt.Sprintf("batch-%06d", base+j)}
			if kind == precursor.BatchPut {
				ops[j].Value = gateValue
			}
		}
		return ops
	}
	check := func(op precursor.BatchOp, v []byte, err error) {
		if err != nil || (op.Kind == precursor.BatchGet && !bytes.Equal(v, gateValue)) {
			t.Fatalf("%s: %q, %v", op.Key, v, err)
		}
	}
	opByOp := func(i int) {
		for _, op := range unit(i) {
			if op.Kind == precursor.BatchPut {
				check(op, nil, single.Put(op.Key, op.Value))
			} else {
				v, err := single.Get(op.Key)
				check(op, v, err)
			}
		}
	}
	framed := func(i int) {
		ops := unit(i)
		results, err := batcher.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range results {
			check(ops[j], r.Value, r.Err)
		}
	}
	interleave(32, opByOp, framed)
	return func() []gateCheck {
		offLat, onLat := interleave(2*records/batchFrame, opByOp, framed)
		b, o := median(offLat), median(onLat)
		return []gateCheck{atLeast("speedup", "%.2fx", float64(b)/float64(o), 1.5,
			fmt.Sprintf("median per %d ops: op by op %v, batched %v", batchFrame, b, o))}
	}
}

// overloadRow: passes of read-mostly YCSB against one fleet of four
// gated shards, at the peak client count (off) and at twice it (on).
// ConnsPerShard is 1: the connection pool is the client-side concurrency
// gate, so doubled offered load turns into client-side queueing at a
// fixed server-side concurrency — the degradation the goodput bound
// asserts — instead of fan-in the servers never admitted. Admission
// control must shed the excess rather than collapse: goodput at 2× at
// least 0.70 of peak, and admitted ops' p99 at most max(25 × peak p99,
// 50 ms), since shedding keeps the queue short.
func overloadRow(t *testing.T) func() []gateCheck {
	const (
		clients      = 4
		records      = 1000
		opsPerClient = 500
		pairs        = 5
	)
	f := serveGatedShards(t, 4)
	cc, err := precursor.DialCluster(f.specs, precursor.ClusterConfig{ConnsPerShard: 1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	if err := ycsb.Load(cc, records, 128, 42); err != nil {
		t.Fatal(err)
	}
	return func() []gateCheck {
		var kops [2][]float64
		var p99 [2][]time.Duration
		pass := func(side int) func(int) {
			return func(int) {
				rep, err := ycsb.RunShared(cc, ycsb.RunnerConfig{
					Workload: ycsb.WorkloadB, Records: records, ValueSize: 128,
					Clients: clients * (1 + side), OpsPerClient: opsPerClient, Seed: 42,
				})
				if err != nil {
					t.Fatal(err)
				}
				kops[side] = append(kops[side], rep.Kops)
				p99[side] = append(p99[side], time.Duration(rep.Latency.Quantile(0.99)))
			}
		}
		interleave(pairs, pass(0), pass(1))
		peakKops, overKops := median(kops[0]), median(kops[1])
		peakP99, overP99 := median(p99[0]), median(p99[1])
		p99Bound := max(25*peakP99, 50*time.Millisecond)
		return []gateCheck{
			atLeast("goodput", "%.2f", overKops/peakKops, 0.70,
				fmt.Sprintf("median kops: %d clients %.1f, %d clients %.1f", clients, peakKops, 2*clients, overKops)),
			atMost("admitted_p99", "%.2fms", ms(overP99), ms(p99Bound),
				fmt.Sprintf("median p99 at %d clients %.2fms", clients, ms(peakP99))),
		}
	}
}

// hedgeRow: read-only passes against a 2×2 replicated cluster whose
// client->server writes carry an injected delay tail (4 % of writes, up
// to 80 ms; every replica alike, so a slow read is overwhelmingly likely
// to find the other replica fast), with hedging off and on. Hedging must
// cut read p99 to at most 0.90 of unhedged while adding at most 10 %
// extra reads. Each measurement dials fresh clients, so each starts with
// a full retry budget.
func hedgeRow(t *testing.T) func() []gateCheck {
	const (
		records      = 1000
		clients      = 4
		opsPerClient = 500
	)
	cs, err := precursor.ServeReplicatedCluster(2, 2, precursor.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	// dial returns a fresh client and, when it rides faulty wires, their
	// fabric. A fabric's delay schedule is a function of its seed and the
	// conn label; seed 42 and label "bench-overload" are the schedule all
	// earlier readings of these two bounds were taken under, so readings
	// stay comparable.
	dial := func(hedge, faults bool) (*precursor.ClusterClient, *faultfab.Fabric) {
		cfg := precursor.ClusterConfig{ConnsPerShard: 4, Timeout: 30 * time.Second, HedgeReads: hedge}
		var fab *faultfab.Fabric
		if faults {
			fab = faultfab.New(faultfab.Config{
				Seed: 42,
				C2S: faultfab.ClassMap{faultfab.ClassWrite: faultfab.ClassProbs{
					Delay: 0.04, MaxDelay: 80 * time.Millisecond,
				}},
			})
			cfg.WrapConn = func(c precursor.Conn) precursor.Conn { return fab.Wrap(c, faultfab.C2S, "bench-overload") }
		}
		cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cc.Close() })
		return cc, fab
	}
	loader, _ := dial(false, false)
	if err := ycsb.Load(loader, records, 128, 42); err != nil {
		t.Fatal(err)
	}
	return func() []gateCheck {
		var p99 [2]time.Duration
		var reads [2]uint64
		var st precursor.ClusterStats
		var faults string
		pass := func(side int) func(int) {
			return func(int) {
				cc, fab := dial(side == 1, true)
				rep, err := ycsb.RunShared(cc, ycsb.RunnerConfig{
					Workload: ycsb.WorkloadC, Records: records, ValueSize: 128,
					Clients: clients, OpsPerClient: opsPerClient, Seed: 42,
				})
				if err != nil {
					t.Fatal(err)
				}
				p99[side], reads[side] = time.Duration(rep.Latency.Quantile(0.99)), rep.Ops
				if side == 1 {
					st, faults = cc.Stats(), fab.Summary()
				}
			}
		}
		interleave(1, pass(0), pass(1))
		return []gateCheck{
			atMost("read_p99", "%.2fms", ms(p99[1]), 0.90*ms(p99[0]),
				fmt.Sprintf("unhedged p99 %.2fms", ms(p99[0]))),
			atMost("extra_reads", "%.1f%%", 100*float64(st.HedgesLaunched)/float64(reads[1]), 10,
				fmt.Sprintf("hedges launched %d won %d denied %d over %d reads; wire faults %s",
					st.HedgesLaunched, st.HedgesWon, st.HedgesDenied, reads[1], faults)),
		}
	}
}

// chaosRow: unique-key puts through a fresh fleet of four gated shards
// while the drain toggler of TestOverloadChaosShedRecover runs a fixed
// number of cycles, each opening with its drain. Server arrivals per
// logical put — sheds and their retries included — must stay within
// 1.10: the retry budget keeps shed retries from becoming a storm. The
// cycles must actually shed, or the bound checked nothing. That acked
// puts survive is TestOverloadChaosShedRecover's to check.
func chaosRow(t *testing.T) func() []gateCheck {
	const (
		writers = 4
		cycles  = 8
		cycle   = 150 * time.Millisecond
		span    = 25 * time.Millisecond
	)
	return func() []gateCheck {
		f := serveGatedShards(t, 4)
		cc, err := precursor.DialCluster(f.specs, precursor.ClusterConfig{
			ConnsPerShard: 4,
			// Short enough that a shed-retry sequence gives up inside the
			// run instead of stretching it; sheds resolve in tens of ms.
			Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cc.Close() })
		arrivalsBefore, shedsBefore := f.arrivals(), f.sheds()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.drainCycles(cycle, span, cycles, nil)
		}()
		var puts atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					key := fmt.Sprintf("chaos-w%d-k%d", w, i)
					_ = cc.Put(key, []byte(key)) // a put that stays shed is simply not acked
					puts.Add(1)
				}
			}(w)
		}
		wg.Wait()
		arrivals, sheds := f.arrivals()-arrivalsBefore, f.sheds()-shedsBefore
		detail := fmt.Sprintf("%d cycles: %d logical puts, %d arrivals, %d sheds", cycles, puts.Load(), arrivals, sheds)
		return []gateCheck{
			atMost("amplification", "%.3f", float64(arrivals)/float64(puts.Load()), 1.10, detail),
			atLeast("sheds", "%.0f", float64(sheds), 1, detail),
		}
	}
}
