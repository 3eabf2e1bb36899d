package precursor_test

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"precursor"
	"precursor/internal/fleet"
)

// slowWire delays every client->server post on one replica's wire,
// modeling a replica behind a congested link. The delay is read per
// post, so a test can change a link's speed mid-run.
type slowWire struct {
	precursor.Conn
	d *atomic.Int64 // delay in nanoseconds
}

func (c *slowWire) stall() {
	if d := time.Duration(c.d.Load()); d > 0 {
		time.Sleep(d)
	}
}

func (c *slowWire) PostWrite(wrID uint64, rkey uint32, off uint64, data []byte, signaled bool) error {
	c.stall()
	return c.Conn.PostWrite(wrID, rkey, off, data, signaled)
}

func (c *slowWire) PostWriteImm(wrID uint64, rkey uint32, off uint64, data []byte, imm uint32, signaled bool) error {
	c.stall()
	return c.Conn.PostWriteImm(wrID, rkey, off, data, imm, signaled)
}

// hedgeWires returns a WrapConn that sets up a deterministic hedging
// scenario: the first dialed connection starts fast while every other
// connection carries a fixed delay, so after a few warm-up writes the
// first conn's replica has the lowest latency EWMA and is the read
// order's primary. Raising the returned control then stalls exactly
// that primary, which is what forces reads to hedge.
func hedgeWires(others time.Duration) (func(precursor.Conn) precursor.Conn, *atomic.Int64) {
	var seq atomic.Uint64
	primary := &atomic.Int64{}
	fixed := &atomic.Int64{}
	fixed.Store(int64(others))
	wrap := func(c precursor.Conn) precursor.Conn {
		if seq.Add(1) == 1 {
			return &slowWire{Conn: c, d: primary}
		}
		return &slowWire{Conn: c, d: fixed}
	}
	return wrap, primary
}

// TestTraceStitchAcceptance is the trace-correlation acceptance test:
// an R=3 replicated cluster runs a seeded workload with one replica
// behind a slow wire, so reads against the cold primary hedge. The
// fleet collector then scrapes the server-side and client-side metrics
// endpoints — two distinct processes' vantage points — and must stitch
// the hedged read into a SINGLE trace whose spans come from both, with
// the hedge annotated.
func TestTraceStitchAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("trace stitch acceptance test skipped in -short mode")
	}
	srvTr := precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideServer, Ring: 512})
	cs, err := precursor.ServeReplicatedCluster(1, 3, precursor.ServerConfig{
		Workers:      1,
		PollInterval: 50 * time.Microsecond,
		Tracer:       srvTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)

	cliTr := precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideClient, Ring: 512})
	clsTr := precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideClient, Ring: 512})
	wrap, primaryDelay := hedgeWires(10 * time.Millisecond)
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		ConnsPerShard: 1,
		Timeout:       10 * time.Second,
		HedgeReads:    true,
		HedgeMinDelay: time.Millisecond,
		Tracer:        cliTr,
		ClusterTracer: clsTr,
		WrapConn:      wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })

	// Seeded mixed workload: the puts warm the read-preference EWMAs
	// (the yet-fast primary wins the read order), then the primary's
	// wire degrades and reads must hedge to a secondary to answer. The
	// first sample seeds an EWMA outright, so enough puts follow for a
	// cold-start outlier on the primary (a loaded CI host) to decay away.
	for i := 0; i < 24; i++ {
		if err := cc.Put(fmt.Sprintf("stitch%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	earnHedge(t, cc, "stitch00")
	primaryDelay.Store(int64(40 * time.Millisecond))
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("stitch%02d", i)
		if v, err := cc.Get(key); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s = %q, %v", key, v, err)
		}
	}
	if st := cc.Stats(); st.HedgesLaunched == 0 {
		t.Fatalf("no hedge launched against the slow primary: %+v", st)
	}

	// Two metrics endpoints play the two processes of a real
	// deployment: the servers' (one shared tracer across the group) and
	// the client's (per-connection + cluster tracers).
	heatColl := precursor.NewHeatCollector(precursor.HeatConfig{})
	srvMS, err := precursor.ServeMetrics(cs.Groups[0][0].Server, "127.0.0.1:0",
		precursor.WithTracer("server", srvTr),
		precursor.WithHeat("server", heatColl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srvMS.Close() })
	cliMS, err := precursor.ServeClusterMetrics(cc, "127.0.0.1:0",
		precursor.WithTracer("client", cliTr),
		precursor.WithTracer("cluster", clsTr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cliMS.Close() })

	// Debug endpoints declare their payload type explicitly.
	for _, path := range []string{"/debug/traces", "/debug/traces?raw=1", "/debug/heat"} {
		resp, err := http.Get("http://" + srvMS.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if !strings.Contains(ct, "application/json") {
			t.Errorf("%s Content-Type = %q, want application/json", path, ct)
		}
	}

	nodes, err := fleet.CollectTraces(nil, []fleet.Target{
		{Name: "srv", URL: "http://" + srvMS.Addr() + "/metrics"},
		{Name: "cli", URL: "http://" + cliMS.Addr() + "/metrics"},
	})
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(nodes) != 2 {
		t.Fatalf("collected %d nodes, want 2", len(nodes))
	}
	stitched := fleet.Stitch(nodes)
	if len(stitched) == 0 {
		t.Fatal("no stitched traces")
	}

	// The hedged read must surface as ONE stitched trace whose spans
	// come from both processes, carrying the hedge annotation.
	var hedged *fleet.Stitched
	for i := range stitched {
		s := &stitched[i]
		if s.Kind != "get" {
			continue
		}
		byTarget := map[string]bool{}
		hasHedge := false
		for _, sp := range s.Spans {
			byTarget[sp.Target] = true
			for _, f := range sp.Trace.Faults {
				if strings.Contains(f, "hedge launched") {
					hasHedge = true
				}
			}
		}
		if hasHedge && s.Procs >= 2 && byTarget["srv"] && byTarget["cli"] {
			hedged = s
			break
		}
	}
	if hedged == nil {
		t.Fatalf("no stitched hedged get with spans from both processes:\n%s",
			fleet.FormatStitched(stitched, 10))
	}
	dups := 0
	for i := range stitched {
		if stitched[i].ID == hedged.ID {
			dups++
		}
	}
	if dups != 1 {
		t.Fatalf("trace %016x stitched into %d entries, want 1", hedged.ID, dups)
	}

	// The CLI renders this same structure; its formatter must show the
	// hedge and both vantage points.
	out := fleet.FormatStitched([]fleet.Stitched{*hedged}, 1)
	for _, want := range []string{"hedge launched", "srv/server", "cli/cluster"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted trace missing %q:\n%s", want, out)
		}
	}
}

// earnHedge reads key ten times on a healthy wire: a client hedges only
// on tokens its successful reads deposited, one per ten.
func earnHedge(t *testing.T, cc *precursor.ClusterClient, key string) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if _, err := cc.Get(key); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceTailSamplingRetention checks the tail-sampling acceptance
// invariants end to end: with a retain-essential-only policy, every
// injected error op and every slow (delayed-wire) op is retained, fast
// clean traffic is discarded, and the retained set respects the
// TracerConfig.Ring bound.
func TestTraceTailSamplingRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("tail sampling retention test skipped in -short mode")
	}
	const (
		slowDelay = 25 * time.Millisecond
		slowTh    = 10 * time.Millisecond
		ring      = 32
		errOps    = 5
	)
	cs, err := precursor.ServeReplicatedCluster(1, 3, precursor.ServerConfig{
		Workers:      1,
		PollInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)

	mk := func() *precursor.Tracer {
		return precursor.NewTracer(precursor.TracerConfig{
			Side: precursor.SideClient, Ring: ring,
			TailSample:    -1, // retain essential only
			SlowThreshold: slowTh,
			Logger:        slog.New(slog.DiscardHandler), // slow ops are the point; don't spam
		})
	}
	cliTr, clsTr := mk(), mk()
	wrap, primaryDelay := hedgeWires(slowDelay / 2)
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		ConnsPerShard: 1,
		Timeout:       10 * time.Second,
		HedgeReads:    true,
		HedgeMinDelay: time.Millisecond,
		Tracer:        cliTr,
		ClusterTracer: clsTr,
		WrapConn:      wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	if cliTr.RingSize() != ring || clsTr.RingSize() != ring {
		t.Fatalf("TracerConfig.Ring not applied: rings %d/%d, want %d",
			cliTr.RingSize(), clsTr.RingSize(), ring)
	}

	// Mixed workload. The puts warm the EWMAs; then the primary's wire
	// degrades, so the injected error reads and the slow reads both run
	// against a stalled primary and hedge.
	for i := 0; i < 6; i++ {
		if err := cc.Put(fmt.Sprintf("tail%02d", i), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	earnHedge(t, cc, "tail00")
	primaryDelay.Store(int64(slowDelay))
	for i := 0; i < 3; i++ {
		if _, err := cc.Get(fmt.Sprintf("tail%02d", i)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	for i := 0; i < errOps; i++ {
		if _, err := cc.Get(fmt.Sprintf("tail-missing%02d", i)); err == nil {
			t.Fatalf("get of missing key %d unexpectedly succeeded", i)
		}
	}
	if cc.Stats().HedgesLaunched == 0 {
		t.Fatal("no hedge launched; slow-op injection did not take")
	}
	// With the primary's wire healthy again, reads are fast, clean and
	// unremarkable — exactly the traffic the tail sampler must discard.
	primaryDelay.Store(0)
	for i := 0; i < 16; i++ {
		if _, err := cc.Get(fmt.Sprintf("tail%02d", i%6)); err != nil {
			t.Fatalf("warm get %d: %v", i, err)
		}
	}

	essential := func(tr precursor.Trace) bool {
		return tr.Err != "" || tr.Unconfirmed || len(tr.Faults) > 0 || tr.Dur() >= slowTh
	}
	// Cluster-level: 100% of injected error ops retained, nothing
	// unremarkable retained, sampling actually discarded traffic, and
	// the ring bound holds.
	recent := clsTr.Recent()
	if len(recent) > clsTr.RingSize() {
		t.Fatalf("retained %d cluster traces, ring bound %d", len(recent), clsTr.RingSize())
	}
	gotErrs, gotHedge := 0, false
	for _, tr := range recent {
		if !essential(tr) {
			t.Fatalf("unremarkable trace retained under tail sampling: %+v", tr)
		}
		if tr.Kind == "get" && strings.Contains(tr.Err, "not found") {
			gotErrs++
		}
		for _, f := range tr.Faults {
			if strings.Contains(f, "hedge launched") {
				gotHedge = true
			}
		}
	}
	if gotErrs != errOps {
		t.Fatalf("retained %d error traces, want all %d injected", gotErrs, errOps)
	}
	if !gotHedge {
		t.Fatal("no retained trace carries the hedge fault annotation")
	}
	if clsTr.Discarded() == 0 {
		t.Fatal("tail sampling discarded nothing — fast clean ops should be dropped")
	}

	// Connection-level: the slow wire's ops cross the threshold and are
	// retained; everything retained is essential.
	slowSeen := false
	for _, tr := range cliTr.Recent() {
		if !essential(tr) {
			t.Fatalf("unremarkable connection trace retained: %+v", tr)
		}
		if tr.Dur() >= slowTh {
			slowSeen = true
		}
	}
	if !slowSeen {
		t.Fatal("no slow connection-level op retained")
	}
	if got := len(cliTr.Recent()); got > cliTr.RingSize() {
		t.Fatalf("retained %d connection traces, ring bound %d", got, cliTr.RingSize())
	}
}
