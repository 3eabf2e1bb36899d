package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, spec := range workloads {
		for client := 0; client < spec.Clients; client++ {
			a := sequenceHash(spec, 1, client, 5000)
			if b := sequenceHash(spec, 1, client, 5000); a != b {
				t.Errorf("%s client %d: same seed gave different sequences", spec.Name, client)
			}
			if b := sequenceHash(spec, 2, client, 5000); a == b {
				t.Errorf("%s client %d: seeds 1 and 2 gave the same sequence", spec.Name, client)
			}
		}
	}
}

func TestGeneratorKeepsToOwnedKeys(t *testing.T) {
	spec, _ := findWorkload("replicated_durable")
	for client := 0; client < spec.Clients; client++ {
		g := newGenerator(spec, 3, client)
		keys := make([]int, 1)
		for i := 0; i < 10000; i++ {
			g.frameKeys(keys)
			if k := keys[0]; k < 0 || k >= spec.Keys || k%spec.Clients != client {
				t.Fatalf("client %d drew key %d, which it does not own", client, k)
			}
		}
	}
}

func TestZipfianIsSkewedAndInRange(t *testing.T) {
	spec, _ := findWorkload("small_read")
	g := newGenerator(spec, 1, 0)
	counts := make(map[int]int)
	keys := make([]int, 1)
	const draws = 200000
	for i := 0; i < draws; i++ {
		g.frameKeys(keys)
		if keys[0] < 0 || keys[0] >= spec.Keys {
			t.Fatalf("key %d out of range", keys[0])
		}
		counts[keys[0]]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// θ = 0.99 over 300 000 keys gives the hottest key about 7% of draws;
	// uniform would give it 0.0003%.
	if share := float64(top) / draws; share < 0.03 || share > 0.15 {
		t.Errorf("hottest key got %.3f of the draws, want about 0.07", share)
	}
}

func TestValuesRoundTripAndDetectCorruption(t *testing.T) {
	spec, _ := findWorkload("large_mixed")
	spec = spec.smoke()
	d := newDataset(spec, 1)
	buf := make([]byte, spec.ValueSize)
	d.fill(buf, 77, 5)
	if !d.check(buf, 77, 5) {
		t.Fatal("a freshly filled value does not check")
	}
	if d.check(buf, 77, 6) || d.check(buf, 78, 5) || d.check(buf[:len(buf)-1], 77, 5) {
		t.Error("check accepted a wrong version, key or length")
	}
	buf[len(buf)-1] ^= 1
	if d.check(buf, 77, 5) {
		t.Error("check accepted a flipped payload byte")
	}
	if msg := d.mismatch(buf, 77, 5); !strings.Contains(msg, d.keys[77]) {
		t.Errorf("mismatch message %q does not name the key", msg)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.01, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 9, 6}); got != 5 {
		t.Errorf("median of four = %v", got)
	}
	// A burst in one window moves that window, not the reported median.
	windows := []float64{100, 101, 99, 100, 30, 100, 102, 98, 100, 101}
	if got := median(windows); got < 99 || got > 101 {
		t.Errorf("window median %v moved with one disturbed window", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},     // 5 beyond the median
		{20, 0.5, true},    // 10 beyond p50, 2 beyond p90
		{100, 0.9, true},   // 10 beyond p90, 1 beyond p99
		{999, 0.9, true},   // 9 beyond p99
		{1000, 0.99, true}, // exactly 10 beyond p99
		{10000, 0.999, true},
		{1000000, 0.99999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of [1 2 4] = %v %v %v", q1, q2, q3)
	}
}

// readTrace parses a span file back.
func readTrace(path string) (traceDoc, error) {
	var doc traceDoc
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	err = json.Unmarshal(b, &doc)
	return doc, err
}

func TestSpanFileRoundTrips(t *testing.T) {
	doc := traceDoc{Workload: "small_read", Seed: 9, Env: captureEnvironment(), Spans: []span{
		{ID: rootSpanID, Name: "run", End: 1000},
		{ID: 7, Parent: rootSpanID, Name: "window.0", Start: 0, End: 1000},
		{ID: 8, Parent: 7, Name: "op.get", Start: 10, End: 30},
		{ID: 9, Parent: probesSpanID, Name: "probe.hashtable.get", Start: 0, End: 640, Calls: 64},
	}}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, doc); err != nil {
		t.Fatal(err)
	}
	back, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Errorf("span file did not round-trip:\n wrote %+v\n read  %+v", doc, back)
	}
}

func TestComposeAccountsAndLeavesResidual(t *testing.T) {
	// Three gets of 10 µs and one put of 20 µs; probes of 100 ns (get
	// path: 2 calls), 400 ns (put path: 1 call) and 1 µs (both: 1 call).
	spans := []span{
		{Name: "op.get", Start: 0, End: 10_000},
		{Name: "op.get", Start: 0, End: 10_000},
		{Name: "op.get", Start: 0, End: 10_000},
		{Name: "op.put", Start: 0, End: 20_000},
		{Name: "probe.a", Start: 0, End: 6400, Calls: 64},
		{Name: "probe.a", Start: 0, End: 6400, Calls: 64},
		{Name: "probe.a", Start: 0, End: 64000, Calls: 64}, // an outlier the median ignores
		{Name: "probe.b", Start: 0, End: 400},
		{Name: "window.0", Start: 0, End: 1_000_000},
	}
	path := []pathTerm{{"probe.a", 2, 0}, {"probe.b", 0, 1}, {"probe.c", 1, 1}, {"probe.absent", 5, 5}}
	c := compose(spans, path, map[string]float64{"probe.c": 1000})
	// get: 2×100 + 1000 = 1200 ns; put: 400 + 1000 = 1400 ns; mix 3:1.
	wantAccounted := (3*1200.0 + 1400) / 4 / 1e3
	wantMean := (3*10_000.0 + 20_000) / 4 / 1e3
	if math.Abs(c.AccountedUs-wantAccounted) > 1e-9 || math.Abs(c.MeanOpUs-wantMean) > 1e-9 {
		t.Errorf("accounted %v mean %v, want %v and %v", c.AccountedUs, c.MeanOpUs, wantAccounted, wantMean)
	}
	if math.Abs(c.ResidualUs-(wantMean-wantAccounted)) > 1e-9 {
		t.Errorf("residual %v, want %v", c.ResidualUs, wantMean-wantAccounted)
	}
	if !reflect.DeepEqual(c.Missing, []string{"probe.absent"}) {
		t.Errorf("missing = %v, want the one absent probe", c.Missing)
	}
	if empty := compose(nil, path, nil); empty.AccountedUs != 0 || empty.ResidualUs != 0 {
		t.Errorf("composition of no spans = %+v", empty)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONAgreesWithTheHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range perLayer {
		got := f.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if seen[d.Name] {
			t.Errorf("metric %s is both end-to-end and per-layer", d.Name)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
}

// smokeRun drives the command as the driver does, in the smoke
// configuration, and returns its exit code, summary line and stderr.
func smokeRun(t *testing.T, o options, workload string) (int, summaryLine, string) {
	t.Helper()
	spec, ok := findWorkload(workload)
	if !ok {
		t.Fatalf("no workload %s", workload)
	}
	o.smoke, o.seed, o.seconds, o.outDir = true, 1, 1, t.TempDir()
	var stdout, stderr bytes.Buffer
	code := execute([]workloadSpec{spec}, o, &stdout, &stderr)
	var line summaryLine
	if code == 0 {
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last stdout line is not the summary: %v\n%s", workload, err, stdout.String())
		}
	}
	return code, line, stderr.String()
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

func emittedNames(line summaryLine) []string {
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEndToEnd drives all four deployments end to end and checks that
// each emits exactly the declared end-to-end metrics, none of them zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, spec := range workloads {
		code, line, stderr := smokeRun(t, options{}, spec.Name)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", spec.Name, code, stderr)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", spec.Name, line.Correct, line.Attempted, line.Failed)
		}
		if got, want := emittedNames(line), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s emitted %v, declared %v", spec.Name, got, want)
		}
		for _, d := range endToEnd {
			if v := line.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %s", spec.Name, d.Name, v.Value, v.Unit, d.Unit)
			}
		}
	}
}

// TestSmokeTraced drives a traced run of one in-process and the replicated
// workload: exactly the declared per-layer metrics come out, the span file
// parses, and the hot path makes no enclave transitions.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"batch_mixed", "replicated_durable"} {
		o := options{trace: true}
		code, line, stderr := smokeRun(t, o, name)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr)
		}
		if got, want := emittedNames(line), metricNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s emitted %v, declared %v", name, got, want)
		}
		if name == "batch_mixed" {
			if v := line.Metrics["sgx.ecalls_per_op"].Value; v != 0 {
				t.Errorf("batch_mixed: %v ecalls per op on the hot path, want 0", v)
			}
			if v := line.Metrics["core.ops_per_batch"].Value; v != 32 {
				t.Errorf("batch_mixed: %v ops per batch, want 32", v)
			}
		} else if v := line.Metrics["cluster.replica_writes_per_put"].Value; v != 2 {
			t.Errorf("replicated_durable: %v replica writes per put, want 2", v)
		}
	}
}

// TestCorruptedExpectationFails proves the verification has teeth: with one
// expected byte flipped after the preload, the run exits non-zero, names a
// key, and prints no summary.
func TestCorruptedExpectationFails(t *testing.T) {
	o := options{afterPreload: func(d *dataset) { d.filler[0] ^= 0xff }}
	code, _, stderr := smokeRun(t, o, "small_read")
	if code == 0 {
		t.Fatal("a corrupted expected value went unnoticed")
	}
	if !strings.Contains(stderr, "user0") || !strings.Contains(stderr, "expected version") {
		t.Errorf("failure message does not name the key and both values: %s", stderr)
	}
}

func TestUnknownWorkloadAndBadFlagsAreRefused(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "small_read", "-trace", "2"},
		{"-workload", "small_read", "-seconds", "0"},
		{},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("refused invocations printed to stdout: %s", out.String())
	}
}
