// Command benchmark is the closed-loop benchmark of the real Precursor op
// path: client encrypt → seal → ring write → trusted poll → enclave apply →
// reply seal → client verify. One invocation runs one workload, verifies
// every value it reads, and prints every metric by name with its unit; a
// traced invocation (-trace 1) produces the per-layer numbers instead.
// README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// options are the command's settings after flag parsing.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
	// afterPreload is phaseConfig.afterPreload; no flag sets it.
	afterPreload func(*dataset)
}

func (o options) phase(spec workloadSpec, windows int, traced bool) phaseConfig {
	return phaseConfig{spec: spec, seed: o.seed, shape: shapeFor(o, windows), traced: traced,
		outDir: o.outDir, afterPreload: o.afterPreload}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var workload string
	var all, selfcheck bool
	var trace, runs int
	fs.StringVar(&workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.BoolVar(&all, "all", false, "run every workload in turn")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the key, value and op-sequence generator")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase: ten windows of a tenth each")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, span file, layer probes")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny configuration for tests: 1 000 keys, 2 windows of 200 ms")
	fs.StringVar(&o.outDir, "out", defaultOutDir(), "directory for result documents and span files")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run two sets of -runs runs of every workload and compare them against the bounds")
	fs.IntVar(&runs, "runs", 3, "runs per set for -selfcheck")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; -trace takes 0 or 1 and -seconds must be positive")
		return 2
	}
	o.trace = trace == 1
	if selfcheck {
		if err := runSelfcheck(o, runs, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	var specs []workloadSpec
	switch {
	case all:
		specs = workloads
	case workload != "":
		spec, ok := findWorkload(workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		specs = []workloadSpec{spec}
	default:
		fmt.Fprintln(stderr, "benchmark: name a workload with -workload, or pass -all or -selfcheck")
		fs.Usage()
		return 2
	}
	return execute(specs, o, stdout, stderr)
}

// defaultOutDir is benchmark/out from the repository root (where run.sh
// and the driver run the command) and out from inside benchmark/.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// execute runs the workloads in turn, printing each one's report and, as
// the last line, its summary. A run whose outputs fail verification ends
// the command with a non-zero code and no summary line.
func execute(specs []workloadSpec, o options, stdout, stderr io.Writer) int {
	for _, spec := range specs {
		doc, err := runWorkload(spec, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", spec.Name, err)
			return 1
		}
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		doc.printReport(stdout)
		if !doc.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed; first: %s\n", spec.Name, doc.Failed, doc.Attempted, doc.FirstFail)
			return 1
		}
		if err := writeJSONLine(stdout, doc.summary(defs)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// shapeFor turns -seconds into windows: ten for an end-to-end run; a
// traced run spends the same budget on an untraced reference, the traced
// windows and the probes.
func shapeFor(o options, windows int) runShape {
	shape := runShape{Warmup: warmup, Windows: windows,
		Window: time.Duration(o.seconds / measuredWindows * float64(time.Second))}
	if o.trace {
		shape.Window /= 2
		shape.Warmup = warmup * 2 / 3
	}
	if o.smoke {
		shape = runShape{Warmup: 100 * time.Millisecond, Windows: 2, Window: 200 * time.Millisecond}
	}
	return shape
}

// runWorkload runs one workload once, untraced or traced, and writes its
// result document (and span file) under the out directory.
func runWorkload(spec workloadSpec, o options) (*resultDoc, error) {
	if o.smoke {
		spec = spec.smoke()
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	env := captureEnvironment()
	env.CalibBeforeMs = calibrate()
	var doc *resultDoc
	var err error
	if o.trace {
		doc, err = runTraced(spec, o, env)
	} else {
		doc, err = runEndToEnd(spec, o, env)
	}
	if err != nil {
		return nil, err
	}
	doc.Env.CalibAfterMs = calibrate()
	doc.Metrics["harness.calib_cpu_ms"] = metricValue{Value: doc.Env.CalibAfterMs, Unit: "ms"}
	name := "result-" + spec.Name + ".json"
	if o.trace {
		name = "result-" + spec.Name + "-traced.json"
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, name), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return doc, nil
}

func newDoc(spec workloadSpec, o options, shape runShape, env environment, d *deployment) *resultDoc {
	env.DataDirFS, env.DataDirNote = d.dataDirFS, d.dataDirNote
	return &resultDoc{
		Workload: spec.Name, Why: spec.Why, Traced: o.trace, Seed: o.seed,
		Keys: spec.Keys, ValueBytes: spec.ValueSize, Clients: spec.Clients, BatchOps: spec.Batch,
		Windows: shape.Windows, WindowS: shape.Window.Seconds(), WarmupS: shape.Warmup.Seconds(),
		Env: env, Percentiles: map[string]percentileNote{},
	}
}

// fillOutcome copies a phase's failure accounting, windows and percentile
// notes into the document.
func (d *resultDoc) fillOutcome(res *phaseResult) {
	d.Attempted, d.Failed, d.FirstFail = res.attempted, res.failed, res.firstFail
	d.Correct = res.failed == 0 && res.attempted > 0
	d.PerWindow = res.windows
	d.Percentiles["get latency"] = noteOf(res.getNs)
	d.Percentiles["put latency"] = noteOf(res.putNs)
}

func noteOf(sortedNs []uint32) percentileNote {
	n := percentileNote{Samples: len(sortedNs)}
	if p, ok := tailPercentile(len(sortedNs)); ok {
		n.TailPct, n.TailUs = p, percentile(sortedNs, p)/1e3
	}
	return n
}

// runEndToEnd is the untraced run: the gated end-to-end metrics, and the
// ungated time-based figures beside them.
func runEndToEnd(spec workloadSpec, o options, env environment) (*resultDoc, error) {
	cfg := o.phase(spec, measuredWindows, false)
	shape := cfg.shape
	res, d, err := runPhase(cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	res.restartCheck(d)
	doc := newDoc(spec, o, shape, env, d)
	doc.fillOutcome(res)
	m := newMetricSet(endToEnd)
	ops := float64(max(res.verified(), 1))
	m.set("setup_s", res.setup.Seconds())
	m.set("allocs_per_op", float64(res.mallocs)/ops)
	m.set("alloc_bytes_per_op", float64(res.allocated)/ops)
	m.set("live_heap_mib", res.liveHeapMiB)
	m.set("epc_mib", res.epcMiB)
	doc.Metrics = m.values
	h := newMetricSet(perLayer)
	harnessMetrics(h, res)
	for name, v := range h.values {
		doc.Metrics[name] = v
	}
	return doc, nil
}

// harnessMetrics are the time-based figures of an untraced pass: reported
// with every run, never gated, because on a shared host they measure the
// neighbours (and, in the tail, the Go timer) as much as the store.
func harnessMetrics(m *metricSet, res *phaseResult) {
	ops := float64(max(res.verified(), 1))
	m.set("harness.throughput_ops_s", res.throughput())
	m.set("harness.get_p50_us", res.medianWindow(func(w windowStat) float64 { return w.GetP50Us }, func(w windowStat) int { return w.Gets }))
	m.set("harness.put_p50_us", res.medianWindow(func(w windowStat) float64 { return w.PutP50Us }, func(w windowStat) int { return w.Puts }))
	m.set("harness.cpu_us_per_op", float64(res.cpu.Microseconds())/ops)
	m.set("harness.get_p99_us", percentile(res.getNs, 0.99)/1e3)
	m.set("harness.put_p99_us", percentile(res.putNs, 0.99)/1e3)
	tp := make([]float64, len(res.windows))
	for i, w := range res.windows {
		tp[i] = w.ThroughputOpsS
	}
	m.set("harness.window_cv", coefficientOfVariation(tp))
}

// runTraced is the traced invocation: an untraced reference pass, then a
// pass with spans, tracers and the counting conn attached, then the layer
// probes. End-to-end numbers never come from here.
func runTraced(spec workloadSpec, o options, env environment) (*resultDoc, error) {
	ref, refDeploy, err := runPhase(o.phase(spec, traceRefWindows, false))
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	refDeploy.Close()

	cfg := o.phase(spec, traceWindows, true)
	shape := cfg.shape
	res, d, err := runPhase(cfg)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	defer d.Close()
	doc := newDoc(spec, o, shape, env, d)

	budget := probeBudget
	if o.smoke {
		budget = 2 * time.Millisecond
	}
	p, err := newProber(spec, budget)
	if err != nil {
		return nil, err
	}
	scratch := o.outDir
	if d.dataDir != "" {
		scratch = d.dataDir
	}
	m := newMetricSet(perLayer)
	values, err := p.layerProbes(scratch)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if spec.Deploy == deployReplicated {
		if err := p.clusterProbes(d, values); err != nil {
			return nil, fmt.Errorf("cluster probes: %w", err)
		}
	}
	for name, v := range values {
		m.set(name, v)
	}
	res.restartCheck(d)
	doc.fillOutcome(res)
	if ref.failed > 0 {
		doc.Correct = false
		doc.Failed += ref.failed
		if doc.FirstFail == "" {
			doc.FirstFail = "reference pass: " + ref.firstFail
		}
	}

	stageMetrics(m, d, spec)
	counterMetrics(m, res, spec)
	harnessMetrics(m, ref) // end-to-end figures never come from the traced pass
	if spec.Deploy == deployReplicated {
		m.set("vlog.replay_ms", res.replayMs)
	}
	if rt := ref.throughput(); rt > 0 {
		m.set("trace.overhead_pct", (rt-res.throughput())/rt*100)
	}

	// Reconcile: what the probes account for along the op path, and what
	// is left over as waiting.
	root := span{ID: rootSpanID, Name: "run", End: int64(time.Duration(shape.Windows) * shape.Window)}
	probesRoot := span{ID: probesSpanID, Name: "probes"}
	if n := len(p.spans); n > 0 {
		probesRoot.Start, probesRoot.End = p.spans[0].Start, p.spans[n-1].End
	}
	spans := append([]span{root, probesRoot}, res.spans...)
	spans = append(spans, p.spans...)
	readThroughs, _ := m.get("vlog.read_throughs_per_get")
	c := compose(spans, pathFor(spec, readThroughs), derivedProbes(values))
	m.set("path.accounted_us", c.AccountedUs)
	m.set("path.residual_us", c.ResidualUs)
	doc.PathMissing = c.Missing

	m.complete()
	doc.Metrics = m.values
	doc.SpanFile = filepath.Join(o.outDir, "trace-"+spec.Name+".json")
	if err := writeTrace(doc.SpanFile, traceDoc{Workload: spec.Name, Seed: o.seed, Env: doc.Env, Spans: spans}); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	return doc, nil
}

// pathFor picks the calls-per-op table of a workload.
func pathFor(spec workloadSpec, readThroughsPerGet float64) []pathTerm {
	switch {
	case spec.Deploy == deployReplicated:
		return replicatedPath(readThroughsPerGet)
	case spec.Batch > 0:
		return batchPath(float64(spec.Batch))
	}
	return inProcPath
}

// derivedProbes are path terms that are differences of probes rather than
// spans of their own, in nanoseconds under their probe name.
func derivedProbes(values map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for metric, probe := range map[string]string{
		"cluster.put_overhead_us": "probe.cluster.put_overhead",
		"cluster.get_overhead_us": "probe.cluster.get_overhead",
		"pool.put_overhead_us":    "probe.pool.put_overhead",
	} {
		if v, ok := values[metric]; ok {
			out[probe] = v * 1e3
		}
	}
	return out
}
