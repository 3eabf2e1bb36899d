package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"precursor"
)

// phaseResult is everything one set-up → warm-up → windows pass measured.
type phaseResult struct {
	setup time.Duration

	windows   []windowStat
	attempted uint64 // ops issued in the measured windows
	failed    uint64 // of those: refused, errored or mis-verified
	firstFail string

	// Pooled over all windows, sorted ascending, nanoseconds.
	getNs, putNs []uint32

	cpu                time.Duration
	mallocs, allocated uint64
	gcCycles           uint32
	gcPause            time.Duration
	goroutines         int
	liveHeapMiB        float64
	epcMiB             float64
	before, after      counters

	spans    []span
	replayMs float64

	// Kept for the checks that follow the measured phase.
	data   *dataset
	sample []int
}

func (r *phaseResult) verified() uint64 { return r.attempted - r.failed }

// throughput is the median window's verified ops per second.
func (r *phaseResult) throughput() float64 {
	v := make([]float64, len(r.windows))
	for i, w := range r.windows {
		v[i] = w.ThroughputOpsS
	}
	return median(v)
}

func (r *phaseResult) medianWindow(pick func(windowStat) float64, count func(windowStat) int) float64 {
	var v []float64
	for _, w := range r.windows {
		if count(w) > 0 {
			v = append(v, pick(w))
		}
	}
	return median(v)
}

// mark is a worker's progress at a window boundary.
type mark struct {
	gets, puts        int
	attempted, failed uint64
}

// worker is one closed-loop client: it owns the keys k ≡ id (mod clients),
// a generator, and the buffers its operations use.
type worker struct {
	id    int
	spec  workloadSpec
	data  *dataset
	gen   *generator
	kv    store
	batch batcher

	frame int // ops per call: 1, or the batch size
	keys  []int
	bufs  [][]byte
	ops   []precursor.BatchOp

	getNs, putNs      []uint32
	attempted, failed uint64
	firstFail         string
	marks             []mark
	rec               *spanRecorder // nil when untraced
}

func newWorker(id int, spec workloadSpec, data *dataset, seed uint64, d *deployment) *worker {
	w := &worker{id: id, spec: spec, data: data, gen: newGenerator(spec, seed, id),
		kv: d.kv, batch: d.batch, frame: max(1, spec.Batch)}
	w.keys = make([]int, w.frame)
	w.bufs = make([][]byte, w.frame)
	for i := range w.bufs {
		w.bufs[i] = make([]byte, spec.ValueSize)
	}
	w.ops = make([]precursor.BatchOp, w.frame)
	return w
}

// preload stores version 1 of every key this worker owns, through
// single-op Put.
func (w *worker) preload() error {
	buf := w.bufs[0]
	for k := w.id; k < w.spec.Keys; k += w.spec.Clients {
		w.data.fill(buf, k, 1)
		if err := w.kv.Put(w.data.keys[k], buf); err != nil {
			return fmt.Errorf("preload %s: %w", w.data.keys[k], err)
		}
		w.data.versions[k] = 1
	}
	return nil
}

// fail counts n failed ops and keeps the first one's description.
func (w *worker) fail(n int, what string) {
	w.failed += uint64(n)
	if w.firstFail == "" {
		w.firstFail = what
	}
}

// step issues the generator's next call — one op, or one frame of ops —
// checks every value it reads, and returns the call's kind and the
// instants around the client call.
func (w *worker) step() (isGet bool, t0, t1 time.Time) {
	isGet = w.gen.frameKeys(w.keys)
	d := w.data
	w.attempted += uint64(w.frame)
	if w.spec.Batch == 0 {
		k := w.keys[0]
		if isGet {
			t0 = time.Now()
			got, err := w.kv.Get(d.keys[k])
			t1 = time.Now()
			switch {
			case err != nil:
				w.fail(1, fmt.Sprintf("get %s: %v", d.keys[k], err))
			case !d.check(got, k, d.versions[k]):
				w.fail(1, d.mismatch(got, k, d.versions[k]))
			}
			return
		}
		ver := d.versions[k] + 1
		d.fill(w.bufs[0], k, ver)
		t0 = time.Now()
		err := w.kv.Put(d.keys[k], w.bufs[0])
		t1 = time.Now()
		if err != nil {
			w.fail(1, fmt.Sprintf("put %s: %v", d.keys[k], err))
			return
		}
		d.versions[k] = ver
		return
	}

	for i, k := range w.keys {
		if isGet {
			w.ops[i] = precursor.BatchOp{Kind: precursor.BatchGet, Key: d.keys[k]}
			continue
		}
		d.versions[k]++
		d.fill(w.bufs[i], k, d.versions[k])
		w.ops[i] = precursor.BatchOp{Kind: precursor.BatchPut, Key: d.keys[k], Value: w.bufs[i]}
	}
	t0 = time.Now()
	res, err := w.batch.Batch(w.ops)
	t1 = time.Now()
	if err != nil || len(res) != len(w.ops) {
		w.fail(w.frame, fmt.Sprintf("batch of %d: %v", w.frame, err))
		return
	}
	for i, r := range res {
		k := w.keys[i]
		switch {
		case r.Err != nil:
			w.fail(1, fmt.Sprintf("batch op %s: %v", d.keys[k], r.Err))
		case isGet && !d.check(r.Value, k, d.versions[k]):
			w.fail(1, d.mismatch(r.Value, k, d.versions[k]))
		}
	}
	return
}

// barrier lets every worker finish warming up before the measured phase
// starts at one shared instant; the last worker to arrive runs onLast.
type barrier struct {
	n       int32
	arrived atomic.Int32
	release chan struct{}
}

func (b *barrier) wait(onLast func()) {
	if b.arrived.Add(1) == b.n {
		onLast()
		close(b.release)
		return
	}
	<-b.release
}

// phaseClock is shared by a phase's workers.
type phaseClock struct {
	shape   runShape
	warmEnd time.Time
	gate    barrier
	start   time.Time // set by the last worker through the gate
	onStart func()
}

// run is the worker's closed loop: warm up, pass the gate, then issue
// calls until the last window closes. A call belongs to the window it
// completes in.
func (w *worker) run(c *phaseClock) {
	warmOps := 0
	warmStart := time.Now()
	for time.Now().Before(c.warmEnd) {
		w.step()
		warmOps++
	}
	// Size the sample buffers from the warm-up rate so the measured
	// phase records without allocating.
	measured := time.Duration(c.shape.Windows) * c.shape.Window
	rate := float64(warmOps) / max(time.Since(warmStart).Seconds(), 1e-3)
	capacity := int(rate*measured.Seconds()*1.5) + 4096
	w.getNs = make([]uint32, 0, capacity)
	w.putNs = make([]uint32, 0, capacity)
	w.marks = make([]mark, 0, c.shape.Windows+1)
	if w.rec != nil {
		w.rec.spans = make([]span, 0, capacity+c.shape.Windows)
	}
	w.attempted, w.failed = 0, 0
	c.gate.wait(func() {
		c.onStart()
		c.start = time.Now()
	})

	next := c.start.Add(c.shape.Window)
	win := 0
	w.rec.openWindow(win, c.start, c.start)
	for win < c.shape.Windows {
		isGet, t0, t1 := w.step()
		ns := uint32(min(t1.Sub(t0), time.Duration(1<<32-1)))
		if isGet {
			w.getNs = append(w.getNs, ns)
		} else {
			w.putNs = append(w.putNs, ns)
		}
		w.rec.op(isGet, w.spec.Batch > 0, c.start, t0, t1)
		for win < c.shape.Windows && !t1.Before(next) {
			w.marks = append(w.marks, mark{len(w.getNs), len(w.putNs), w.attempted, w.failed})
			w.rec.closeWindow(c.start, next)
			win++
			if win < c.shape.Windows {
				w.rec.openWindow(win, c.start, next)
			}
			next = next.Add(c.shape.Window)
		}
	}
}

// phaseConfig says what one pass over a workload runs.
type phaseConfig struct {
	spec   workloadSpec
	seed   uint64
	shape  runShape
	traced bool
	outDir string
	// afterPreload, when set, may tamper with the expected state once the
	// store is loaded; tests use it to prove a wrong value is caught.
	afterPreload func(*dataset)
}

// runPhase is one complete pass over a workload: set-up (timed), warm-up,
// the measurement windows, and the sample re-read after them. The
// deployment is returned still running so the caller can probe it and run
// the restart check; the caller closes it.
func runPhase(cfg phaseConfig) (*phaseResult, *deployment, error) {
	spec, shape := cfg.spec, cfg.shape
	res := &phaseResult{}
	setupStart := time.Now()
	d, err := deploy(spec, cfg.traced, cfg.outDir)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: %w", err)
	}
	data := newDataset(spec, cfg.seed)
	workers := make([]*worker, spec.Clients)
	for i := range workers {
		workers[i] = newWorker(i, spec, data, cfg.seed, d)
		if cfg.traced {
			workers[i].rec = &spanRecorder{worker: i}
		}
	}
	if err := forEachWorker(workers, (*worker).preload); err != nil {
		d.Close()
		return nil, nil, err
	}
	res.setup = time.Since(setupStart)
	if cfg.afterPreload != nil {
		cfg.afterPreload(data)
	}

	var msBefore runtime.MemStats
	var cpuBefore time.Duration
	clock := &phaseClock{
		shape:   shape,
		warmEnd: time.Now().Add(shape.Warmup),
		gate:    barrier{n: int32(len(workers)), release: make(chan struct{})},
		onStart: func() {
			res.before = d.counters()
			runtime.ReadMemStats(&msBefore)
			cpuBefore = cpuTime()
		},
	}
	_ = forEachWorker(workers, func(w *worker) error { w.run(clock); return nil })

	cpuAfter := cpuTime()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	res.after = d.counters()
	res.goroutines = runtime.NumGoroutine()
	res.cpu = cpuAfter - cpuBefore
	res.mallocs = msAfter.Mallocs - msBefore.Mallocs
	res.allocated = msAfter.TotalAlloc - msBefore.TotalAlloc
	res.gcCycles = msAfter.NumGC - msBefore.NumGC
	res.gcPause = time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs)

	res.collect(workers, clock)
	for _, w := range workers {
		w.getNs, w.putNs = nil, nil
	}
	runtime.GC()
	var msLive runtime.MemStats
	runtime.ReadMemStats(&msLive)
	res.liveHeapMiB = float64(msLive.HeapAlloc) / (1 << 20)
	res.epcMiB = d.epcMiB()

	// Output check after the measured phase: re-read a sample of keys
	// and compare each with the exact bytes the last put wrote.
	res.data, res.sample = data, sampleOf(spec.Keys)
	if err := verifySample(d.kv, data, res.sample); err != nil {
		res.fail(fmt.Sprintf("sample re-read: %v", err))
	}
	return res, d, nil
}

func (r *phaseResult) fail(what string) {
	r.failed++
	if r.firstFail == "" {
		r.firstFail = what
	}
}

// forEachWorker runs fn on every worker concurrently (a single worker
// runs on the caller's goroutine) and returns the joined errors.
func forEachWorker(workers []*worker, fn func(*worker) error) error {
	if len(workers) == 1 {
		return fn(workers[0])
	}
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// collect merges the workers' samples into per-window statistics and the
// pooled distributions.
func (r *phaseResult) collect(workers []*worker, c *phaseClock) {
	r.windows = make([]windowStat, c.shape.Windows)
	prev := make([]mark, len(workers))
	for win := range r.windows {
		var gets, puts []uint32
		var verified uint64
		for i, w := range workers {
			m := w.marks[win]
			gets = append(gets, w.getNs[prev[i].gets:m.gets]...)
			puts = append(puts, w.putNs[prev[i].puts:m.puts]...)
			verified += (m.attempted - prev[i].attempted) - (m.failed - prev[i].failed)
			prev[i] = m
		}
		slices.Sort(gets)
		slices.Sort(puts)
		r.windows[win] = windowStat{
			ThroughputOpsS: float64(verified) / c.shape.Window.Seconds(),
			GetP50Us:       percentile(gets, 0.5) / 1e3,
			PutP50Us:       percentile(puts, 0.5) / 1e3,
			Gets:           len(gets),
			Puts:           len(puts),
		}
		r.getNs = append(r.getNs, gets...)
		r.putNs = append(r.putNs, puts...)
	}
	slices.Sort(r.getNs)
	slices.Sort(r.putNs)
	for _, w := range workers {
		last := w.marks[len(w.marks)-1]
		r.attempted += last.attempted
		r.failed += last.failed
		if r.firstFail == "" {
			r.firstFail = w.firstFail
		}
		if w.rec != nil {
			r.spans = append(r.spans, w.rec.spans...)
		}
	}
}

// sampleOf picks sampleKeys evenly spaced key indices (all of them when
// the data set is smaller).
func sampleOf(keys int) []int {
	n := min(sampleKeys, keys)
	out := make([]int, n)
	for i := range out {
		out[i] = i * keys / n
	}
	return out
}

// verifySample reads each sampled key through kv and compares it with the
// expected bytes; the error names the key and both values.
func verifySample(kv store, data *dataset, sample []int) error {
	for _, k := range sample {
		got, err := kv.Get(data.keys[k])
		if err != nil {
			return fmt.Errorf("get %s: %w", data.keys[k], err)
		}
		if !data.check(got, k, data.versions[k]) {
			return errors.New(data.mismatch(got, k, data.versions[k]))
		}
	}
	return nil
}

// restartCheck is the durability check of the replicated workload (a
// no-op elsewhere); a failed check counts as a failed op. It closes the
// cluster client, so it runs last.
func (r *phaseResult) restartCheck(d *deployment) {
	if d.spec.Deploy != deployReplicated {
		return
	}
	if err := r.restartReplica(d); err != nil {
		r.fail(fmt.Sprintf("replica restart: %v", err))
	}
}

// restartReplica restarts replica 1 on its own data directory with the
// cluster client closed, replays its value log (timed), and verifies the
// sample over a direct connection. With W = 2 every acknowledged put is
// on that replica, so every sampled key must read back exactly.
func (r *phaseResult) restartReplica(d *deployment) error {
	d.closeCluster()
	svc, err := d.service.RestartReplica(0, 1)
	if err != nil {
		return err
	}
	start := time.Now()
	rec, err := svc.Server.ReplayVlog()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	r.replayMs = float64(time.Since(start)) / 1e6
	if rec.Replay.TornSegments > 0 {
		return fmt.Errorf("replay found %d torn segments after a clean shutdown", rec.Replay.TornSegments)
	}
	c, err := d.dialReplica(svc.Addr(), 1)
	if err != nil {
		return fmt.Errorf("dial restarted replica: %w", err)
	}
	defer c.Close()
	return verifySample(c, r.data, r.sample)
}
