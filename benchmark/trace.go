package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// the program: a client op, a measurement window, or a batch of layer-probe
// calls. Times are nanoseconds since the phase (or the probes) began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls is how many calls of the named function the span covers
	// (probes time fast functions in batches so the clock reads do not
	// swamp them); 0 means one.
	Calls int `json:"calls,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// perCall is the span's duration per covered call, in nanoseconds.
func (s span) perCall() float64 { return s.dur() / float64(max(1, s.Calls)) }

// Span ids: the run root is 1, the probes root 2; each worker numbers its
// own spans in a separate range so recording needs no shared counter.
const (
	rootSpanID   = 1
	probesSpanID = 2
)

func workerSpanBase(worker int) uint64 { return uint64(worker+1) << 40 }

// spanRecorder collects one worker's spans in memory. A nil recorder
// (an untraced run) ignores every call.
type spanRecorder struct {
	worker int
	spans  []span
	window int // index in spans of the open window span
}

func (r *spanRecorder) nextID() uint64 { return workerSpanBase(r.worker) + uint64(len(r.spans)) + 1 }

func (r *spanRecorder) openWindow(win int, base, at time.Time) {
	if r == nil {
		return
	}
	r.window = len(r.spans)
	r.spans = append(r.spans, span{ID: r.nextID(), Parent: rootSpanID,
		Name: fmt.Sprintf("window.%d", win), Start: int64(at.Sub(base))})
}

func (r *spanRecorder) closeWindow(base, at time.Time) {
	if r == nil {
		return
	}
	r.spans[r.window].End = int64(at.Sub(base))
}

func (r *spanRecorder) op(isGet, batch bool, base, t0, t1 time.Time) {
	if r == nil {
		return
	}
	name := "op.put"
	switch {
	case batch && isGet:
		name = "op.batch.get"
	case batch:
		name = "op.batch.put"
	case isGet:
		name = "op.get"
	}
	r.spans = append(r.spans, span{ID: r.nextID(), Parent: r.spans[r.window].ID,
		Name: name, Start: int64(t0.Sub(base)), End: int64(t1.Sub(base))})
}

// traceDoc is the span file written at exit.
type traceDoc struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Env      environment `json:"environment"`
	Spans    []span      `json:"spans"`
}

// writeTrace streams the span file: one span per line inside the array,
// so a 200 000-span file does not need a second copy in memory.
func writeTrace(path string, doc traceDoc) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	head, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Env      environment `json:"environment"`
	}{doc.Workload, doc.Seed, doc.Env})
	if err != nil {
		return err
	}
	// Reuse the header object's fields and append the spans array.
	fmt.Fprintf(w, "%s,\"spans\":[\n", head[:len(head)-1])
	for i, s := range doc.Spans {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}

// pathTerm says how often one probed function runs on the blocking path
// of a get and of a put (per frame, for the batch workload). The tables
// are derived from reading internal/core and are repeated, with the
// reasoning, in README.md.
type pathTerm struct {
	Probe          string // span name: probe.<layer>.<fn>
	PerGet, PerPut float64
}

// inProcPath is the single-op path over the in-process fabric: the client
// encodes, seals and writes the request into the server's ring; the
// trusted poller picks it up, opens and applies it, seals the reply, and
// the sender writes it into the client's ring, where the client polls,
// opens and verifies it. Each ring returns credits every 8th frame.
var inProcPath = []pathTerm{
	{"probe.wire.request_encode", 1, 1},
	{"probe.cryptox.control_seal", 2, 2},
	{"probe.cryptox.control_open", 2, 2},
	{"probe.wire.request_decode", 1, 1},
	{"probe.wire.response_encode", 1, 1},
	{"probe.wire.response_decode", 1, 1},
	{"probe.ringbuf.write", 2, 2},
	{"probe.ringbuf.poll_hit", 2, 2},
	{"probe.rdma.inproc_write", 0.25, 0.25}, // credit returns; the frame's own write is inside ringbuf.write
	{"probe.sgx.touch", 1, 1},
	{"probe.hashtable.get", 1, 0},
	{"probe.hashtable.swap", 0, 1},
	{"probe.slab.alloc_free", 0, 1},
	{"probe.slab.write_read", 1, 1},
	{"probe.cryptox.opkey_gen", 0, 1},
	{"probe.cryptox.payload_encrypt", 0, 1},
	{"probe.cryptox.payload_decrypt", 1, 0},
}

// batchPath is the same path per 32-op frame: everything per frame
// happens once, everything per op 32 times. The batch codec probe is
// already per op.
func batchPath(n float64) []pathTerm {
	return []pathTerm{
		{"probe.wire.batch_codec", n, n},
		{"probe.cryptox.control_seal", 2, 2},
		{"probe.cryptox.control_open", 2, 2},
		{"probe.ringbuf.write", 2, 2},
		{"probe.ringbuf.poll_hit", 2, 2},
		{"probe.rdma.inproc_write", 0.25, 0.25},
		{"probe.sgx.touch", 1, 1},
		{"probe.hashtable.get", n, 0},
		{"probe.hashtable.swap", 0, n},
		{"probe.slab.alloc_free", 0, n},
		{"probe.slab.write_read", n, n},
		{"probe.cryptox.opkey_gen", 0, n},
		{"probe.cryptox.payload_encrypt", 0, n},
		{"probe.cryptox.payload_decrypt", n, 0},
	}
}

// replicatedPath is the single-op path through the cluster client: the
// codecs and seals as in-process, one TCP round trip in place of the two
// in-memory ring writes, the cluster and pool layers on top, and for a
// put the durable append the slower replica makes before it acks. A get's
// read-through share is added from the measured read-throughs per get.
func replicatedPath(readThroughsPerGet float64) []pathTerm {
	return []pathTerm{
		{"probe.wire.request_encode", 1, 1},
		{"probe.cryptox.control_seal", 2, 2},
		{"probe.cryptox.control_open", 2, 2},
		{"probe.wire.request_decode", 1, 1},
		{"probe.wire.response_encode", 1, 1},
		{"probe.wire.response_decode", 1, 1},
		{"probe.rdma.tcp_write_rtt", 1, 1},
		{"probe.ringbuf.poll_hit", 2, 2},
		{"probe.sgx.touch", 1, 1},
		{"probe.hashtable.get", 1, 0},
		{"probe.hashtable.swap", 0, 1},
		{"probe.slab.alloc_free", 0, 1},
		{"probe.slab.write_read", 1, 1},
		{"probe.cryptox.opkey_gen", 0, 1},
		{"probe.cryptox.payload_encrypt", 0, 1},
		{"probe.cryptox.payload_decrypt", 1, 0},
		{"probe.vlog.append", 0, 1},
		{"probe.vlog.read", readThroughsPerGet, 0},
		{"probe.cluster.put_overhead", 0, 1},
		{"probe.cluster.get_overhead", 1, 0},
		{"probe.pool.put_overhead", 1, 1},
	}
}

// probeMedians reduces probe spans to one number per span name: the
// median per-call time in nanoseconds.
func probeMedians(spans []span) map[string]float64 {
	by := make(map[string][]float64)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "probe.") {
			by[s.Name] = append(by[s.Name], s.perCall())
		}
	}
	out := make(map[string]float64, len(by))
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

// composition is the reconciliation of layer probes with op latency.
type composition struct {
	AccountedUs float64 // Σ calls-per-op × probe time, weighted by the get/put mix
	ResidualUs  float64 // mean op latency − accounted: waiting, wake-ups, scheduling
	MeanOpUs    float64
	Missing     []string // path terms with no probe span (contribute 0)
}

// compose computes accounted and residual time from a trace: the op spans
// give the mean latency and the get/put mix, the probe spans the layer
// costs (derived adds terms that are differences of probes, by probe name,
// in nanoseconds), the path table how often each layer is called per op. Nesting
// cannot give self time from outside the program, so it is composed.
func compose(spans []span, path []pathTerm, derived map[string]float64) composition {
	var getSum, putSum float64
	var gets, puts int
	for _, s := range spans {
		switch s.Name {
		case "op.get", "op.batch.get":
			getSum += s.dur()
			gets++
		case "op.put", "op.batch.put":
			putSum += s.dur()
			puts++
		}
	}
	var c composition
	if gets+puts == 0 {
		return c
	}
	probes := probeMedians(spans)
	for name, ns := range derived {
		probes[name] = ns
	}
	var accGet, accPut float64
	for _, t := range path {
		ns, ok := probes[t.Probe]
		if !ok {
			c.Missing = append(c.Missing, t.Probe)
			continue
		}
		accGet += t.PerGet * ns
		accPut += t.PerPut * ns
	}
	slices.Sort(c.Missing)
	total := float64(gets + puts)
	c.AccountedUs = (accGet*float64(gets) + accPut*float64(puts)) / total / 1e3
	c.MeanOpUs = (getSum + putSum) / total / 1e3
	c.ResidualUs = c.MeanOpUs - c.AccountedUs
	return c
}
