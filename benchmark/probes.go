package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"precursor"
	"precursor/internal/core"
	"precursor/internal/cryptox"
	"precursor/internal/hashtable"
	"precursor/internal/rdma"
	"precursor/internal/ringbuf"
	"precursor/internal/slab"
	"precursor/internal/vlog"
	"precursor/internal/wire"
)

// prober runs the layer probes: single-goroutine loops over each layer's
// public functions at the workload's key, control, frame and value sizes.
// Every timed batch of calls is a span probe.<layer>.<fn> under the probes
// root; a layer metric is the median per-call time over its spans.
type prober struct {
	spec   workloadSpec
	base   time.Time
	budget time.Duration // wall time per probed function
	spans  []span
	shapes frameShapes

	errMu sync.Mutex
	err   error // first failure of a probed call
}

// note keeps the first error a probed call returned; probes run on, and
// the step that owns the call reports it. Safe from several goroutines.
func (p *prober) note(e error) {
	if e == nil {
		return
	}
	p.errMu.Lock()
	if p.err == nil {
		p.err = e
	}
	p.errMu.Unlock()
}

const (
	probeBudget     = 60 * time.Millisecond
	probeMinBatches = 15
	probeMaxBatches = 4000
)

func newProber(spec workloadSpec, budget time.Duration) (*prober, error) {
	shapes, err := shapesOf(spec)
	if err != nil {
		return nil, err
	}
	return &prober{spec: spec, base: time.Now(), budget: budget, shapes: shapes}, nil
}

// timed records one span around fn, which makes calls calls.
func (p *prober) timed(name string, calls int, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	p.spans = append(p.spans, span{ID: probesSpanID<<40 + uint64(len(p.spans)) + 1, Parent: probesSpanID,
		Name: "probe." + name, Start: int64(t0.Sub(p.base)), End: int64(t1.Sub(p.base)), Calls: calls})
}

// repeat runs round — which records one span per probed function — until
// the time budget is spent, within the batch-count limits.
func (p *prober) repeat(round func()) {
	start := time.Now()
	for n := 0; n < probeMaxBatches && (n < probeMinBatches || time.Since(start) < p.budget); n++ {
		round()
	}
}

// ns is the median per-call nanoseconds of a probe's spans so far.
func (p *prober) ns(name string) float64 {
	var v []float64
	for _, s := range p.spans {
		if s.Name == "probe."+name {
			v = append(v, s.perCall())
		}
	}
	return median(v)
}

// frameShapes are the byte shapes one workload puts on the wire, built
// with the real codecs and ciphers so sizes are the program's own.
type frameShapes struct {
	key        []byte
	value      []byte
	opKey      cryptox.OperationKey
	payload    []byte // nonce ‖ ciphertext of value
	mac        []byte
	stored     int    // bytes the server keeps per value: payload + MAC
	controlPt  []byte // control plaintext at the workload's control size
	ad         []byte
	aead       *cryptox.AEAD
	sealedCtl  []byte
	frame      []byte // the value-carrying request frame (a put; a 32-put frame when batching)
	getFrame   []byte
	putResp    []byte
	getResp    []byte
	frameBytes float64 // request + response bytes per op, weighted by the mix
	batchCtl   wire.BatchControl
	batchReq   wire.BatchRequest
	batchReply wire.BatchReply
}

func shapesOf(spec workloadSpec) (frameShapes, error) {
	var s frameShapes
	s.key = []byte(keyName(0))
	s.value = make([]byte, spec.ValueSize)
	var err error
	if s.opKey, err = cryptox.NewOperationKey(); err != nil {
		return s, err
	}
	if s.payload, s.mac, err = cryptox.EncryptPayload(s.opKey, s.value); err != nil {
		return s, err
	}
	s.stored = len(s.payload) + len(s.mac)
	session, err := cryptox.RandomBytes(cryptox.SessionKeySize)
	if err != nil {
		return s, err
	}
	if s.aead, err = cryptox.NewAEAD(session); err != nil {
		return s, err
	}
	s.ad = []byte{1, 0, 0, 0}
	seal := func(pt []byte) []byte {
		out, serr := s.aead.Seal(pt, s.ad)
		if serr != nil && err == nil {
			err = serr
		}
		return out
	}
	encode := func(b []byte, e error) []byte {
		if e != nil && err == nil {
			err = e
		}
		return b
	}

	putCtl := wire.RequestControl{Op: wire.OpPut, Oid: 1, Key: s.key, OpKey: s.opKey[:]}
	getCtl := wire.RequestControl{Op: wire.OpGet, Oid: 1, Key: s.key}
	putPt := encode(putCtl.Encode())
	putReq := wire.Request{Op: wire.OpPut, ClientID: 1, SealedControl: seal(putPt), Payload: s.payload, PayloadMAC: s.mac}
	getReq := wire.Request{Op: wire.OpGet, ClientID: 1, SealedControl: seal(encode(getCtl.Encode()))}
	putFrame := encode(putReq.Encode(nil))
	s.getFrame = encode(getReq.Encode(nil))
	putRC := wire.ResponseControl{Oid: 1}
	getRC := wire.ResponseControl{Oid: 1, OpKey: s.opKey[:]}
	s.putResp = encode((&wire.Response{SealedControl: seal(encode(putRC.Encode()))}).Encode(nil))
	s.getResp = encode((&wire.Response{SealedControl: seal(encode(getRC.Encode())),
		Payload: append(slices.Clone(s.payload), s.mac...)}).Encode(nil))

	read := float64(spec.ReadPct) / 100
	if spec.Batch == 0 {
		s.controlPt, s.frame = putPt, putFrame
		s.sealedCtl = putReq.SealedControl
		s.frameBytes = read*float64(len(s.getFrame)+len(s.getResp)) + (1-read)*float64(len(putFrame)+len(s.putResp))
		return s, err
	}

	// A frame of Batch puts for the request side, Batch get results for
	// the reply side: the larger of each direction.
	var reqPayload, replyPayload []byte
	for i := 0; i < spec.Batch; i++ {
		s.batchCtl.Ops = append(s.batchCtl.Ops, wire.BatchOp{Op: wire.OpPut, Key: s.key,
			OpKey: s.opKey[:], PayloadLen: uint32(s.stored)})
		reqPayload = append(append(reqPayload, s.payload...), s.mac...)
		s.batchReply.Results = append(s.batchReply.Results, wire.BatchOpResult{
			OpKey: s.opKey[:], PayloadLen: uint32(s.stored)})
		replyPayload = append(append(replyPayload, s.payload...), s.mac...)
	}
	s.batchCtl.Oid, s.batchReply.Oid = 1, 1
	s.controlPt = encode(wire.AppendBatchControl(nil, &s.batchCtl))
	s.sealedCtl = seal(s.controlPt)
	s.batchReq = wire.BatchRequest{ClientID: 1, Count: spec.Batch, SealedControl: s.sealedCtl, Payload: reqPayload}
	s.frame = encode(s.batchReq.AppendTo(nil))
	replyCtl := seal(encode(wire.AppendBatchReply(nil, &s.batchReply)))
	replyFrame := encode((&wire.Response{SealedControl: replyCtl, Payload: replyPayload}).Encode(nil))
	// A get frame carries no payload out and a full one back; a put frame
	// the reverse, with a reply of bare statuses (approximated by the
	// control alone).
	getOut := float64(len(s.frame) - len(reqPayload))
	putBack := float64(len(replyFrame) - len(replyPayload))
	s.frameBytes = (read*(getOut+float64(len(replyFrame))) + (1-read)*(float64(len(s.frame))+putBack)) / float64(spec.Batch)
	return s, err
}

// layerProbes runs every probe that needs no live deployment and returns
// the per-layer values they give.
func (p *prober) layerProbes(scratchDir string) (map[string]float64, error) {
	m := make(map[string]float64)
	steps := []func(map[string]float64) error{p.probeCryptox, p.probeWire, p.probeRingAndRDMA, p.probeTCP, p.probeSGX, p.probeHashtable, p.probeSlab}
	if p.spec.Deploy == deployReplicated {
		steps = append(steps, func(m map[string]float64) error { return p.probeVlog(m, scratchDir) })
	}
	for _, step := range steps {
		if err := step(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (p *prober) probeCryptox(m map[string]float64) error {
	s := &p.shapes
	sealed := make([]byte, 0, len(s.controlPt)+cryptox.SealOverhead)
	opened := make([]byte, 0, len(s.controlPt))
	const n = 32
	p.repeat(func() {
		p.timed("cryptox.control_seal", n, func() {
			for i := 0; i < n; i++ {
				var e error
				sealed, e = s.aead.SealAppend(sealed[:0], s.controlPt, s.ad)
				p.note(e)
			}
		})
		p.timed("cryptox.control_open", n, func() {
			for i := 0; i < n; i++ {
				var e error
				opened, e = s.aead.OpenAppend(opened[:0], sealed, s.ad)
				p.note(e)
			}
		})
	})
	p.repeat(func() {
		p.timed("cryptox.opkey_gen", n, func() {
			for i := 0; i < n; i++ {
				_, e := cryptox.NewOperationKey()
				p.note(e)
			}
		})
	})
	// Fewer calls per span for large values keeps a span near 100 µs.
	calls := max(1, min(n, 16384/max(1, p.spec.ValueSize)))
	payload, mac := s.payload, s.mac
	p.repeat(func() {
		p.timed("cryptox.payload_encrypt", calls, func() {
			for i := 0; i < calls; i++ {
				var e error
				payload, mac, e = cryptox.EncryptPayload(s.opKey, s.value)
				p.note(e)
			}
		})
		p.timed("cryptox.payload_decrypt", calls, func() {
			for i := 0; i < calls; i++ {
				_, e := cryptox.DecryptPayload(s.opKey, payload, mac)
				p.note(e)
			}
		})
	})
	const pairs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pl, mc, e := cryptox.EncryptPayload(s.opKey, s.value)
		p.note(e)
		_, e = cryptox.DecryptPayload(s.opKey, pl, mc)
		p.note(e)
	}
	runtime.ReadMemStats(&after)

	m["cryptox.control_seal_ns"] = p.ns("cryptox.control_seal")
	m["cryptox.control_open_ns"] = p.ns("cryptox.control_open")
	m["cryptox.opkey_gen_ns"] = p.ns("cryptox.opkey_gen")
	m["cryptox.payload_encrypt_ns"] = p.ns("cryptox.payload_encrypt")
	m["cryptox.payload_decrypt_ns"] = p.ns("cryptox.payload_decrypt")
	if enc := m["cryptox.payload_encrypt_ns"]; enc > 0 {
		m["cryptox.payload_mb_s"] = float64(p.spec.ValueSize) / enc * 1e3
	}
	m["cryptox.allocs_per_call"] = float64(after.Mallocs-before.Mallocs) / pairs
	return p.err
}

func (p *prober) probeWire(m map[string]float64) error {
	s := &p.shapes
	m["wire.frame_bytes_per_op"] = s.frameBytes
	const n = 32
	if p.spec.Batch > 0 {
		var ctlBuf, reqBuf, repBuf []byte
		var ctl wire.BatchControl
		var req wire.BatchRequest
		var rep wire.BatchReply
		p.repeat(func() {
			p.timed("wire.batch_codec", p.spec.Batch, func() {
				var e error
				ctlBuf, e = wire.AppendBatchControl(ctlBuf[:0], &s.batchCtl)
				p.note(e)
				reqBuf, e = s.batchReq.AppendTo(reqBuf[:0])
				p.note(e)
				p.note(wire.DecodeBatchRequest(reqBuf, &req))
				p.note(wire.DecodeBatchControl(ctlBuf, &ctl))
				repBuf, e = wire.AppendBatchReply(repBuf[:0], &s.batchReply)
				p.note(e)
				p.note(wire.DecodeBatchReply(repBuf, &rep))
			})
		})
		m["wire.batch_codec_ns_per_op"] = p.ns("wire.batch_codec")
		return p.err
	}
	putCtl := wire.RequestControl{Op: wire.OpPut, Oid: 1, Key: s.key, OpKey: s.opKey[:]}
	putReq := wire.Request{Op: wire.OpPut, ClientID: 1, SealedControl: s.sealedCtl, Payload: s.payload, PayloadMAC: s.mac}
	getRC := wire.ResponseControl{Oid: 1, OpKey: s.opKey[:]}
	rcPt, e := getRC.Encode()
	p.note(e)
	getResp := wire.Response{SealedControl: s.sealedCtl, Payload: append(slices.Clone(s.payload), s.mac...)}
	var frame, respFrame []byte
	p.repeat(func() {
		p.timed("wire.request_encode", n, func() {
			for i := 0; i < n; i++ {
				_, e := putCtl.Encode()
				p.note(e)
				frame, e = putReq.Encode(frame[:0])
				p.note(e)
			}
		})
		p.timed("wire.request_decode", n, func() {
			for i := 0; i < n; i++ {
				_, e := wire.DecodeRequest(frame)
				p.note(e)
				_, e = wire.DecodeRequestControl(s.controlPt)
				p.note(e)
			}
		})
		p.timed("wire.response_encode", n, func() {
			for i := 0; i < n; i++ {
				_, e := getRC.Encode()
				p.note(e)
				respFrame, e = getResp.Encode(respFrame[:0])
				p.note(e)
			}
		})
		p.timed("wire.response_decode", n, func() {
			for i := 0; i < n; i++ {
				_, e := wire.DecodeResponse(respFrame)
				p.note(e)
				_, e = wire.DecodeResponseControl(rcPt)
				p.note(e)
			}
		})
	})
	m["wire.request_encode_ns"] = p.ns("wire.request_encode")
	m["wire.request_decode_ns"] = p.ns("wire.request_decode")
	m["wire.response_encode_ns"] = p.ns("wire.response_encode")
	m["wire.response_decode_ns"] = p.ns("wire.response_decode")
	return p.err
}

// probeRingAndRDMA times the ring and the in-process verb it rides on, on
// a loopback pair with the server's default ring geometry.
func (p *prober) probeRingAndRDMA(m map[string]float64) error {
	fabric := rdma.NewFabric()
	a, err := fabric.NewDevice("probe-writer")
	if err != nil {
		return err
	}
	b, err := fabric.NewDevice("probe-reader")
	if err != nil {
		return err
	}
	qa, qb := fabric.ConnectRC(a, b)
	defer qa.Close()
	defer qb.Close()
	slots, slotSize := core.DefaultRingSlots, core.DefaultSlotSize
	ring := b.RegisterMemory(ringbuf.RingBytes(slots, slotSize), rdma.PermRemoteWrite)
	credit := a.RegisterMemory(ringbuf.CreditBytes, rdma.PermRemoteWrite)
	w, err := ringbuf.NewWriter(ringbuf.WriterConfig{Conn: qa, RingRKey: ring.RKey(), Slots: slots, SlotSize: slotSize, Credit: credit})
	if err != nil {
		return err
	}
	r, err := ringbuf.NewReader(ringbuf.ReaderConfig{Ring: ring, Slots: slots, SlotSize: slotSize, Conn: qb, CreditRKey: credit.RKey()})
	if err != nil {
		return err
	}
	frame := p.shapes.frame
	if len(frame) > w.MaxMessage() {
		return fmt.Errorf("probe frame of %d bytes exceeds the ring slot", len(frame))
	}
	buf := make([]byte, 0, slotSize)
	n := slots / 2
	p.repeat(func() {
		p.timed("ringbuf.write", n, func() {
			for i := 0; i < n; i++ {
				ok, e := w.TryWrite(frame)
				p.note(e)
				if !ok && e == nil {
					p.note(fmt.Errorf("probe ring ran out of credit"))
				}
			}
		})
		p.timed("ringbuf.poll_hit", n, func() {
			for i := 0; i < n; i++ {
				msg, ready, e := r.PollInto(buf)
				p.note(e)
				if !ready && e == nil {
					p.note(fmt.Errorf("probe ring lost a frame"))
				}
				buf = msg[:0]
			}
		})
		p.timed("ringbuf.poll_empty", 64, func() {
			for i := 0; i < 64; i++ {
				_, _, e := r.PollInto(buf)
				p.note(e)
			}
		})
	})
	scratch := b.RegisterMemory(slotSize, rdma.PermRemoteWrite)
	p.repeat(func() {
		p.timed("rdma.inproc_write", 32, func() {
			for i := 0; i < 32; i++ {
				p.note(qa.PostWrite(uint64(i), scratch.RKey(), 0, frame, false))
			}
		})
	})
	m["ringbuf.write_ns"] = p.ns("ringbuf.write")
	m["ringbuf.poll_hit_ns"] = p.ns("ringbuf.poll_hit")
	m["ringbuf.poll_empty_ns"] = p.ns("ringbuf.poll_empty")
	m["rdma.inproc_write_ns"] = p.ns("rdma.inproc_write")
	return p.err
}

// probeTCP times a signaled one-sided write to its completion over the
// TCP fabric on loopback: the round trip every replicated op pays.
func (p *prober) probeTCP(m map[string]float64) error {
	sdev := rdma.NewDevice("probe-tcp-server")
	ln, err := rdma.ListenTCP(sdev, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan *rdma.TCPQP, 1)
	go func() {
		qp, aerr := ln.Accept()
		if aerr != nil {
			qp = nil
		}
		accepted <- qp
	}()
	q, err := rdma.DialTCP(rdma.NewDevice("probe-tcp-client"), ln.Addr())
	if err != nil {
		return err
	}
	defer q.Close()
	peer := <-accepted
	if peer == nil {
		return fmt.Errorf("tcp probe: accept failed")
	}
	defer peer.Close()
	target := sdev.RegisterMemory(core.DefaultSlotSize, rdma.PermRemoteWrite)
	frame := p.shapes.frame
	deadline := time.Now().Add(10 * time.Second)
	var wrID uint64
	p.repeat(func() {
		p.timed("rdma.tcp_write_rtt", 1, func() {
			wrID++
			if err != nil {
				return
			}
			if err = q.PostWrite(wrID, target.RKey(), 0, frame, true); err != nil {
				return
			}
			for {
				if cs := q.PollSend(1); len(cs) > 0 {
					if cs[0].Status != rdma.StatusOK {
						err = fmt.Errorf("tcp probe write: %v", cs[0].Err)
					}
					return
				}
				if time.Now().After(deadline) {
					err = fmt.Errorf("tcp probe: no completion")
					return
				}
				// The wait the client's own poll loops use: sleeping lets
				// the runtime park in the netpoller, where the ack arrives.
				time.Sleep(2 * time.Microsecond)
			}
		})
	})
	m["rdma.tcp_write_rtt_us"] = p.ns("rdma.tcp_write_rtt") / 1e3
	return err
}

func (p *prober) probeSGX(m map[string]float64) error {
	platform, err := precursor.NewPlatform()
	if err != nil {
		return err
	}
	enclave := platform.CreateEnclave([]byte("precursor-benchmark-probe"), core.DefaultImagePages)
	defer enclave.Destroy()
	region, err := enclave.Alloc(4096)
	if err != nil {
		return err
	}
	touch := len(p.shapes.frame)%4096 + 1 // what the trusted poller touches per frame
	const n = 64
	p.repeat(func() {
		p.timed("sgx.ecall", n, func() {
			for i := 0; i < n; i++ {
				p.note(enclave.Ecall("probe", func() error { return nil }))
			}
		})
		p.timed("sgx.touch", n, func() {
			for i := 0; i < n; i++ {
				region.Touch(0, touch)
			}
		})
	})
	m["sgx.ecall_ns"] = p.ns("sgx.ecall")
	m["sgx.touch_ns"] = p.ns("sgx.touch")
	return p.err
}

// probeEntry stands in for the server's per-key enclave entry.
type probeEntry struct {
	opKey [32]byte
	ref   uint64
}

func (p *prober) probeHashtable(m map[string]float64) error {
	t := hashtable.New[*probeEntry](nil, core.DefaultEntryBytes)
	keys := make([]string, p.spec.Keys)
	for i := range keys {
		keys[i] = keyName(i)
		t.Put(keys[i], &probeEntry{ref: uint64(i)})
	}
	// Walk the keys with a large odd stride so successive lookups do not
	// share cache lines the way insertion order would.
	stride := len(keys)/2 + 1
	for gcd(stride, len(keys)) != 1 {
		stride++
	}
	at := 0
	next := func() string {
		at = (at + stride) % len(keys)
		return keys[at]
	}
	var missing atomic.Bool
	const n = 64
	fresh := &probeEntry{}
	p.repeat(func() {
		p.timed("hashtable.get", n, func() {
			for i := 0; i < n; i++ {
				if _, ok := t.Get(next()); !ok {
					missing.Store(true)
				}
			}
		})
		p.timed("hashtable.swap", n, func() {
			for i := 0; i < n; i++ {
				if _, ok := t.Swap(next(), fresh); !ok {
					missing.Store(true)
				}
			}
		})
	})
	// The same gets with a second goroutine reading the table: the
	// difference to get_ns is lock wait and cache traffic.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i = (i + stride + 2) % len(keys)
			if _, ok := t.Get(keys[i]); !ok {
				missing.Store(true)
			}
		}
	}()
	p.repeat(func() {
		p.timed("hashtable.get_parallel2", n, func() {
			for i := 0; i < n; i++ {
				if _, ok := t.Get(next()); !ok {
					missing.Store(true)
				}
			}
		})
	})
	close(stop)
	wg.Wait()
	m["hashtable.get_ns"] = p.ns("hashtable.get")
	m["hashtable.swap_ns"] = p.ns("hashtable.swap")
	m["hashtable.get_parallel2_ns"] = p.ns("hashtable.get_parallel2")
	m["hashtable.buckets_per_entry"] = float64(t.Buckets()) / float64(t.Len())
	if missing.Load() {
		return fmt.Errorf("hashtable probe: a stored key was not found")
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (p *prober) probeSlab(m map[string]float64) error {
	pool := slab.New()
	stored := p.shapes.stored
	data := make([]byte, stored)
	held, err := pool.Alloc(stored)
	if err != nil {
		return err
	}
	const n = 64
	p.repeat(func() {
		p.timed("slab.alloc_free", n, func() {
			for i := 0; i < n; i++ {
				ref, e := pool.Alloc(stored)
				p.note(e)
				pool.Free(ref)
			}
		})
		p.timed("slab.write_read", n, func() {
			for i := 0; i < n; i++ {
				p.note(pool.Write(held, data))
				_, e := pool.Read(held)
				p.note(e)
			}
		})
	})
	m["slab.alloc_free_ns"] = p.ns("slab.alloc_free")
	m["slab.write_read_ns"] = p.ns("slab.write_read")
	return p.err
}

// probeVlog times the log's durable append, alone and with a second
// appender (group commit), and a point read, in a scratch directory on
// the same filesystem as the workload's data.
func (p *prober) probeVlog(m map[string]float64, scratchDir string) error {
	dir, err := os.MkdirTemp(scratchDir, "probe-vlog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := vlog.Open(vlog.Config{Dir: filepath.Join(dir, "vlog")})
	if err != nil {
		return err
	}
	defer log.Close()
	s := &p.shapes
	payload := append(slices.Clone(s.payload), s.mac...)
	meta := make([]byte, 96) // about what the enclave seals per record
	appendOnce := func() (vlog.Ptr, error) {
		ptr, _, e := log.Append(s.key, payload, false, len(meta), func(vlog.Ptr, uint64) ([]byte, error) { return meta, nil })
		return ptr, e
	}
	var last vlog.Ptr
	p.repeat(func() {
		p.timed("vlog.append", 1, func() {
			ptr, e := appendOnce()
			p.note(e)
			last = ptr
		})
		p.timed("vlog.read", 1, func() {
			_, e := log.ReadAt(last)
			p.note(e)
		})
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, e := appendOnce()
			p.note(e)
		}
	}()
	p.repeat(func() {
		p.timed("vlog.append_parallel2", 1, func() {
			_, e := appendOnce()
			p.note(e)
		})
	})
	close(stop)
	wg.Wait()
	m["vlog.append_us"] = p.ns("vlog.append") / 1e3
	m["vlog.read_us"] = p.ns("vlog.read") / 1e3
	m["vlog.append_parallel2_us"] = p.ns("vlog.append_parallel2") / 1e3
	return p.err
}

// clusterProbes measures what the cluster client and the pool add on top
// of a direct connection, on the live replicated deployment: p50 of the
// layered call minus p50 of the direct call, on probe keys outside the
// workload's key space. The variants take turns call by call, so the
// pollers' idle back-off — which a lone sequential caller keeps tripping,
// and which costs more than any layer — weighs on all of them alike.
func (p *prober) clusterProbes(d *deployment, m map[string]float64) error {
	const calls = 200
	value := make([]byte, p.spec.ValueSize)
	key := func(i int) string { return fmt.Sprintf("probe%06d", i%64) }
	for i := 0; i < 64; i++ {
		if err := d.cluster.Put(key(i), value); err != nil {
			return fmt.Errorf("cluster probe preload: %w", err)
		}
	}
	type target struct {
		name string
		kv   store
	}
	targets := []target{{"cluster", d.cluster}}
	for r, spec := range d.specs[0] {
		c, err := d.dialReplica(spec.Addr, r)
		if err != nil {
			return fmt.Errorf("cluster probe dial: %w", err)
		}
		defer c.Close()
		targets = append(targets, target{fmt.Sprintf("direct_r%d", r), c})
	}
	// The pool owns (and closes) its own connection to the last replica,
	// the one direct_r1 also talks to.
	last := len(d.specs[0]) - 1
	pc, err := d.dialReplica(d.specs[0][last].Addr, last)
	if err != nil {
		return fmt.Errorf("pool probe dial: %w", err)
	}
	pool, err := precursor.NewPoolFromClients([]*precursor.Client{pc})
	if err != nil {
		_ = pc.Close()
		return err
	}
	defer pool.Close()
	targets = append(targets, target{"pool", pool})

	for _, op := range []string{"put", "get"} {
		for i := 0; i < calls; i++ {
			for _, t := range targets {
				name := t.name + "." + op
				p.timed(name, 1, func() {
					var e error
					if op == "put" {
						e = t.kv.Put(key(i), value)
					} else {
						_, e = t.kv.Get(key(i))
					}
					if e != nil {
						p.note(fmt.Errorf("%s: %w", name, e))
					}
				})
			}
		}
	}
	m["cluster.put_overhead_us"] = (p.ns("cluster.put") - max(p.ns("direct_r0.put"), p.ns("direct_r1.put"))) / 1e3
	m["cluster.get_overhead_us"] = (p.ns("cluster.get") - max(p.ns("direct_r0.get"), p.ns("direct_r1.get"))) / 1e3
	m["pool.put_overhead_us"] = (p.ns("pool.put") - p.ns("direct_r1.put")) / 1e3
	return p.err
}
