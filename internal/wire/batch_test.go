package wire

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// sampleBatchControl builds a mixed batch: an inline put, an external
// put, a get and a delete.
func sampleBatchControl() *BatchControl {
	opKey := make([]byte, OpKeySize)
	for i := range opKey {
		opKey[i] = byte(i)
	}
	return &BatchControl{
		Oid: 42,
		Ops: []BatchOp{
			{Op: OpPut, Flags: FlagInlineValue, Key: []byte("inline-key"), InlineValue: []byte("small")},
			{Op: OpPut, Key: []byte("ext-key"), OpKey: opKey, PayloadLen: 64 + MACSize},
			{Op: OpGet, Key: []byte("get-key")},
			{Op: OpDelete, Key: []byte("del-key")},
		},
	}
}

func TestBatchControlRoundTrip(t *testing.T) {
	c := sampleBatchControl()
	enc, err := AppendBatchControl(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	var dec BatchControl
	if err := DecodeBatchControl(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Oid != c.Oid || len(dec.Ops) != len(c.Ops) {
		t.Fatalf("header mismatch: %+v", dec)
	}
	for i := range c.Ops {
		a, b := &c.Ops[i], &dec.Ops[i]
		if a.Op != b.Op || a.Flags != b.Flags || !bytes.Equal(a.Key, b.Key) ||
			!bytes.Equal(a.OpKey, b.OpKey) || !bytes.Equal(a.InlineValue, b.InlineValue) ||
			a.PayloadLen != b.PayloadLen {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if err := dec.ValidateExtents(64 + MACSize); err != nil {
		t.Fatalf("extents: %v", err)
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	req := &BatchRequest{
		ClientID:      7,
		Count:         4,
		SealedControl: []byte("sealed-control-bytes"),
		Payload:       bytes.Repeat([]byte{0xAB}, 80),
	}
	enc, err := req.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != req.EncodedLen() {
		t.Fatalf("EncodedLen %d, got %d bytes", req.EncodedLen(), len(enc))
	}
	var dec BatchRequest
	if err := DecodeBatchRequest(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.ClientID != req.ClientID || dec.Count != req.Count ||
		!bytes.Equal(dec.SealedControl, req.SealedControl) ||
		!bytes.Equal(dec.Payload, req.Payload) {
		t.Fatalf("round trip mismatch: %+v", dec)
	}
}

func TestBatchReplyRoundTrip(t *testing.T) {
	opKey := make([]byte, OpKeySize)
	mac := make([]byte, MACSize)
	r := &BatchReply{
		Oid: 99,
		Results: []BatchOpResult{
			{Status: StatusOK},
			{Status: StatusOK, OpKey: opKey, PayloadMAC: mac, PayloadLen: 128},
			{Status: StatusNotFound, Flags: FlagNotFound},
			{Status: StatusOK, Flags: FlagInlineValue, InlineValue: []byte("v")},
		},
	}
	enc, err := AppendBatchReply(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBatchReply(enc) {
		t.Fatal("encoded reply not recognized as batch")
	}
	var dec BatchReply
	if err := DecodeBatchReply(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Oid != r.Oid || dec.Flags&FlagBatch == 0 || len(dec.Results) != len(r.Results) {
		t.Fatalf("header mismatch: %+v", dec)
	}
	for i := range r.Results {
		a, b := &r.Results[i], &dec.Results[i]
		if a.Status != b.Status || !bytes.Equal(a.OpKey, b.OpKey) ||
			!bytes.Equal(a.PayloadMAC, b.PayloadMAC) ||
			!bytes.Equal(a.InlineValue, b.InlineValue) || a.PayloadLen != b.PayloadLen {
			t.Fatalf("result %d mismatch", i)
		}
	}
	if err := dec.ValidateReplyExtents(128); err != nil {
		t.Fatalf("extents: %v", err)
	}
	// A single-op response control must never demux as a batch reply.
	single := &ResponseControl{Oid: 5, Flags: FlagNotFound}
	sEnc, _ := single.Encode()
	if IsBatchReply(sEnc) {
		t.Fatal("single-op control misidentified as batch reply")
	}
}

// TestBatchControlRepairOps: the repair ops ride a batch control with no
// key and their arguments in InlineValue, and only a restore's chunk
// claims an extent.
func TestBatchControlRepairOps(t *testing.T) {
	args := make([]byte, 16)
	for _, op := range []Opcode{OpSnapshot, OpRestore, OpDelta} {
		enc, err := AppendBatchControl(nil, &BatchControl{Oid: 3, Ops: []BatchOp{{Op: op, InlineValue: args}}})
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		var dec BatchControl
		if err := DecodeBatchControl(enc, &dec); err != nil || dec.Ops[0].Op != op || !bytes.Equal(dec.Ops[0].InlineValue, args) {
			t.Fatalf("%v: decoded %+v, %v", op, dec.Ops, err)
		}
		dec.Ops[0].PayloadLen = 100
		if err := dec.ValidateExtents(100); (err == nil) != (op == OpRestore) {
			t.Fatalf("%v claiming an extent: %v", op, err)
		}
	}
	if _, err := AppendBatchControl(nil, &BatchControl{Ops: []BatchOp{{Op: OpGet}}}); !errors.Is(err, ErrOversized) {
		t.Fatalf("keyless get: %v, want ErrOversized", err)
	}
}

// knownWireErr reports whether err is one of the package's typed codec
// errors — adversarial inputs must map onto these, never panic or leak
// an untyped error.
func knownWireErr(err error) bool {
	for _, want := range []error{ErrTruncated, ErrOversized, ErrBadOpcode, ErrControl, ErrBatchCount, ErrBatchExtent} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

func TestBatchAdversarialDecode(t *testing.T) {
	ctl := sampleBatchControl()
	ctlEnc, err := AppendBatchControl(nil, ctl)
	if err != nil {
		t.Fatal(err)
	}
	req := &BatchRequest{ClientID: 1, Count: len(ctl.Ops), SealedControl: ctlEnc,
		Payload: make([]byte, 64+MACSize)}
	frame, err := req.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated frame", func(t *testing.T) {
		for cut := 0; cut < len(frame); cut++ {
			var dec BatchRequest
			if err := DecodeBatchRequest(frame[:cut], &dec); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			} else if !knownWireErr(err) {
				t.Fatalf("untyped error at %d: %v", cut, err)
			}
		}
	})

	t.Run("op count zero and oversized", func(t *testing.T) {
		for _, count := range []uint16{0, MaxBatchOps + 1, 65535} {
			bad := append([]byte(nil), frame...)
			bad[11] = byte(count)
			bad[12] = byte(count >> 8)
			var dec BatchRequest
			if err := DecodeBatchRequest(bad, &dec); !errors.Is(err, ErrBatchCount) {
				t.Fatalf("count %d: got %v, want ErrBatchCount", count, err)
			}
		}
	})

	t.Run("truncated control", func(t *testing.T) {
		for cut := 0; cut < len(ctlEnc); cut++ {
			var dec BatchControl
			if err := DecodeBatchControl(ctlEnc[:cut], &dec); err == nil {
				t.Fatalf("control truncation at %d accepted", cut)
			} else if !knownWireErr(err) {
				t.Fatalf("untyped error at %d: %v", cut, err)
			}
		}
	})

	t.Run("forged extent overlap", func(t *testing.T) {
		var dec BatchControl
		if err := DecodeBatchControl(ctlEnc, &dec); err != nil {
			t.Fatal(err)
		}
		// Claim more bytes than the payload region holds.
		if err := dec.ValidateExtents(32); !errors.Is(err, ErrBatchExtent) {
			t.Fatalf("oversized extent: got %v", err)
		}
		// Claim fewer: a gap an adversary could smuggle bytes into.
		if err := dec.ValidateExtents(1024); !errors.Is(err, ErrBatchExtent) {
			t.Fatalf("gapped extent: got %v", err)
		}
		// A get claiming payload bytes is malformed.
		dec.Ops[2].PayloadLen = 16
		if err := dec.ValidateExtents(64 + MACSize + 16); !errors.Is(err, ErrBatchExtent) {
			t.Fatalf("get with extent: got %v", err)
		}
		// An external put's extent must cover at least MAC + 1 byte.
		dec.Ops[2].PayloadLen = 0
		dec.Ops[1].PayloadLen = MACSize
		if err := dec.ValidateExtents(MACSize); !errors.Is(err, ErrBatchExtent) {
			t.Fatalf("undersized put extent: got %v", err)
		}
	})

	t.Run("truncated reply", func(t *testing.T) {
		reply := &BatchReply{Oid: 3, Results: []BatchOpResult{{Status: StatusOK}}}
		enc, err := AppendBatchReply(nil, reply)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			var dec BatchReply
			if err := DecodeBatchReply(enc[:cut], &dec); err == nil {
				t.Fatalf("reply truncation at %d accepted", cut)
			} else if !knownWireErr(err) {
				t.Fatalf("untyped error at %d: %v", cut, err)
			}
		}
	})
}

// FuzzBatchFrame drives the three batch decoders with arbitrary bytes:
// none may panic, failures must be typed, and anything that decodes
// must survive a re-encode/re-decode round trip.
func FuzzBatchFrame(f *testing.F) {
	ctl := sampleBatchControl()
	ctlEnc, _ := AppendBatchControl(nil, ctl)
	req := &BatchRequest{ClientID: 9, Count: len(ctl.Ops), SealedControl: ctlEnc,
		Payload: make([]byte, 64+MACSize)}
	frame, _ := req.AppendTo(nil)
	f.Add(frame)
	f.Add(ctlEnc)
	reply := &BatchReply{Oid: 7, Results: []BatchOpResult{
		{Status: StatusOK, OpKey: make([]byte, OpKeySize), PayloadLen: 32},
		{Status: StatusNotFound, Flags: FlagNotFound},
	}}
	replyEnc, _ := AppendBatchReply(nil, reply)
	f.Add(replyEnc)
	// One seed per repair op: a keyless control whose arguments ride
	// InlineValue, a restore's chunk under its extent.
	for _, op := range []Opcode{OpSnapshot, OpRestore, OpDelta} {
		rctl := &BatchControl{Oid: 8, Ops: []BatchOp{{Op: op, InlineValue: make([]byte, 16)}}}
		if op == OpRestore {
			rctl.Ops[0].PayloadLen = 32
		}
		enc, err := AppendBatchControl(nil, rctl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(OpBatch), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var breq BatchRequest
		if err := DecodeBatchRequest(data, &breq); err == nil {
			re, err := breq.AppendTo(nil)
			if err != nil {
				t.Fatalf("decoded batch request failed to re-encode: %v", err)
			}
			var b2 BatchRequest
			if err := DecodeBatchRequest(re, &b2); err != nil ||
				b2.ClientID != breq.ClientID || b2.Count != breq.Count ||
				!bytes.Equal(b2.SealedControl, breq.SealedControl) ||
				!bytes.Equal(b2.Payload, breq.Payload) {
				t.Fatal("batch request round trip not stable")
			}
		} else if !knownWireErr(err) {
			t.Fatalf("untyped request error: %v", err)
		}

		var bctl BatchControl
		if err := DecodeBatchControl(data, &bctl); err == nil {
			re, err := AppendBatchControl(nil, &bctl)
			if err != nil {
				t.Fatalf("decoded batch control failed to re-encode: %v", err)
			}
			var c2 BatchControl
			if err := DecodeBatchControl(re, &c2); err != nil ||
				c2.Oid != bctl.Oid || len(c2.Ops) != len(bctl.Ops) {
				t.Fatal("batch control round trip not stable")
			}
		} else if !knownWireErr(err) {
			t.Fatalf("untyped control error: %v", err)
		}

		var brep BatchReply
		if err := DecodeBatchReply(data, &brep); err == nil {
			re, err := AppendBatchReply(nil, &brep)
			if err != nil {
				t.Fatalf("decoded batch reply failed to re-encode: %v", err)
			}
			var r2 BatchReply
			if err := DecodeBatchReply(re, &r2); err != nil ||
				r2.Oid != brep.Oid || len(r2.Results) != len(brep.Results) {
				t.Fatal("batch reply round trip not stable")
			}
		} else if !knownWireErr(err) {
			t.Fatalf("untyped reply error: %v", err)
		}
	})
}

// benchBatch builds a 16-op inline-value batch, the small-value shape
// whose encode/decode path must stay allocation-free.
func benchBatch() (*BatchControl, *BatchRequest) {
	ctl := &BatchControl{Oid: 1}
	for i := 0; i < 16; i++ {
		ctl.Ops = append(ctl.Ops, BatchOp{
			Op: OpPut, Flags: FlagInlineValue,
			Key:         []byte("bench-key-0123456789"),
			InlineValue: []byte("0123456789abcdef0123456789abcdef"), // 32 B ≤ inline max
		})
	}
	return ctl, &BatchRequest{ClientID: 3, Count: len(ctl.Ops)}
}

// encodeBatchSteadyState runs one encode pass reusing caller buffers,
// returning them (possibly grown) for the next pass.
func encodeBatchSteadyState(ctl *BatchControl, req *BatchRequest, ctlBuf, frameBuf []byte) ([]byte, []byte, error) {
	ctlBuf, err := AppendBatchControl(ctlBuf[:0], ctl)
	if err != nil {
		return ctlBuf, frameBuf, err
	}
	req.SealedControl = ctlBuf // stand-in: the AEAD seal is measured separately
	frameBuf, err = req.AppendTo(frameBuf[:0])
	return ctlBuf, frameBuf, err
}

// BenchmarkBatchEncodeAllocs measures the batch encode path (control +
// frame) with reused buffers; the allocation regression gate asserts it
// reports 0 allocs/op.
func BenchmarkBatchEncodeAllocs(b *testing.B) {
	ctl, req := benchBatch()
	var ctlBuf, frameBuf []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctlBuf, frameBuf, err = encodeBatchSteadyState(ctl, req, ctlBuf, frameBuf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchDecodeAllocs measures the batch decode path (frame +
// control + reply) into reused structures; the gate asserts 0 allocs/op.
func BenchmarkBatchDecodeAllocs(b *testing.B) {
	ctl, req := benchBatch()
	ctlEnc, err := AppendBatchControl(nil, ctl)
	if err != nil {
		b.Fatal(err)
	}
	req.SealedControl = ctlEnc
	frame, err := req.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	reply := &BatchReply{Oid: 1}
	for range ctl.Ops {
		reply.Results = append(reply.Results, BatchOpResult{Status: StatusOK})
	}
	replyEnc, err := AppendBatchReply(nil, reply)
	if err != nil {
		b.Fatal(err)
	}
	var dreq BatchRequest
	var dctl BatchControl
	var drep BatchReply
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeBatchRequest(frame, &dreq); err != nil {
			b.Fatal(err)
		}
		if err := DecodeBatchControl(dreq.SealedControl, &dctl); err != nil {
			b.Fatal(err)
		}
		if err := DecodeBatchReply(replyEnc, &drep); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchCodecZeroAllocSteadyState is the allocation regression gate:
// with PRECURSOR_ALLOC_GATE=1 it fails if the small-value batch
// encode or decode path allocates at steady state (buffers warm).
func TestBatchCodecZeroAllocSteadyState(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the zero-alloc gate")
	}
	ctl, req := benchBatch()
	var ctlBuf, frameBuf []byte
	var err error
	// Warm the buffers once; steady state starts at the second pass.
	ctlBuf, frameBuf, err = encodeBatchSteadyState(ctl, req, ctlBuf, frameBuf)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		ctlBuf, frameBuf, err = encodeBatchSteadyState(ctl, req, ctlBuf, frameBuf)
		if err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("batch encode path allocates %.1f allocs/op at steady state, want 0", a)
	}

	frame := append([]byte(nil), frameBuf...)
	reply := &BatchReply{Oid: 1}
	for range ctl.Ops {
		reply.Results = append(reply.Results, BatchOpResult{Status: StatusOK})
	}
	replyEnc, err := AppendBatchReply(nil, reply)
	if err != nil {
		t.Fatal(err)
	}
	var dreq BatchRequest
	var dctl BatchControl
	var drep BatchReply
	if a := testing.AllocsPerRun(200, func() {
		if err := DecodeBatchRequest(frame, &dreq); err != nil {
			t.Fatal(err)
		}
		if err := DecodeBatchControl(dreq.SealedControl, &dctl); err != nil {
			t.Fatal(err)
		}
		if err := DecodeBatchReply(replyEnc, &drep); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("batch decode path allocates %.1f allocs/op at steady state, want 0", a)
	}
}
