package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"testing"
)

// Golden vectors for the four single-op codecs. The hex strings were
// produced by the encoders as they stood before the append / decode-into
// forms existed, so a vector that still matches proves the framing did
// not move by one byte. Each vector is checked against the append form
// (onto nil and onto a non-empty prefix), the kept wrapper, the
// decode-into form and the decoding wrapper.

func seq(from byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = from + byte(i)
	}
	return b
}

var (
	goldKey    = []byte("user000000000042")
	goldOpKey  = seq(0x10, OpKeySize)
	goldMAC    = seq(0xa0, MACSize)
	goldSealed = seq(0x40, 44) // stands in for nonce‖ciphertext‖tag of a control segment
	goldNonce  = seq(0xf0, 8)
	goldTrace  = TraceContext{TraceID: 0x1122334455667788, ParentSpan: 0x99aabbccddeeff01, Sampled: true}
	goldHint   = []byte{250, 0, 0, 0} // RETRY_LATER backoff hint, 250 ms little-endian
)

var goldRequestControls = []struct {
	name string
	c    RequestControl
	hex  string
}{
	{"put", RequestControl{Op: OpPut, Oid: 0x0102030405060708, Key: goldKey, OpKey: goldOpKey},
		"0100080706050403020110007573657230303030303030303030343220101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f0000"},
	{"put-inline", RequestControl{Op: OpPut, Flags: FlagInlineValue, Oid: 9, Key: goldKey, InlineValue: []byte("tiny")},
		"0101090000000000000010007573657230303030303030303030343200040074696e79"},
	{"put-traced", RequestControl{Op: OpPut, Oid: 10, Key: goldKey, OpKey: goldOpKey, Trace: goldTrace},
		"01000a0000000000000010007573657230303030303030303030343220101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f00000101887766554433221101ffeeddccbbaa99"},
	{"get", RequestControl{Op: OpGet, Oid: 11, Key: goldKey},
		"02000b00000000000000100075736572303030303030303030303432000000"},
	{"get-traced", RequestControl{Op: OpGet, Oid: 12, Key: goldKey, Trace: goldTrace},
		"02000c000000000000001000757365723030303030303030303034320000000101887766554433221101ffeeddccbbaa99"},
	{"delete", RequestControl{Op: OpDelete, Oid: 13, Key: goldKey},
		"03000d00000000000000100075736572303030303030303030303432000000"},
}

var goldResponseControls = []struct {
	name string
	c    ResponseControl
	hex  string
}{
	{"put-ack", ResponseControl{Oid: 0x0102030405060708},
		"08070605040302010000000000"},
	{"get", ResponseControl{Oid: 11, OpKey: goldOpKey},
		"0b000000000000000020101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f000000"},
	{"get-hardened", ResponseControl{Oid: 11, OpKey: goldOpKey, PayloadMAC: goldMAC},
		"0b000000000000000020101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f10a0a1a2a3a4a5a6a7a8a9aaabacadaeaf0000"},
	{"get-inline", ResponseControl{Oid: 11, Flags: FlagInlineValue, InlineValue: []byte("tiny")},
		"0b00000000000000010000040074696e79"},
	{"not-found", ResponseControl{Oid: 12, Flags: FlagNotFound},
		"0c000000000000000200000000"},
	{"replay", ResponseControl{Oid: 13, Flags: FlagReplay},
		"0d000000000000000400000000"},
	{"retry-later", ResponseControl{Oid: 14, Flags: FlagRetryLater, InlineValue: goldHint},
		"0e000000000000001000000400fa000000"},
	{"retry-later-oidless", ResponseControl{Flags: FlagRetryLater, InlineValue: goldHint},
		"00000000000000001000000400fa000000"},
}

var goldRequests = []struct {
	name string
	r    Request
	hex  string
}{
	{"put", Request{Op: OpPut, ClientID: 7, SealedControl: goldSealed,
		Payload: append(append([]byte(nil), goldNonce...), "hello"...), PayloadMAC: goldMAC},
		"01070000002c000d000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6bf0f1f2f3f4f5f6f768656c6c6fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf"},
	{"put-inline", Request{Op: OpPut, ClientID: 7, SealedControl: goldSealed},
		"01070000002c0000000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b"},
	{"get", Request{Op: OpGet, ClientID: 0x01020304, SealedControl: goldSealed},
		"02040302012c0000000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b"},
	{"delete", Request{Op: OpDelete, ClientID: 7, SealedControl: goldSealed},
		"03070000002c0000000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b"},
}

var goldResponses = []struct {
	name string
	r    Response
	hex  string
}{
	{"put-ack", Response{Status: StatusOK, SealedControl: goldSealed},
		"002c0000000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b"},
	{"get", Response{Status: StatusOK, SealedControl: goldSealed,
		Payload: append(append(append([]byte(nil), goldNonce...), "hello"...), goldMAC...)},
		"002c001d000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6bf0f1f2f3f4f5f6f768656c6c6fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf"},
	{"get-hardened", Response{Status: StatusOK, SealedControl: goldSealed,
		Payload: append(append([]byte(nil), goldNonce...), "hello"...)},
		"002c000d000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6bf0f1f2f3f4f5f6f768656c6c6f"},
	{"not-found", Response{Status: StatusNotFound, SealedControl: goldSealed},
		"012c0000000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b"},
	{"replay", Response{Status: StatusReplay, SealedControl: goldSealed},
		"022c0000000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b"},
	{"retry-later", Response{Status: StatusRetryLater, SealedControl: goldSealed},
		"062c0000000000404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b"},
	{"auth-failed-unsealed", Response{Status: StatusAuthFailed},
		"03000000000000"},
}

// checkGolden runs one vector through every encoder and decoder form.
// appendTo and encode produce the frame; decodeInto and decodeWrap parse
// it and return the parsed value for comparison with want.
func checkGolden(t *testing.T, name, wantHex string, want any,
	appendTo func(dst []byte) ([]byte, error), encode func() ([]byte, error),
	decodeInto, decodeWrap func(buf []byte) (any, error)) {
	t.Helper()
	golden, err := hex.DecodeString(wantHex)
	if err != nil || len(golden) == 0 {
		t.Fatalf("%s: bad golden vector: %v", name, err)
	}
	got, err := appendTo(nil)
	if err != nil || !bytes.Equal(got, golden) {
		t.Errorf("%s: AppendTo(nil) = %x, %v; want %x", name, got, err, golden)
	}
	prefix := []byte("prefix")
	got, err = appendTo(append([]byte(nil), prefix...))
	if err != nil || !bytes.Equal(got, append(prefix, golden...)) {
		t.Errorf("%s: AppendTo(prefix) = %x, %v; want prefix + %x", name, got, err, golden)
	}
	got, err = encode()
	if err != nil || !bytes.Equal(got, golden) {
		t.Errorf("%s: Encode = %x, %v; want %x", name, got, err, golden)
	}
	for form, decode := range map[string]func([]byte) (any, error){"Decode": decodeInto, "wrapper": decodeWrap} {
		parsed, err := decode(golden)
		if err != nil {
			t.Errorf("%s: %s failed: %v", name, form, err)
		} else if !reflect.DeepEqual(parsed, want) {
			t.Errorf("%s: %s = %+v, want %+v", name, form, parsed, want)
		}
	}
}

func TestGoldenRequestControl(t *testing.T) {
	for _, g := range goldRequestControls {
		c := g.c
		// The decoder hands back an empty, non-nil OpKey when none is sent.
		want := c
		if want.OpKey == nil {
			want.OpKey = []byte{}
		}
		stale := RequestControl{Op: OpPut, Flags: 0xff, Oid: 99, Key: []byte("stale"), OpKey: goldOpKey,
			InlineValue: []byte("stale"), Trace: goldTrace, TraceBad: true}
		checkGolden(t, g.name, g.hex, &want, c.AppendTo, c.Encode,
			func(buf []byte) (any, error) { d := stale; return &d, d.Decode(buf) },
			func(buf []byte) (any, error) { return DecodeRequestControl(buf) })
	}
}

func TestGoldenResponseControl(t *testing.T) {
	for _, g := range goldResponseControls {
		c := g.c
		stale := ResponseControl{Oid: 99, Flags: 0xff, OpKey: goldOpKey, PayloadMAC: goldMAC, InlineValue: []byte("stale")}
		checkGolden(t, g.name, g.hex, &c, c.AppendTo, c.Encode,
			func(buf []byte) (any, error) { d := stale; return &d, d.Decode(buf) },
			func(buf []byte) (any, error) { return DecodeResponseControl(buf) })
	}
}

func TestGoldenRequest(t *testing.T) {
	for _, g := range goldRequests {
		r := g.r
		stale := Request{Op: OpPut, ClientID: 99, SealedControl: []byte("stale"), Payload: []byte("stale"), PayloadMAC: goldMAC}
		checkGolden(t, g.name, g.hex, &r, r.AppendTo, func() ([]byte, error) { return r.Encode(nil) },
			func(buf []byte) (any, error) { d := stale; return &d, d.Decode(buf) },
			func(buf []byte) (any, error) { return DecodeRequest(buf) })
		if n := r.EncodedLen(); n != len(g.hex)/2 {
			t.Errorf("%s: EncodedLen = %d, want %d", g.name, n, len(g.hex)/2)
		}
		// The client's own assembly: header, then the segments in place.
		built, err := AppendRequestHeader(nil, r.Op, r.ClientID, len(r.SealedControl), len(r.Payload))
		if err != nil || cap(built) < len(g.hex)/2 {
			t.Fatalf("%s: AppendRequestHeader: %v, reserved %d of %d bytes", g.name, err, cap(built), len(g.hex)/2)
		}
		built = append(append(append(built, r.SealedControl...), r.Payload...), r.PayloadMAC...)
		if hex.EncodeToString(built) != g.hex {
			t.Errorf("%s: header + segments = %x, want %s", g.name, built, g.hex)
		}
	}
}

func TestGoldenResponse(t *testing.T) {
	for _, g := range goldResponses {
		r := g.r
		// The decoder hands back empty, non-nil segments.
		want := r
		if want.SealedControl == nil {
			want.SealedControl = []byte{}
		}
		if want.Payload == nil {
			want.Payload = []byte{}
		}
		stale := Response{Status: StatusServerError, SealedControl: []byte("stale"), Payload: []byte("stale")}
		checkGolden(t, g.name, g.hex, &want, r.AppendTo, func() ([]byte, error) { return r.Encode(nil) },
			func(buf []byte) (any, error) { d := stale; return &d, d.Decode(buf) },
			func(buf []byte) (any, error) { return DecodeResponse(buf) })
		if n := r.EncodedLen(); n != len(g.hex)/2 {
			t.Errorf("%s: EncodedLen = %d, want %d", g.name, n, len(g.hex)/2)
		}
		// The server's own assembly: header, then the segments in place.
		built, err := AppendResponseHeader(nil, r.Status, len(r.SealedControl), len(r.Payload))
		if err != nil || cap(built) < len(g.hex)/2 {
			t.Fatalf("%s: AppendResponseHeader: %v, reserved %d of %d bytes", g.name, err, cap(built), len(g.hex)/2)
		}
		built = append(append(built, r.SealedControl...), r.Payload...)
		if hex.EncodeToString(built) != g.hex {
			t.Errorf("%s: header + segments = %x, want %s", g.name, built, g.hex)
		}
	}
}

// TestSingleOpCodecsZeroAlloc is the allocation gate on the single-op
// codecs (PRECURSOR_ALLOC_GATE pattern, run without -race): appending
// into a warm buffer and decoding into a reused value must not allocate.
func TestSingleOpCodecsZeroAlloc(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the zero-alloc gate")
	}
	reqCtl := goldRequestControls[2].c // put, traced
	respCtl := goldResponseControls[2].c
	req := goldRequests[0].r
	resp := goldResponses[1].r
	var ctlBuf, rctlBuf, reqBuf, respBuf []byte
	encode := func() {
		var err error
		if ctlBuf, err = reqCtl.AppendTo(ctlBuf[:0]); err != nil {
			t.Fatal(err)
		}
		if rctlBuf, err = respCtl.AppendTo(rctlBuf[:0]); err != nil {
			t.Fatal(err)
		}
		if reqBuf, err = req.AppendTo(reqBuf[:0]); err != nil {
			t.Fatal(err)
		}
		if respBuf, err = resp.AppendTo(respBuf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	encode() // warm the buffers
	if a := testing.AllocsPerRun(200, encode); a != 0 {
		t.Errorf("single-op append encoders allocate %.1f allocs/run at steady state, want 0", a)
	}
	var (
		dReqCtl  RequestControl
		dRespCtl ResponseControl
		dReq     Request
		dResp    Response
	)
	if a := testing.AllocsPerRun(200, func() {
		if err := dReqCtl.Decode(ctlBuf); err != nil {
			t.Fatal(err)
		}
		if err := dRespCtl.Decode(rctlBuf); err != nil {
			t.Fatal(err)
		}
		if err := dReq.Decode(reqBuf); err != nil {
			t.Fatal(err)
		}
		if err := dResp.Decode(respBuf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("single-op decode-into forms allocate %.1f allocs/run, want 0", a)
	}
}
