package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// Native fuzz targets for every decoder: none may panic, and anything
// that decodes must re-encode to an equivalent message (where the format
// is canonical). On every input the decode-into form, run on a dirty
// value, must agree with the allocating wrapper — same error or same
// fields — and the encoder's output must be a fixed point: decoding it
// and encoding again gives the same bytes. Seeds cover each branch; run
// with -fuzz for exploration.

// sameDecode fails unless the decode-into outcome (into, intoErr) matches
// the wrapper's (wrapped, wrapErr): both failed with the same error, or
// both succeeded with deeply equal values.
func sameDecode(t *testing.T, into any, intoErr error, wrapped any, wrapErr error) {
	t.Helper()
	if intoErr != wrapErr {
		t.Fatalf("decode-into error %v, wrapper error %v", intoErr, wrapErr)
	}
	if wrapErr == nil && !reflect.DeepEqual(into, wrapped) {
		t.Fatalf("decode-into %+v differs from wrapper %+v", into, wrapped)
	}
}

// fixedPoint fails unless re-encoding the decoded form of enc gives enc.
func fixedPoint(t *testing.T, enc []byte, reencode func(enc []byte) ([]byte, error)) {
	t.Helper()
	again, err := reencode(enc)
	if err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding a decoded frame changed it: %x -> %x (%v)", enc, again, err)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	put := &Request{
		Op: OpPut, ClientID: 7, SealedControl: []byte("ctl"),
		Payload: []byte("payload"), PayloadMAC: make([]byte, MACSize),
	}
	enc, _ := put.Encode(nil)
	f.Add(enc)
	get := &Request{Op: OpGet, ClientID: 1, SealedControl: []byte("c")}
	enc2, _ := get.Encode(nil)
	f.Add(enc2)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequest(data)
		into := Request{Op: OpPut, ClientID: 99, SealedControl: []byte("stale"), Payload: []byte("stale"), PayloadMAC: []byte("stale")}
		intoErr := into.Decode(data)
		sameDecode(t, &into, intoErr, r, err)
		if err != nil {
			return
		}
		re, err := r.Encode(nil)
		if err != nil {
			t.Fatalf("decoded request failed to re-encode: %v", err)
		}
		fixedPoint(t, re, func(enc []byte) ([]byte, error) {
			var d Request
			if err := d.Decode(enc); err != nil {
				return nil, err
			}
			return d.AppendTo(nil)
		})
		r2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if r2.Op != r.Op || r2.ClientID != r.ClientID ||
			!bytes.Equal(r2.SealedControl, r.SealedControl) ||
			!bytes.Equal(r2.Payload, r.Payload) {
			t.Fatal("request round trip not stable")
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	resp := &Response{Status: StatusOK, SealedControl: []byte("ctl"), Payload: []byte("p")}
	enc, _ := resp.Encode(nil)
	f.Add(enc)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResponse(data)
		into := Response{Status: StatusServerError, SealedControl: []byte("stale"), Payload: []byte("stale")}
		intoErr := into.Decode(data)
		sameDecode(t, &into, intoErr, r, err)
		if err != nil {
			return
		}
		re, err := r.Encode(nil)
		if err != nil {
			t.Fatalf("decoded response failed to re-encode: %v", err)
		}
		// The response framing has no lax field: an input the decoder
		// consumed whole is its own encoding.
		if len(re) == len(data) && !bytes.Equal(re, data) {
			t.Fatalf("response %x re-encoded as %x", data, re)
		}
		fixedPoint(t, re, func(enc []byte) ([]byte, error) {
			var d Response
			if err := d.Decode(enc); err != nil {
				return nil, err
			}
			return d.AppendTo(nil)
		})
		r2, err := DecodeResponse(re)
		if err != nil || r2.Status != r.Status ||
			!bytes.Equal(r2.SealedControl, r.SealedControl) ||
			!bytes.Equal(r2.Payload, r.Payload) {
			t.Fatal("response round trip not stable")
		}
	})
}

func FuzzDecodeRequestControl(f *testing.F) {
	c := &RequestControl{Op: OpPut, Oid: 9, Key: []byte("k"), OpKey: make([]byte, OpKeySize)}
	enc, _ := c.Encode()
	f.Add(enc)
	inline := &RequestControl{Op: OpPut, Flags: FlagInlineValue, Oid: 1, Key: []byte("k"), InlineValue: []byte("v")}
	enc2, _ := inline.Encode()
	f.Add(enc2)
	f.Add([]byte{})

	traced := &RequestControl{Op: OpGet, Oid: 2, Key: []byte("k"), Trace: TraceContext{TraceID: 7, ParentSpan: 8, Sampled: true}}
	enc3, _ := traced.Encode()
	f.Add(enc3)
	f.Add(append(append([]byte(nil), enc2...), 0xff, 0xff)) // garbage trailer: soft-fail

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeRequestControl(data)
		into := RequestControl{Op: OpPut, Flags: 0xff, Oid: 99, Key: []byte("stale"), OpKey: []byte("stale"),
			InlineValue: []byte("stale"), Trace: TraceContext{TraceID: 1}, TraceBad: true}
		intoErr := into.Decode(data)
		sameDecode(t, &into, intoErr, c, err)
		if err != nil {
			return
		}
		re, err := c.Encode()
		if err != nil {
			// Decoded-but-unencodable is only acceptable for fields the
			// decoder is laxer about; key bounds match, so fail loudly.
			t.Fatalf("decoded control failed to re-encode: %v", err)
		}
		fixedPoint(t, re, func(enc []byte) ([]byte, error) {
			var d RequestControl
			if err := d.Decode(enc); err != nil {
				return nil, err
			}
			return d.AppendTo(nil)
		})
		c2, err := DecodeRequestControl(re)
		if err != nil || c2.Oid != c.Oid || !bytes.Equal(c2.Key, c.Key) {
			t.Fatal("control round trip not stable")
		}
	})
}

func FuzzDecodeResponseControl(f *testing.F) {
	c := &ResponseControl{Oid: 4, OpKey: make([]byte, OpKeySize), PayloadMAC: make([]byte, MACSize)}
	enc, _ := c.Encode()
	f.Add(enc)
	f.Add([]byte{})

	shed := &ResponseControl{Flags: FlagRetryLater, InlineValue: []byte{250, 0, 0, 0}}
	enc2, _ := shed.Encode()
	f.Add(enc2)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeResponseControl(data)
		into := ResponseControl{Oid: 99, Flags: 0xff, OpKey: []byte("stale"), PayloadMAC: []byte("stale"), InlineValue: []byte("stale")}
		intoErr := into.Decode(data)
		sameDecode(t, &into, intoErr, c, err)
		if err != nil {
			return
		}
		re, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded response control failed to re-encode: %v", err)
		}
		// No lax field here either (see FuzzDecodeResponse).
		if len(re) == len(data) && !bytes.Equal(re, data) {
			t.Fatalf("response control %x re-encoded as %x", data, re)
		}
		fixedPoint(t, re, func(enc []byte) ([]byte, error) {
			var d ResponseControl
			if err := d.Decode(enc); err != nil {
				return nil, err
			}
			return d.AppendTo(nil)
		})
		c2, err := DecodeResponseControl(re)
		if err != nil || c2.Oid != c.Oid || c2.Flags != c.Flags {
			t.Fatal("response control round trip not stable")
		}
	})
}
