package serverenc

import (
	"crypto/ecdsa"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"precursor/internal/cryptox"
	"precursor/internal/rdma"
	"precursor/internal/ringbuf"
	"precursor/internal/sgx"
	"precursor/internal/wire"
)

// bootstrapHello / bootstrapWelcome mirror Precursor's setup messages.
type bootstrapHello struct {
	AttestPub     []byte `json:"attestPub"`
	AttestNonce   []byte `json:"attestNonce"`
	RespRingRKey  uint32 `json:"respRingRKey"`
	RespSlots     int    `json:"respSlots"`
	RespSlotSize  int    `json:"respSlotSize"`
	ReqCreditRKey uint32 `json:"reqCreditRKey"`
}

type bootstrapWelcome struct {
	AttestPub        []byte `json:"attestPub"`
	QuoteMeasurement []byte `json:"quoteMeasurement"`
	QuoteReportData  []byte `json:"quoteReportData"`
	QuoteSignature   []byte `json:"quoteSignature"`
	ClientID         uint32 `json:"clientID"`
	ReqRingRKey      uint32 `json:"reqRingRKey"`
	ReqSlots         int    `json:"reqSlots"`
	ReqSlotSize      int    `json:"reqSlotSize"`
	RespCreditRKey   uint32 `json:"respCreditRKey"`
}

func sendJSON(conn rdma.Conn, wrID uint64, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return conn.PostSend(wrID, buf, false, false)
}

func recvJSON(conn rdma.Conn, v any) error {
	for {
		comps := conn.PollRecv(1)
		if len(comps) == 0 {
			time.Sleep(10 * time.Microsecond)
			continue
		}
		c := comps[0]
		if c.Status != rdma.StatusOK {
			return fmt.Errorf("%w: %v", ErrClosed, c.Err)
		}
		return json.Unmarshal(c.Buf[:c.Len], v)
	}
}

// ClientConfig configures a baseline client.
type ClientConfig struct {
	Conn         rdma.Conn
	Device       *rdma.Device
	PlatformKey  *ecdsa.PublicKey
	Measurement  sgx.Measurement
	RespSlots    int
	RespSlotSize int
	Timeout      time.Duration
}

// Client is the server-encryption baseline client: it performs no payload
// cryptography beyond the transport layer.
type Client struct {
	mu sync.Mutex

	cfg        ClientConfig
	conn       rdma.Conn
	device     *rdma.Device
	id         uint32
	ad         [4]byte
	aead       *cryptox.AEAD
	oid        uint64
	reqWriter  *ringbuf.Writer
	respReader *ringbuf.Reader
	respRing   *rdma.MemoryRegion
	reqCredit  *rdma.MemoryRegion
	closed     bool
}

// Connect attests the baseline server and establishes rings.
func Connect(cfg ClientConfig) (*Client, error) {
	if cfg.Conn == nil || cfg.Device == nil || cfg.PlatformKey == nil {
		return nil, fmt.Errorf("serverenc: Conn, Device and PlatformKey are required")
	}
	if cfg.RespSlots <= 0 {
		cfg.RespSlots = 32
	}
	if cfg.RespSlotSize <= 0 {
		cfg.RespSlotSize = 20 * 1024
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	cl := &Client{cfg: cfg, conn: cfg.Conn, device: cfg.Device}
	cl.respRing = cfg.Device.RegisterMemory(
		ringbuf.RingBytes(cfg.RespSlots, cfg.RespSlotSize), rdma.PermRemoteWrite)
	cl.reqCredit = cfg.Device.RegisterMemory(ringbuf.CreditBytes, rdma.PermRemoteWrite)

	hs, err := sgx.NewClientHandshake()
	if err != nil {
		return nil, err
	}
	if err := cfg.Conn.PostRecv(1, make([]byte, 4096)); err != nil {
		return nil, err
	}
	hello := hs.Hello()
	if err := sendJSON(cfg.Conn, 1, &bootstrapHello{
		AttestPub:     hello.PublicKey,
		AttestNonce:   hello.Nonce,
		RespRingRKey:  cl.respRing.RKey(),
		RespSlots:     cfg.RespSlots,
		RespSlotSize:  cfg.RespSlotSize,
		ReqCreditRKey: cl.reqCredit.RKey(),
	}); err != nil {
		return nil, err
	}
	var welcome bootstrapWelcome
	if err := recvJSON(cfg.Conn, &welcome); err != nil {
		return nil, err
	}
	var m sgx.Measurement
	copy(m[:], welcome.QuoteMeasurement)
	sessionKey, err := hs.Complete(cfg.PlatformKey, sgx.ServerHello{
		PublicKey: welcome.AttestPub,
		Quote: sgx.Quote{
			Measurement: m,
			ReportData:  welcome.QuoteReportData,
			Signature:   welcome.QuoteSignature,
		},
	}, cfg.Measurement)
	if err != nil {
		return nil, fmt.Errorf("attestation: %w", err)
	}
	cl.aead, err = cryptox.NewAEAD(sessionKey)
	if err != nil {
		return nil, err
	}
	cl.id = welcome.ClientID
	binary.LittleEndian.PutUint32(cl.ad[:], cl.id)

	cl.reqWriter, err = ringbuf.NewWriter(ringbuf.WriterConfig{
		Conn: cfg.Conn, RingRKey: welcome.ReqRingRKey,
		Slots: welcome.ReqSlots, SlotSize: welcome.ReqSlotSize,
		Credit: cl.reqCredit,
	})
	if err != nil {
		return nil, err
	}
	cl.respReader, err = ringbuf.NewReader(ringbuf.ReaderConfig{
		Ring: cl.respRing, Slots: cfg.RespSlots, SlotSize: cfg.RespSlotSize,
		Conn: cfg.Conn, CreditRKey: welcome.RespCreditRKey,
	})
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// Put stores value under key: the whole value is transport-encrypted and
// processed inside the server enclave.
func (c *Client) Put(key string, value []byte) error {
	if len(key) == 0 || len(key) > wire.MaxKeyLen || len(value) > wire.MaxValueLen {
		return ErrTooLarge
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.oid++
	sealedPayload, err := c.aead.Seal(value, c.ad[:])
	if err != nil {
		return err
	}
	rc, _, err := c.roundTrip(wire.OpPut, key, sealedPayload)
	if err != nil {
		return err
	}
	if rc.Flags&wire.FlagNotFound != 0 {
		return ErrBadResponse
	}
	return nil
}

// Get fetches the value for key; the server decrypted and re-encrypted it
// inside the enclave.
func (c *Client) Get(key string) ([]byte, error) {
	if len(key) == 0 || len(key) > wire.MaxKeyLen {
		return nil, ErrTooLarge
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.oid++
	rc, payload, err := c.roundTrip(wire.OpGet, key, nil)
	if err != nil {
		return nil, err
	}
	if rc.Flags&wire.FlagNotFound != 0 {
		return nil, ErrNotFound
	}
	value, err := c.aead.Open(payload, c.ad[:])
	if err != nil {
		return nil, fmt.Errorf("%w: payload", ErrAuth)
	}
	return value, nil
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	if len(key) == 0 || len(key) > wire.MaxKeyLen {
		return ErrTooLarge
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.oid++
	rc, _, err := c.roundTrip(wire.OpDelete, key, nil)
	if err != nil {
		return err
	}
	if rc.Flags&wire.FlagNotFound != 0 {
		return ErrNotFound
	}
	return nil
}

func (c *Client) roundTrip(op wire.Opcode, key string, sealedPayload []byte) (*wire.ResponseControl, []byte, error) {
	ctl := wire.RequestControl{Op: op, Oid: c.oid, Key: []byte(key)}
	pt, err := ctl.Encode()
	if err != nil {
		return nil, nil, err
	}
	sealedCtl, err := c.aead.Seal(pt, c.ad[:])
	if err != nil {
		return nil, nil, err
	}
	frame := (&request{op: op, clientID: c.id, sealedControl: sealedCtl, sealedPayload: sealedPayload}).encode(nil)
	if len(frame) > c.reqWriter.MaxMessage() {
		return nil, nil, ErrTooLarge
	}
	deadline := time.Now().Add(c.cfg.Timeout)
	if err := c.reqWriter.WriteDeadline(frame, deadline); err != nil {
		if errors.Is(err, ringbuf.ErrRingFull) {
			return nil, nil, ErrTimeout
		}
		return nil, nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	for {
		msg, ready, err := c.respReader.Poll()
		if err != nil {
			return nil, nil, err
		}
		if !ready {
			if time.Now().After(deadline) {
				return nil, nil, ErrTimeout
			}
			time.Sleep(2 * time.Microsecond)
			continue
		}
		resp, err := decodeResponse(msg)
		if err != nil {
			return nil, nil, ErrBadResponse
		}
		if len(resp.sealedControl) == 0 {
			return nil, nil, fmt.Errorf("%w: server status %v", ErrAuth, resp.status)
		}
		rcPt, err := c.aead.Open(resp.sealedControl, c.ad[:])
		if err != nil {
			return nil, nil, fmt.Errorf("%w: response control", ErrAuth)
		}
		rc, err := wire.DecodeResponseControl(rcPt)
		if err != nil {
			return nil, nil, ErrBadResponse
		}
		if rc.Oid != c.oid {
			if time.Now().After(deadline) {
				return nil, nil, ErrTimeout
			}
			continue
		}
		if rc.Flags&wire.FlagReplay != 0 {
			return nil, nil, ErrReplay
		}
		return rc, resp.sealedPayload, nil
	}
}

// Close releases the connection and local memory registrations.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.conn.Close()
	c.device.Deregister(c.respRing)
	c.device.Deregister(c.reqCredit)
	return err
}
