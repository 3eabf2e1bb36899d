package core

import (
	"crypto/ecdsa"
	"encoding/json"
	"fmt"
	"time"

	"precursor/internal/audit"
	"precursor/internal/cryptox"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
)

// Bootstrap messages travel over two-sided SEND/RECV once per connection
// (§3.6): the attested key exchange plus the ring-buffer memory windows.
// They are a setup-path concern, so a self-describing JSON encoding is
// used; the request hot path uses the compact binary codecs in
// internal/wire.

// helloMsg is the client's combined attestation + bootstrap request.
type helloMsg struct {
	// Attestation handshake (ECDH public key + nonce).
	AttestPub   []byte `json:"attestPub"`
	AttestNonce []byte `json:"attestNonce"`
	// Response-ring window in client memory the server will write into.
	RespRingRKey uint32 `json:"respRingRKey"`
	RespSlots    int    `json:"respSlots"`
	RespSlotSize int    `json:"respSlotSize"`
	// Credit counter in client memory for the request ring.
	ReqCreditRKey uint32 `json:"reqCreditRKey"`
}

// welcomeMsg is the server's combined attestation + bootstrap response.
type welcomeMsg struct {
	// Attestation: enclave ECDH public key and quote over the transcript.
	AttestPub        []byte `json:"attestPub"`
	QuoteMeasurement []byte `json:"quoteMeasurement"`
	QuoteReportData  []byte `json:"quoteReportData"`
	QuoteSignature   []byte `json:"quoteSignature"`
	// Assigned identity and request-ring window in server memory.
	ClientID       uint32 `json:"clientID"`
	ReqRingRKey    uint32 `json:"reqRingRKey"`
	ReqSlots       int    `json:"reqSlots"`
	ReqSlotSize    int    `json:"reqSlotSize"`
	RespCreditRKey uint32 `json:"respCreditRKey"`
	// ServerEncryption announces the §5.1 baseline placement.
	ServerEncryption bool `json:"serverEncryption,omitempty"`
	// InlineMax announces the §5.2 inline placement: values shorter than
	// it are stored inside the enclave. Omitted (0) without the mode.
	InlineMax int `json:"inlineMax,omitempty"`
	// Error, if the server rejected the client.
	Error string `json:"error,omitempty"`
}

const bootstrapBufSize = 4096

// bootstrapTimeout bounds the server's wait for a client's hello; a
// client that dials and never speaks must not pin a handler goroutine.
const bootstrapTimeout = 10 * time.Second

// sendMsg marshals and SENDs one bootstrap message.
func sendMsg(conn rdma.Conn, wrID uint64, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("marshal bootstrap: %w", err)
	}
	if len(buf) > bootstrapBufSize {
		return ErrBadBootstrap
	}
	if err := conn.PostSend(wrID, buf, false, len(buf) <= rdma.InlineThreshold); err != nil {
		return fmt.Errorf("send bootstrap: %w", err)
	}
	return nil
}

// recvMsg polls the receive CQ for one bootstrap message until the
// deadline: a lost bootstrap frame must surface as a typed ErrTimeout,
// never a goroutine parked forever on a half-open connection.
func recvMsg(conn rdma.Conn, v any, deadline time.Time) error {
	for {
		comps := conn.PollRecv(1)
		if len(comps) == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: bootstrap", ErrTimeout)
			}
			time.Sleep(10 * time.Microsecond)
			continue
		}
		c := comps[0]
		if c.Status != rdma.StatusOK {
			return fmt.Errorf("%w: recv status %v", ErrClosed, c.Err)
		}
		if err := json.Unmarshal(c.Buf[:c.Len], v); err != nil {
			return fmt.Errorf("%w: %v", ErrBadBootstrap, err)
		}
		return nil
	}
}

// attest is the client half of every session's bootstrap: it sends hello,
// completed with the attestation key share, awaits the welcome until
// deadline and verifies its quote against key and m. It returns the
// welcome and the AEAD keyed with K_session.
func attest(conn rdma.Conn, hello helloMsg, key *ecdsa.PublicKey, m sgx.Measurement, deadline time.Time) (*welcomeMsg, *cryptox.AEAD, error) {
	hs, err := sgx.NewClientHandshake()
	if err != nil {
		return nil, nil, err
	}
	if err := conn.PostRecv(1, make([]byte, bootstrapBufSize)); err != nil {
		return nil, nil, fmt.Errorf("post bootstrap recv: %w", err)
	}
	share := hs.Hello()
	hello.AttestPub, hello.AttestNonce = share.PublicKey, share.Nonce
	if err := sendMsg(conn, 1, &hello); err != nil {
		return nil, nil, err
	}
	var welcome welcomeMsg
	if err := recvMsg(conn, &welcome, deadline); err != nil {
		return nil, nil, err
	}
	if welcome.Error != "" {
		return nil, nil, fmt.Errorf("precursor: server rejected connection: %s", welcome.Error)
	}
	sessionKey, err := hs.Complete(key, sgx.ServerHello{PublicKey: welcome.AttestPub, Quote: welcome.quote()}, m)
	if err != nil {
		return nil, nil, fmt.Errorf("attestation: %w", err)
	}
	aead, err := cryptox.NewAEAD(sessionKey)
	return &welcome, aead, err
}

// respondAttest is the enclave's half ("add_client", ecall iii.): it
// answers hello's key share and returns the welcome, carrying the quote
// and nothing else yet, and the AEAD keyed with K_session. A failed
// handshake is audited and refused with a welcome.
func (s *Server) respondAttest(conn rdma.Conn, hello *helloMsg) (*welcomeMsg, *cryptox.AEAD, error) {
	var (
		sh         sgx.ServerHello
		sessionKey []byte
	)
	err := s.enclave.Ecall("add_client", func() error {
		var err error
		sh, sessionKey, err = s.enclave.RespondHandshake(sgx.ClientHello{PublicKey: hello.AttestPub, Nonce: hello.AttestNonce})
		return err
	})
	if err != nil {
		s.cfg.Audit.Add(audit.Record{Kind: audit.KindAttestFail, Detail: err.Error()})
		_ = sendMsg(conn, 1, &welcomeMsg{Error: "attestation failed"})
		return nil, nil, fmt.Errorf("attestation: %w", err)
	}
	aead, err := cryptox.NewAEAD(sessionKey)
	return &welcomeMsg{AttestPub: sh.PublicKey, QuoteMeasurement: sh.Quote.Measurement[:],
		QuoteReportData: sh.Quote.ReportData, QuoteSignature: sh.Quote.Signature}, aead, err
}

func (w *welcomeMsg) quote() sgx.Quote {
	var m sgx.Measurement
	copy(m[:], w.QuoteMeasurement)
	return sgx.Quote{
		Measurement: m,
		ReportData:  w.QuoteReportData,
		Signature:   w.QuoteSignature,
	}
}
