package sgx

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by platform and enclave operations.
var (
	ErrEPCExhausted   = errors.New("sgx: enclave heap exceeds configured maximum")
	ErrQuoteInvalid   = errors.New("sgx: quote signature invalid")
	ErrMeasurement    = errors.New("sgx: unexpected enclave measurement")
	ErrEnclaveStopped = errors.New("sgx: enclave destroyed")
)

// Platform models one SGX-capable machine: it owns the attestation signing
// key (standing in for the Intel quoting infrastructure) and the EPC
// configuration shared by all enclaves it hosts.
type Platform struct {
	epcBytes         int64
	transitionCycles uint64
	faultCycles      uint64

	signKey *ecdsa.PrivateKey
	// sealSecret stands in for the CPU's fused sealing root: sealing keys
	// are derived from it per enclave measurement, so an enclave restarted
	// from the same binary on the same platform recovers the same key —
	// SGX's MRENCLAVE sealing policy.
	sealSecret []byte

	mu       sync.Mutex
	enclaves []*Enclave
}

// PlatformOption configures a Platform.
type PlatformOption interface {
	apply(*Platform)
}

type epcOption int64

func (o epcOption) apply(p *Platform) { p.epcBytes = int64(o) }

// WithEPCBytes overrides the usable EPC size (default 93 MiB). The
// evaluation's Ice-Lake comparison uses 188 MiB.
func WithEPCBytes(n int64) PlatformOption { return epcOption(n) }

type transitionOption uint64

func (o transitionOption) apply(p *Platform) { p.transitionCycles = uint64(o) }

// WithTransitionCycles overrides the modelled ecall/ocall cost.
func WithTransitionCycles(c uint64) PlatformOption { return transitionOption(c) }

type faultOption uint64

func (o faultOption) apply(p *Platform) { p.faultCycles = uint64(o) }

// WithPageFaultCycles overrides the modelled EPC paging cost.
func WithPageFaultCycles(c uint64) PlatformOption { return faultOption(c) }

// NewPlatform creates an SGX platform with a fresh attestation key.
func NewPlatform(opts ...PlatformOption) (*Platform, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attestation key: %w", err)
	}
	sealSecret := make([]byte, 32)
	if _, err := rand.Read(sealSecret); err != nil {
		return nil, fmt.Errorf("sealing root: %w", err)
	}
	p := &Platform{
		epcBytes:         DefaultEPCBytes,
		transitionCycles: TransitionCycles,
		faultCycles:      PageFaultCycles,
		signKey:          key,
		sealSecret:       sealSecret,
	}
	for _, o := range opts {
		o.apply(p)
	}
	return p, nil
}

// AttestationPublicKey returns the platform's quote-verification key. In a
// real deployment clients would obtain this through the Intel attestation
// service; here it is distributed out of band.
func (p *Platform) AttestationPublicKey() *ecdsa.PublicKey {
	return &p.signKey.PublicKey
}

// EPCBytes returns the usable EPC size for enclaves on this platform.
func (p *Platform) EPCBytes() int64 { return p.epcBytes }

// CreateEnclave loads an enclave whose identity is the given image bytes.
// The measurement is the SHA-256 of the image, mirroring MRENCLAVE. The
// imagePages parameter is the number of EPC pages the loaded code and
// static data occupy before any heap allocation (ShieldStore's statically
// allocated structures make this large; Precursor keeps it tiny).
func (p *Platform) CreateEnclave(image []byte, imagePages int) *Enclave {
	e := &Enclave{
		platform:    p,
		measurement: Measurement(sha256.Sum256(image)),
		imagePages:  imagePages,
		maxResident: p.epcBytes / PageSize,
	}
	p.mu.Lock()
	p.enclaves = append(p.enclaves, e)
	p.mu.Unlock()
	return e
}

// signQuote signs measurement‖reportData with the platform key.
func (p *Platform) signQuote(m Measurement, reportData []byte) ([]byte, error) {
	digest := quoteDigest(m, reportData)
	sig, err := ecdsa.SignASN1(rand.Reader, p.signKey, digest)
	if err != nil {
		return nil, fmt.Errorf("sign quote: %w", err)
	}
	return sig, nil
}

func quoteDigest(m Measurement, reportData []byte) []byte {
	h := sha256.New()
	h.Write([]byte("precursor-sgx-quote-v1"))
	h.Write(m[:])
	h.Write(reportData)
	return h.Sum(nil)
}
