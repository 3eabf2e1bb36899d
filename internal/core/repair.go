package core

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"precursor/internal/audit"
	"precursor/internal/cryptox"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
)

// Anti-entropy repair sessions (PROTOCOL.md §10).
//
// A repair session is an attested, transport-encrypted control channel a
// *client* opens against one replica to move sealed state between group
// members: fetch a sealed snapshot from a healthy donor, push it into a
// restarted replica, and enumerate the keys dirtied since the donor's
// seal so only the delta needs replaying through the data path.
//
// Trust model: the sealed snapshot is opaque to the repairing client —
// it is AEAD-sealed under the replica group's shared sealing key
// (same platform + same enclave image), so the client ferries bytes it
// can neither read nor forge. The delta keys and all framing travel
// under the session key established by the same remote attestation the
// data path uses. Value plaintext never appears: delta replay re-reads
// each key through the ordinary MAC-verified Get and re-writes it with a
// fresh one-time key, exactly like any other client write.

// repairRole is the helloMsg.Role selecting a repair session.
const repairRole = "repair"

const (
	// repairBufSize is the receive-buffer (and hence max frame) size for
	// repair messages — far larger than bootstrapBufSize because sealed
	// snapshot chunks ride in them.
	repairBufSize = 256 * 1024
	// repairChunk caps raw payload bytes per message, leaving headroom
	// for base64 expansion, JSON framing and the AEAD tag.
	repairChunk = 96 * 1024
	// repairIdleTimeout bounds a server-side wait for the next repair
	// request; an abandoned session must not pin its goroutine.
	repairIdleTimeout = 60 * time.Second
	// repairMaxSnapshot bounds a pushed snapshot's declared size.
	repairMaxSnapshot = 1 << 31
)

// Repair message opcodes.
const (
	repairOpGen           = "gen"            // query the last seal generation
	repairOpSnapshot      = "snapshot"       // seal now; reply carries gen+size
	repairOpSnapNext      = "snap-next"      // next snapshot chunk
	repairOpChunk         = "chunk"          // snapshot chunk reply
	repairOpDelta         = "delta"          // keys dirtied since Gen
	repairOpDeltaNext     = "delta-next"     // next page of delta keys
	repairOpKeys          = "keys"           // delta keys reply
	repairOpRestoreBegin  = "restore-begin"  // start pushing a snapshot of Size
	repairOpRestoreChunk  = "restore-chunk"  // one pushed chunk
	repairOpRestoreCommit = "restore-commit" // apply the pushed snapshot
	repairOpBye           = "bye"            // end the session
	repairOpOK            = "ok"             // generic success reply
	repairOpError         = "error"          // failure reply, Error set
)

// Direction-bound AEAD additional data: a reflected frame (same key,
// wrong direction) fails authentication.
var (
	repairADClient = [4]byte{'r', 'p', 'r', 'C'}
	repairADServer = [4]byte{'r', 'p', 'r', 'S'}
)

// repairMsg is one repair-protocol message. The whole struct is sealed
// under the session AEAD; keys are carried as base64 []byte so non-UTF-8
// keys survive the JSON encoding.
type repairMsg struct {
	Op      string   `json:"op"`
	Seq     uint64   `json:"seq"`
	Gen     uint64   `json:"gen,omitempty"`
	Size    int      `json:"size,omitempty"`
	Data    []byte   `json:"data,omitempty"`
	Keys    [][]byte `json:"keys,omitempty"`
	More    bool     `json:"more,omitempty"`
	Entries int      `json:"entries,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// repairLink frames sealed repair messages over two-sided SEND/RECV in
// strict ping-pong, with per-direction sequence numbers (replay and
// reorder protection within the session).
type repairLink struct {
	conn    rdma.Conn
	aead    *cryptox.AEAD
	timeout time.Duration
	stop    <-chan struct{}
	sendAD  [4]byte
	recvAD  [4]byte

	wr      uint64
	sendSeq uint64
	recvSeq uint64
}

// postRecv posts one repair-sized receive buffer. The protocol is strict
// ping-pong, so each side posts exactly one recv before each expected
// message — never racing an empty receive queue.
func (l *repairLink) postRecv() error {
	l.wr++
	if err := l.conn.PostRecv(l.wr, make([]byte, repairBufSize)); err != nil {
		return fmt.Errorf("post repair recv: %w", err)
	}
	return nil
}

func (l *repairLink) send(m *repairMsg) error {
	l.sendSeq++
	m.Seq = l.sendSeq
	pt, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("marshal repair message: %w", err)
	}
	sealed, err := l.aead.Seal(pt, l.sendAD[:])
	if err != nil {
		return err
	}
	if len(sealed) > repairBufSize {
		return fmt.Errorf("%w: repair frame %d bytes", ErrTooLarge, len(sealed))
	}
	l.wr++
	if err := l.conn.PostSend(l.wr, sealed, false, false); err != nil {
		return fmt.Errorf("send repair message: %w", err)
	}
	return nil
}

func (l *repairLink) recv() (*repairMsg, error) {
	deadline := time.Now().Add(l.timeout)
	for {
		if l.stop != nil {
			select {
			case <-l.stop:
				return nil, ErrClosed
			default:
			}
		}
		comps := l.conn.PollRecv(1)
		if len(comps) == 0 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("%w: repair", ErrTimeout)
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		c := comps[0]
		if c.Status != rdma.StatusOK {
			return nil, fmt.Errorf("%w: repair recv: %v", ErrClosed, c.Err)
		}
		pt, err := l.aead.Open(c.Buf[:c.Len], l.recvAD[:])
		if err != nil {
			return nil, ErrAuth
		}
		var m repairMsg
		if err := json.Unmarshal(pt, &m); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadResponse, err)
		}
		l.recvSeq++
		if m.Seq != l.recvSeq {
			return nil, fmt.Errorf("%w: repair sequence %d, want %d", ErrBadResponse, m.Seq, l.recvSeq)
		}
		return &m, nil
	}
}

// call runs one client-side request/response exchange.
func (l *repairLink) call(m *repairMsg) (*repairMsg, error) {
	if err := l.postRecv(); err != nil {
		return nil, err
	}
	if err := l.send(m); err != nil {
		return nil, err
	}
	resp, err := l.recv()
	if err != nil {
		return nil, err
	}
	if resp.Op == repairOpError {
		return nil, repairRemoteError(resp.Error)
	}
	return resp, nil
}

// repairRemoteError maps a peer's error string back onto the typed
// errors the repair orchestration branches on.
func repairRemoteError(msg string) error {
	switch {
	case strings.Contains(msg, "seal generation"):
		return fmt.Errorf("%w (from peer)", ErrSealGeneration)
	case strings.Contains(msg, "delta log truncated"):
		return fmt.Errorf("%w (from peer)", ErrDeltaTruncated)
	case strings.Contains(msg, "rollback"):
		return fmt.Errorf("%w (from peer)", ErrSnapshotRollback)
	}
	return fmt.Errorf("precursor: repair peer error: %s", msg)
}

// serveRepair attests and serves one repair session inline on the
// connection handler's goroutine. It returns when the peer says bye,
// goes quiet past the idle timeout, or the server shuts down.
func (s *Server) serveRepair(conn rdma.Conn, hello *helloMsg) error {
	welcome, aead, err := s.respondAttest(conn, hello, 2)
	if err != nil {
		return err
	}
	link := &repairLink{
		conn: conn, aead: aead, timeout: repairIdleTimeout, stop: s.stopCh,
		sendAD: repairADServer, recvAD: repairADClient,
	}
	// Post the recv for the first request before the welcome flies, so
	// the peer's next send never races an empty receive queue.
	if err := link.postRecv(); err != nil {
		return err
	}
	if err := sendMsg(conn, 2, welcome); err != nil {
		return err
	}
	s.repairSessions.Add(1)
	s.logEvent("repair session attested")
	return s.repairLoop(link)
}

// repairLoop serves repair requests until the session ends. All session
// state (the pinned snapshot, delta pages, the incoming restore buffer)
// is goroutine-local — sessions are independent.
func (s *Server) repairLoop(link *repairLink) error {
	var (
		snap        bytes.Buffer // sealed snapshot being streamed out
		snapOff     int
		deltaKeys   []string // delta enumeration being paged out
		deltaOff    int
		restoreBuf  bytes.Buffer // pushed snapshot being assembled
		restoreSize = -1
	)
	pageKeys := func() *repairMsg {
		m := &repairMsg{Op: repairOpKeys}
		budget := repairChunk
		for deltaOff < len(deltaKeys) && budget > 0 {
			k := deltaKeys[deltaOff]
			m.Keys = append(m.Keys, []byte(k))
			budget -= len(k) + 8
			deltaOff++
		}
		m.More = deltaOff < len(deltaKeys)
		return m
	}
	for {
		m, err := link.recv()
		if err != nil {
			if errors.Is(err, ErrTimeout) || errors.Is(err, ErrClosed) {
				return nil // peer gone or server stopping: normal end
			}
			return err
		}
		var resp *repairMsg
		switch m.Op {
		case repairOpGen:
			resp = &repairMsg{Op: repairOpGen, Gen: s.SealGeneration()}
		case repairOpSnapshot:
			snap.Reset()
			snapOff = 0
			// Donor snapshots always carry payloads: a joiner cannot
			// resolve pointers into this node's value log.
			if err := s.seal(&snap, true); err != nil {
				resp = &repairMsg{Op: repairOpError, Error: err.Error()}
			} else {
				resp = &repairMsg{Op: repairOpSnapshot, Gen: s.SealGeneration(), Size: snap.Len()}
			}
		case repairOpSnapNext:
			data := snap.Bytes()
			end := min(snapOff+repairChunk, len(data))
			resp = &repairMsg{Op: repairOpChunk, Data: data[snapOff:end], More: end < len(data)}
			snapOff = end
		case repairOpDelta:
			keys, err := s.DeltaSince(m.Gen)
			if err != nil {
				resp = &repairMsg{Op: repairOpError, Error: err.Error()}
			} else {
				deltaKeys, deltaOff = keys, 0
				resp = pageKeys()
			}
		case repairOpDeltaNext:
			resp = pageKeys()
		case repairOpRestoreBegin:
			if m.Size < 0 || m.Size > repairMaxSnapshot {
				resp = &repairMsg{Op: repairOpError, Error: "bad snapshot size"}
			} else {
				restoreBuf.Reset()
				restoreSize = m.Size
				resp = &repairMsg{Op: repairOpOK}
			}
		case repairOpRestoreChunk:
			if restoreSize < 0 || restoreBuf.Len()+len(m.Data) > restoreSize {
				resp = &repairMsg{Op: repairOpError, Error: "snapshot overrun"}
			} else {
				restoreBuf.Write(m.Data)
				resp = &repairMsg{Op: repairOpOK}
			}
		case repairOpRestoreCommit:
			switch {
			case restoreSize < 0:
				resp = &repairMsg{Op: repairOpError, Error: "no restore in progress"}
			case restoreBuf.Len() != restoreSize:
				resp = &repairMsg{Op: repairOpError, Error: "short snapshot"}
			default:
				err := s.RestoreReplica(bytes.NewReader(restoreBuf.Bytes()))
				restoreBuf.Reset()
				restoreSize = -1
				if err != nil {
					resp = &repairMsg{Op: repairOpError, Error: err.Error()}
				} else {
					resp = &repairMsg{Op: repairOpOK, Entries: s.table.Len(), Gen: s.SealGeneration()}
				}
			}
		case repairOpBye:
			// Final reply; no further recv is posted.
			_ = link.send(&repairMsg{Op: repairOpOK})
			return nil
		default:
			resp = &repairMsg{Op: repairOpError, Error: fmt.Sprintf("unknown repair op %q", m.Op)}
		}
		if resp != nil && resp.Op == repairOpError {
			// Single chokepoint for every failed repair request — one
			// audit record regardless of which arm built the error reply.
			s.cfg.Audit.Add(audit.Record{Kind: audit.KindRepairAnomaly,
				Detail: fmt.Sprintf("repair %s: %s", m.Op, resp.Error)})
		}
		if err := link.postRecv(); err != nil {
			return err
		}
		if err := link.send(resp); err != nil {
			return err
		}
	}
}

// RepairConfig configures ConnectRepair.
type RepairConfig struct {
	// Conn is the freshly dialed queue pair; required.
	Conn rdma.Conn
	// PlatformKey verifies the replica's attestation quotes; required.
	PlatformKey *ecdsa.PublicKey
	// Measurement pins the expected enclave build.
	Measurement sgx.Measurement
	// Timeout bounds each repair exchange (default 30 s — snapshot
	// chunks are large and repair is off the latency-critical path).
	Timeout time.Duration
}

// RepairClient drives one replica's repair endpoint: fetch a sealed
// snapshot, push a sealed snapshot, and enumerate delta keys. Safe for
// use by one goroutine at a time (an internal mutex enforces it).
type RepairClient struct {
	mu   sync.Mutex
	link repairLink
}

// ConnectRepair performs remote attestation against the replica's
// enclave and opens a repair session (helloMsg role "repair").
func ConnectRepair(cfg RepairConfig) (*RepairClient, error) {
	if cfg.Conn == nil {
		return nil, fmt.Errorf("precursor: RepairConfig.Conn is required")
	}
	if cfg.PlatformKey == nil {
		return nil, fmt.Errorf("precursor: PlatformKey is required for attestation")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	_, aead, err := attest(cfg.Conn, helloMsg{Role: repairRole}, cfg.PlatformKey, cfg.Measurement, time.Now().Add(timeout))
	if err != nil {
		return nil, err
	}
	return &RepairClient{link: repairLink{
		conn: cfg.Conn, aead: aead, timeout: timeout,
		sendAD: repairADClient, recvAD: repairADServer,
	}}, nil
}

// SealGeneration asks the replica for its last seal generation.
func (r *RepairClient) SealGeneration() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp, err := r.link.call(&repairMsg{Op: repairOpGen})
	if err != nil {
		return 0, err
	}
	return resp.Gen, nil
}

// FetchSnapshot has the replica seal its state now and streams the
// sealed snapshot into w, returning the seal generation. The bytes are
// opaque to the caller (sealed under the replica group's sealing key).
func (r *RepairClient) FetchSnapshot(w io.Writer) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp, err := r.link.call(&repairMsg{Op: repairOpSnapshot})
	if err != nil {
		return 0, err
	}
	if resp.Op != repairOpSnapshot {
		return 0, fmt.Errorf("%w: unexpected repair op %q", ErrBadResponse, resp.Op)
	}
	gen, size := resp.Gen, resp.Size
	got := 0
	for got < size {
		ch, err := r.link.call(&repairMsg{Op: repairOpSnapNext})
		if err != nil {
			return 0, err
		}
		if ch.Op != repairOpChunk {
			return 0, fmt.Errorf("%w: unexpected repair op %q", ErrBadResponse, ch.Op)
		}
		if _, err := w.Write(ch.Data); err != nil {
			return 0, err
		}
		got += len(ch.Data)
		if !ch.More {
			break
		}
	}
	if got != size {
		return 0, fmt.Errorf("%w: snapshot stream short (%d of %d bytes)", ErrBadResponse, got, size)
	}
	return gen, nil
}

// PushSnapshot streams a sealed snapshot into the replica, which applies
// it via RestoreReplica (fast-forwarding its rollback counter to the
// snapshot's stamp). Returns the replica's entry count after the
// restore.
func (r *RepairClient) PushSnapshot(src io.Reader) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := io.ReadAll(src)
	if err != nil {
		return 0, err
	}
	if _, err := r.link.call(&repairMsg{Op: repairOpRestoreBegin, Size: len(data)}); err != nil {
		return 0, err
	}
	for off := 0; off < len(data); off += repairChunk {
		end := min(off+repairChunk, len(data))
		if _, err := r.link.call(&repairMsg{Op: repairOpRestoreChunk, Data: data[off:end]}); err != nil {
			return 0, err
		}
	}
	resp, err := r.link.call(&repairMsg{Op: repairOpRestoreCommit})
	if err != nil {
		return 0, err
	}
	return resp.Entries, nil
}

// DeltaSince enumerates the keys the replica dirtied since the seal at
// generation gen (paged transparently). ErrSealGeneration means gen is
// stale — fetch a fresh snapshot; ErrDeltaTruncated means the replica's
// delta log overflowed — fall back to a full snapshot.
func (r *RepairClient) DeltaSince(gen uint64) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp, err := r.link.call(&repairMsg{Op: repairOpDelta, Gen: gen})
	if err != nil {
		return nil, err
	}
	var keys []string
	for {
		if resp.Op != repairOpKeys {
			return nil, fmt.Errorf("%w: unexpected repair op %q", ErrBadResponse, resp.Op)
		}
		for _, k := range resp.Keys {
			keys = append(keys, string(k))
		}
		if !resp.More {
			return keys, nil
		}
		resp, err = r.link.call(&repairMsg{Op: repairOpDeltaNext})
		if err != nil {
			return nil, err
		}
	}
}

// Close ends the session (best-effort bye) and closes the connection.
func (r *RepairClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.link.postRecv(); err == nil {
		if err := r.link.send(&repairMsg{Op: repairOpBye}); err == nil {
			saved := r.link.timeout
			r.link.timeout = 500 * time.Millisecond
			_, _ = r.link.recv()
			r.link.timeout = saved
		}
	}
	return r.link.conn.Close()
}
