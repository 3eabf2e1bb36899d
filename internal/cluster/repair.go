package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"precursor/internal/audit"
	"precursor/internal/core"
	"precursor/internal/overload"
)

// Replica repair orchestration.
//
// The repair path is client-driven, like everything else in Precursor: a
// recovering replica never talks to its peers. Instead the cluster
// client (1) streams a sealed snapshot out of a healthy donor and pushes
// it into the target — the blob is AEAD-sealed under the group's shared
// sealing key and stamped with the donor's rollback counter, so the
// client ferries bytes it cannot read and the target verifies them; then
// (2) replays the donor's post-snapshot delta and the client's own
// missed-write journal through the ordinary data path, re-encrypting
// each value under a fresh one-time key. Only after the journal drains
// completely does the replica rejoin the serving set.

// RepairSession is one replica's anti-entropy endpoint, opened through
// Options.OpenRepair. *core.Client satisfies it: each method runs repair
// ops in the one batch frame of its attested session.
type RepairSession interface {
	// FetchSnapshot asks the replica to seal its state and streams the
	// sealed blob to w, returning the snapshot's seal generation.
	FetchSnapshot(w io.Writer) (uint64, error)
	// PushSnapshot streams a sealed snapshot into the replica, which
	// verifies and adopts it. Returns the replica's resulting entry count.
	PushSnapshot(r io.Reader) (int, error)
	// DeltaSince lists the keys the replica dirtied since this session's
	// FetchSnapshot of generation gen (core.ErrSealGeneration if gen is not
	// that snapshot's, core.ErrDeltaTruncated if the delta overflowed).
	DeltaSince(gen uint64) ([]string, error)
	// Close ends the session.
	Close() error
}

// probeKey is the key used for breaker probes against downed replicas.
// It is never written, so a healthy replica answers not-found — which
// proves liveness just as well as a hit.
const probeKey = "\x00precursor/probe"

// repairBatch bounds how many journal entries one drain pass claims, so
// rejoin latency stays bounded even under a write-heavy race.
const repairBatch = 256

// repairLoop is the background scan over replicated groups: it probes
// downed replicas whose backoff has elapsed and launches repair for
// replicas that are back up but not yet caught up. Each cycle waits a
// jittered interval (uniform in [interval/2, interval*1.5)) rather than
// a fixed tick, so a fleet of clients restarted together does not probe
// a recovering replica in lockstep and stampede it back down.
func (c *Client) repairLoop() {
	defer c.wg.Done()
	t := time.NewTimer(overload.Jitter(c.opts.RepairInterval))
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
		}
		t.Reset(overload.Jitter(c.opts.RepairInterval))
		for _, name := range c.order {
			g := c.groups[name]
			if g.single() {
				continue
			}
			for _, rep := range g.replicas {
				c.tendReplica(g, rep)
			}
		}
	}
}

// tendReplica advances one replica's recovery by at most one step:
// launch a probe if it is down and due, or a repair run if it is
// repairing and none is in flight.
func (c *Client) tendReplica(g *groupState, rep *replicaState) {
	rep.mu.Lock()
	if rep.down {
		tok, due := rep.probeLocked()
		rep.mu.Unlock()
		if due {
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.probeReplica(rep, tok)
			}()
		}
		return
	}
	if rep.repairing && !rep.repairBusy {
		rep.repairBusy = true
		rep.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.repairReplica(g, rep)
		}()
		return
	}
	rep.mu.Unlock()
}

// probeReplica runs the half-open probe: any data-level answer (even
// not-found) proves the replica is back.
func (c *Client) probeReplica(rep *replicaState, tok admitToken) {
	_, err := rep.backend.GetContext(context.Background(), probeKey)
	if err != nil && !isShardFailure(err) {
		err = nil // a data-level reply is a live replica
	}
	_ = c.observe(rep, tok, err)
}

// repairReplica runs one repair attempt and clears the busy flag. A
// failed attempt leaves the replica repairing; the next scan retries
// (typically with a different donor if the old one tripped).
func (c *Client) repairReplica(g *groupState, rep *replicaState) {
	err := c.runRepair(g, rep)
	rep.mu.Lock()
	rep.repairBusy = false
	rep.mu.Unlock()
	if err != nil {
		c.repairFailures.Add(1)
		c.opts.Audit.Add(audit.Record{Kind: audit.KindRepairAnomaly, Actor: rep.name,
			Detail: err.Error()})
		c.opts.Tracer.NoteFault("repair failed replica=" + rep.name)
	} else {
		rep.repairs.Add(1)
		c.repairsDone.Add(1)
		c.opts.Tracer.NoteFault("repair done replica=" + rep.name)
	}
}

// runRepair brings rep fully up to date: a donor snapshot + delta replay
// if its state is suspect, then a drain of the missed-write journal. The
// final empty-journal check and the up transition happen under the
// replica lock, the same lock admitWrite journals under — so no write
// can slip between "journal is empty" and "serving again".
//
// One replica of a group repairs at a time: a repairing peer may donate
// (see pickDonors), which is sound only while that peer's journal is not
// being drained under the reader.
func (c *Client) runRepair(g *groupState, rep *replicaState) error {
	g.repairMu.Lock()
	defer g.repairMu.Unlock()
	rep.mu.Lock()
	needFull := rep.needsFullSync || rep.journalDrop
	rep.mu.Unlock()
	donors := c.pickDonors(g, rep)
	if len(donors) == 0 {
		return fmt.Errorf("precursor/cluster: no healthy donor in group %q for %q", g.name, rep.name)
	}
	if needFull {
		if c.opts.OpenRepair == nil {
			return fmt.Errorf("precursor/cluster: replica %q needs a full sync but no repair transport is configured", rep.name)
		}
		donor := donors[0]
		if err := c.fullSync(donor, rep); err != nil {
			return fmt.Errorf("full sync %q from %q: %w", rep.name, donor.name, err)
		}
		// rep now holds the donor's state, so it is stale wherever the
		// donor is: it inherits the donor's journal (empty for an up donor).
		donor.mu.Lock()
		inherited := append([]string(nil), donor.journal...)
		donor.mu.Unlock()
		rep.mu.Lock()
		rep.needsFullSync = false
		rep.journalDrop = false
		rep.journal = append(rep.journal, inherited...)
		rep.mu.Unlock()
	}
	for {
		rep.mu.Lock()
		if len(rep.journal) == 0 {
			// Caught up. Flip to serving atomically with the emptiness
			// check; a concurrent write now goes to the live path.
			rep.repairing = false
			rep.missed.Store(0)
			rep.mu.Unlock()
			return nil
		}
		n := min(len(rep.journal), repairBatch)
		batch := append([]string(nil), rep.journal[:n]...)
		rep.journal = rep.journal[n:]
		rep.mu.Unlock()
		seen := make(map[string]struct{}, len(batch))
		for i, key := range batch {
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			donor, err := donorFor(g, rep, donors, key)
			if err == nil && donor != rep {
				err = c.replayKey(donor, rep, key)
			}
			if err != nil {
				// Put the unreplayed tail back so the next attempt
				// finishes the job (order is irrelevant: replay copies
				// the donor's *current* value).
				rep.mu.Lock()
				rep.journal = append(rep.journal, batch[i:]...)
				rep.mu.Unlock()
				return fmt.Errorf("replay %q onto %q: %w", key, rep.name, err)
			}
		}
	}
}

// pickDonors returns the peers rep can repair from. An up replica's state
// is complete, so one is enough. With none up, every live peer that is
// itself repairing with only a journal outstanding (no full sync, no
// journal overflow) qualifies: its state is complete except for the keys
// in that journal. Without those, two replicas that each missed a write
// would wait for each other forever.
func (c *Client) pickDonors(g *groupState, rep *replicaState) []*replicaState {
	var partial []*replicaState
	for _, peer := range g.replicas {
		if peer == rep {
			continue
		}
		peer.mu.Lock()
		live := !peer.down
		whole := live && !peer.repairing
		journalOnly := live && !peer.needsFullSync && !peer.journalDrop
		peer.mu.Unlock()
		if whole {
			return []*replicaState{peer}
		}
		if journalOnly {
			partial = append(partial, peer)
		}
	}
	return partial
}

// donorFor picks the replica whose version of key rep should end up
// with: a donor that did not miss the key, if there is one. When every
// donor journaled it too, nobody provably holds its latest write. In a
// group whose write quorum is every replica, a write any replica missed
// was never acked, so each surviving version is admissible and the
// replica whose name sorts first keeps its own — rep itself is returned
// when that is rep — which makes all of them converge. With a smaller
// quorum the missed write may have been acked, so the key waits for a
// better donor.
func donorFor(g *groupState, rep *replicaState, donors []*replicaState, key string) (*replicaState, error) {
	first := rep
	for _, d := range donors {
		d.mu.Lock()
		missed := slices.Contains(d.journal, key)
		d.mu.Unlock()
		if !missed {
			return d, nil
		}
		if d.name < first.name {
			first = d
		}
	}
	if g.quorum < len(g.replicas) {
		return nil, fmt.Errorf("precursor/cluster: every live replica of group %q missed a write to it", g.name)
	}
	return first, nil
}

// fullSync adopts the donor's sealed snapshot on the target, then
// replays the donor's post-snapshot delta. The delta is the donor
// session's own, so no other seal invalidates it; a failed attempt — a
// delta that overflowed included — leaves the replica needing a full
// sync, and the next repair scan starts over with a fresh snapshot.
func (c *Client) fullSync(donor, rep *replicaState) error {
	ds, err := c.opts.OpenRepair(donor.name)
	if err != nil {
		return fmt.Errorf("open donor session: %w", err)
	}
	defer ds.Close()
	ts, err := c.opts.OpenRepair(rep.name)
	if err != nil {
		return fmt.Errorf("open target session: %w", err)
	}
	defer ts.Close()
	var sealed bytes.Buffer
	gen, err := ds.FetchSnapshot(&sealed)
	if err != nil {
		return fmt.Errorf("fetch snapshot: %w", err)
	}
	if _, err := ts.PushSnapshot(bytes.NewReader(sealed.Bytes())); err != nil {
		return fmt.Errorf("push snapshot: %w", err)
	}
	keys, err := ds.DeltaSince(gen)
	if err != nil {
		return fmt.Errorf("delta since %d: %w", gen, err)
	}
	for _, key := range keys {
		if err := c.replayKey(donor, rep, key); err != nil {
			return fmt.Errorf("replay delta key: %w", err)
		}
	}
	return nil
}

// replayKey copies one key's current state from donor to rep through the
// ordinary (MAC-verified, re-encrypted) data path. Not-found on the
// donor means the key was deleted — mirror the delete.
func (c *Client) replayKey(donor, rep *replicaState, key string) error {
	ctx := context.Background() // repair is the client's own work: no caller's deadline or trace applies
	v, err := donor.backend.GetContext(ctx, key)
	switch {
	case err == nil:
		return rep.backend.PutContext(ctx, key, v)
	case errors.Is(err, core.ErrNotFound):
		if err := rep.backend.DeleteContext(ctx, key); err != nil && !errors.Is(err, core.ErrNotFound) {
			return err
		}
		return nil
	default:
		return err
	}
}
