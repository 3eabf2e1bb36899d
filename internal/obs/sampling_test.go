package obs

import (
	"errors"
	"testing"
	"time"
)

// TestTailSamplingKeepsEssential checks the tail-sampling contract: with
// a retain-nothing probability, unremarkable traces are discarded while
// errors, unconfirmed writes, fault-annotated and slow operations are
// all retained.
func TestTailSamplingKeepsEssential(t *testing.T) {
	tr := New(Config{
		Side: SideServer, Ring: 16,
		TailSample:    -1,
		SlowThreshold: 10 * time.Millisecond,
		SlowLogEvery:  -1,
	})

	// Unremarkable: fast, clean — must be discarded.
	for i := 0; i < 5; i++ {
		op := tr.Start(0, "get")
		op.Finish()
	}
	if got := len(tr.Recent()); got != 0 {
		t.Fatalf("retained %d unremarkable traces, want 0", got)
	}
	if tr.Discarded() != 5 || tr.Retained() != 0 {
		t.Fatalf("retained=%d discarded=%d, want 0/5", tr.Retained(), tr.Discarded())
	}

	// Error op: retained.
	op := tr.Start(0, "get")
	op.SetOid(1)
	op.SetError(errors.New("boom"))
	op.Finish()

	// Unconfirmed write: retained.
	op = tr.Start(0, "put")
	op.SetOid(2)
	op.MarkUnconfirmed()
	op.Finish()

	// Fault-annotated: retained.
	op = tr.Start(0, "put")
	op.SetOid(3)
	tr.NoteFault("chaos: injected corrupt")
	op.Finish()

	// Slow: retained (backdated start, so Finish sees >= threshold).
	op = tr.StartAt(0, "get", Now()-int64(20*time.Millisecond))
	op.SetOid(4)
	op.Finish()

	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("retained %d essential traces, want 4: %+v", len(recent), recent)
	}
	if tr.Retained() != 4 {
		t.Fatalf("Retained() = %d, want 4", tr.Retained())
	}
	// Histograms recorded every op regardless of retention.
	for _, sq := range tr.Snapshot() {
		if sq.Stage == SrvTotal && sq.Quantiles.Count != 9 {
			t.Fatalf("srv_total histogram count = %d, want 9", sq.Quantiles.Count)
		}
	}
}

// TestTailSamplingZeroKeepsAll checks TailSample 0 (the zero value every
// pre-tail-sampling caller gets) retains everything.
func TestTailSamplingZeroKeepsAll(t *testing.T) {
	tr := New(Config{Side: SideClient, Ring: 16})
	for i := 0; i < 8; i++ {
		op := tr.Start(0, "get")
		op.Finish()
	}
	if got := len(tr.Recent()); got != 8 {
		t.Fatalf("retained %d, want 8", got)
	}
	if tr.Discarded() != 0 {
		t.Fatalf("Discarded() = %d, want 0", tr.Discarded())
	}
}

// TestAdoptRefInheritsSampling checks an op that adopted a propagated
// context keeps the origin's trace/parent ids and its sampling decision
// — even against a local retain-nothing probability.
func TestAdoptRefInheritsSampling(t *testing.T) {
	tr := New(Config{Side: SideServer, Ring: 8, TailSample: -1})

	op := tr.Start(0, "get")
	op.AdoptRef(SpanRef{TraceID: 77, SpanID: 33, Sampled: true})
	op.Finish()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("adopted sampled trace not retained (got %d)", len(recent))
	}
	got := recent[0]
	if got.ID != 77 || got.Parent != 33 || !got.Sampled {
		t.Fatalf("adopted identity wrong: %+v", got)
	}
	if got.Span == 0 || got.Span == 33 {
		t.Fatalf("own span id = %d, want fresh nonzero != parent", got.Span)
	}

	// Origin said "not sampled": an unremarkable adopted op is dropped.
	op = tr.Start(0, "get")
	op.AdoptRef(SpanRef{TraceID: 78, SpanID: 34, Sampled: false})
	op.Finish()
	if got := len(tr.Recent()); got != 1 {
		t.Fatalf("unsampled adopted trace retained (recent = %d)", got)
	}

	// Zero ref is a no-op: the op keeps its own identity.
	op = tr.Start(0, "put")
	op.AdoptRef(SpanRef{})
	ref := op.Ref()
	if !ref.Valid() || ref.TraceID == 77 {
		t.Fatalf("zero adopt corrupted identity: %+v", ref)
	}
	op.Finish()
}

// TestTakeExemplar checks per-stage exemplars record the slowest recent
// op and reset on read (one exemplar per scrape).
func TestTakeExemplar(t *testing.T) {
	tr := New(Config{Side: SideServer, Ring: 4})

	if _, _, ok := tr.TakeExemplar(SrvTotal); ok {
		t.Fatal("exemplar present before any op")
	}

	fast := tr.StartAt(0, "get", Now()-int64(time.Millisecond))
	fast.Finish()
	slow := tr.StartAt(0, "get", Now()-int64(50*time.Millisecond))
	slowID := slow.TraceID()
	slow.Finish()

	id, dur, ok := tr.TakeExemplar(SrvTotal)
	if !ok || id != slowID {
		t.Fatalf("exemplar id = %x ok=%v, want slow op %x", id, ok, slowID)
	}
	if dur < 50*time.Millisecond {
		t.Fatalf("exemplar dur = %v, want >= 50ms", dur)
	}
	if _, _, ok := tr.TakeExemplar(SrvTotal); ok {
		t.Fatal("exemplar not reset by Take")
	}
	if _, _, ok := tr.TakeExemplar(NumStages); ok {
		t.Fatal("out-of-range stage returned an exemplar")
	}
}
