package overload

import (
	"sync"
	"testing"
	"time"
)

func TestGateAdmitsWhenIdle(t *testing.T) {
	g := NewGate(GateConfig{})
	for _, kind := range []Kind{KindRead, KindWrite} {
		ok, hint := g.Admit(kind, 0)
		if !ok {
			t.Fatalf("idle gate shed kind %d", kind)
		}
		if hint != 0 {
			t.Fatalf("admission carried hint %v", hint)
		}
		g.Done(time.Microsecond)
	}
	st := g.Stats()
	if st.Admitted != 2 || st.ShedReads+st.ShedWrites != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestGateWritePreference(t *testing.T) {
	// With a 10ms write ceiling and 0.5 read fraction, an estimated
	// queue delay between 5ms and 10ms sheds reads but admits writes.
	g := NewGate(GateConfig{MaxQueueDelay: 10 * time.Millisecond, ReadFraction: 0.5})
	// Seed the service-time EWMA near 1ms per op.
	for i := 0; i < 200; i++ {
		g.inflight.Add(1)
		g.Done(time.Millisecond)
	}
	backlog := 7 // ≈7ms estimated delay: above the read limit, below the write limit
	ok, hint := g.Admit(KindRead, backlog)
	if ok {
		t.Fatalf("read admitted at %v estimated delay", time.Duration(backlog)*g.Stats().ServiceEWMA)
	}
	if hint < DefaultBaseHint {
		t.Fatalf("shed hint %v below base", hint)
	}
	ok, _ = g.Admit(KindWrite, backlog)
	if !ok {
		t.Fatal("write shed below the write threshold (no write preference)")
	}
	g.Done(time.Millisecond)
	ok, _ = g.Admit(KindWrite, 20) // ≈20ms: above the write ceiling too
	if ok {
		t.Fatal("write admitted above the write threshold")
	}
	st := g.Stats()
	if st.ShedReads != 1 || st.ShedWrites != 1 {
		t.Fatalf("shed counters: %+v", st)
	}
}

func TestGateInflightCap(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 2})
	for i := 0; i < 2; i++ {
		if ok, _ := g.Admit(KindWrite, 0); !ok {
			t.Fatal("shed below the in-flight cap")
		}
	}
	if ok, _ := g.Admit(KindWrite, 0); ok {
		t.Fatal("admitted above the in-flight cap")
	}
	g.Done(time.Microsecond)
	if ok, _ := g.Admit(KindWrite, 0); !ok {
		t.Fatal("shed after a slot freed")
	}
}

func TestGateDrainingShedsEverything(t *testing.T) {
	g := NewGate(GateConfig{})
	g.SetDraining(true)
	if !g.Draining() {
		t.Fatal("Draining() false after SetDraining(true)")
	}
	for _, kind := range []Kind{KindRead, KindWrite} {
		ok, hint := g.Admit(kind, 0)
		if ok {
			t.Fatalf("draining gate admitted kind %d", kind)
		}
		if hint <= 0 {
			t.Fatal("draining shed carried no hint")
		}
	}
	g.SetDraining(false)
	if ok, _ := g.Admit(KindWrite, 0); !ok {
		t.Fatal("gate still shedding after drain cleared")
	}
}

func TestNilGateAdmitsAll(t *testing.T) {
	var g *Gate
	if ok, _ := g.Admit(KindWrite, 1000); !ok {
		t.Fatal("nil gate shed")
	}
	g.Done(time.Second) // must not panic
	g.SetDraining(true)
	if g.Draining() {
		t.Fatal("nil gate draining")
	}
	if st := g.Stats(); st != (GateStats{}) {
		t.Fatalf("nil gate stats: %+v", st)
	}
}

func TestGateConcurrent(t *testing.T) {
	g := NewGate(GateConfig{MaxInflight: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if ok, _ := g.Admit(KindWrite, i%32); ok {
					g.Done(time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	if got := g.Stats().Inflight; got != 0 {
		t.Fatalf("inflight leaked: %d", got)
	}
}

func TestRetryBudgetBoundsAmplification(t *testing.T) {
	b := NewRetryBudget(4, 0.1)
	// Drain the initial allowance.
	for i := 0; i < 4; i++ {
		if !b.TrySpend() {
			t.Fatalf("spend %d denied with a full bucket", i)
		}
	}
	if b.TrySpend() {
		t.Fatal("spend granted on an empty bucket")
	}
	// Sustained phase: 100 successes fund at most 10 retries (ratio 0.1).
	granted := 0
	for i := 0; i < 100; i++ {
		b.OnSuccess()
		if i%10 == 9 { // try a retry every 10 ops
			if b.TrySpend() {
				granted++
			}
		}
	}
	if granted > 10 {
		t.Fatalf("amplification unbounded: %d retries funded by 100 successes", granted)
	}
	st := b.Stats()
	if st.Denied == 0 {
		t.Fatal("budget never denied despite pressure")
	}
}

// TestRetryBudgetHedgesSpendOnlyEarned: a fresh bucket is full of standing
// allowance that retries may spend and hedges may not; a hedge needs a
// token ten successes deposited (at the default ratio), and retries spend
// the standing allowance before what was earned.
func TestRetryBudgetHedgesSpendOnlyEarned(t *testing.T) {
	b := NewRetryBudget(DefaultBudgetMax, DefaultBudgetRatio)
	for i := 1; i <= 9; i++ {
		b.OnSuccess()
		if b.TrySpendEarned() {
			t.Fatalf("hedge granted after %d successes", i)
		}
	}
	b.OnSuccess()
	if !b.TrySpendEarned() {
		t.Fatal("hedge denied after ten successes")
	}
	if b.TrySpendEarned() {
		t.Fatal("a second hedge granted on one earned token")
	}
	hedges := 0
	for i := 0; i < 1000; i++ {
		b.OnSuccess()
		if b.TrySpendEarned() {
			hedges++
		}
	}
	if hedges > 100 {
		t.Fatalf("%d hedges funded by 1000 successes, want at most 100", hedges)
	}
	// Retries spend the standing allowance first: ten earned tokens
	// survive a retry.
	b = NewRetryBudget(DefaultBudgetMax, DefaultBudgetRatio)
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if !b.TrySpend() {
		t.Fatal("retry denied from a bucket with standing allowance")
	}
	for i := 0; i < 10; i++ {
		if !b.TrySpendEarned() {
			t.Fatalf("hedge %d denied: a retry spent an earned token", i)
		}
	}
}

// TestRetryBudgetWritesFundOnlyRetries: a write's success deposits
// standing allowance, which retries spend and hedges do not.
func TestRetryBudgetWritesFundOnlyRetries(t *testing.T) {
	b := NewRetryBudget(4, DefaultBudgetRatio)
	for b.TrySpend() {
	}
	for i := 0; i < 20; i++ {
		b.OnWriteSuccess()
	}
	if b.TrySpendEarned() {
		t.Fatal("a hedge spent what writes deposited")
	}
	if !b.TrySpend() || !b.TrySpend() || b.TrySpend() {
		t.Fatal("twenty write successes did not fund exactly two retries")
	}
}

func TestRetryBudgetCap(t *testing.T) {
	b := NewRetryBudget(2, 1)
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("bucket overfilled: %v tokens with cap 2", got)
	}
}

func TestNilBudgetGrantsAll(t *testing.T) {
	var b *RetryBudget
	b.OnSuccess() // must not panic
	if !b.TrySpend() {
		t.Fatal("nil budget denied a spend")
	}
	if b.Tokens() != 0 {
		t.Fatal("nil budget has tokens")
	}
	if st := b.Stats(); st != (BudgetStats{}) {
		t.Fatalf("nil budget stats: %+v", st)
	}
}

func TestRetryBudgetConcurrent(t *testing.T) {
	b := NewRetryBudget(DefaultBudgetMax, DefaultBudgetRatio)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				b.OnSuccess()
				b.TrySpend()
			}
		}()
	}
	wg.Wait()
	if got := b.Tokens(); got < 0 || got > DefaultBudgetMax {
		t.Fatalf("tokens out of range: %v", got)
	}
}

func TestJitterRange(t *testing.T) {
	const d = 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := Jitter(d)
		if j < d/2 || j >= d/2+d {
			t.Fatalf("jitter %v outside [%v, %v)", j, d/2, d/2+d)
		}
	}
	if Jitter(0) != 0 || Jitter(-time.Second) != 0 {
		t.Fatal("non-positive duration not zeroed")
	}
}
