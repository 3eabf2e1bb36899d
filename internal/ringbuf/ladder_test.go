package ringbuf

import (
	"testing"
	"time"
)

func nSpins(l *Ladder) uint64  { n, _, _ := l.Steps(); return n }
func nYields(l *Ladder) uint64 { _, n, _ := l.Steps(); return n }
func nSleeps(l *Ladder) uint64 { _, _, n := l.Steps(); return n }

// fakeClock advances by step at every reading: a waiter whose every
// attempt costs step.
type fakeClock struct {
	now  time.Time
	step time.Duration
}

func (c *fakeClock) read() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

// TestLadderPhasesDependOnElapsedTimeOnly: the same ladder under a 5 ns, a
// 500 ns and a 5 µs attempt leaves each phase at the same instant (to
// within one attempt) — after very different numbers of attempts. A ladder
// that counted attempts would reach its sleep a hundred times sooner with
// the cheap attempt.
func TestLadderPhasesDependOnElapsedTimeOnly(t *testing.T) {
	const spin, yield = 10 * time.Microsecond, 100 * time.Microsecond
	for _, step := range []time.Duration{5 * time.Nanosecond, 500 * time.Nanosecond, 5 * time.Microsecond} {
		clock := &fakeClock{now: time.Unix(1, 0), step: step}
		l := Ladder{Spin: spin, Yield: yield, Sleep: time.Nanosecond, Clock: clock.read}
		var start, firstYield, firstSleep time.Time
		for nSleeps(&l) == 0 {
			l.Wait(time.Time{})
			if start.IsZero() {
				start = clock.now
			}
			if firstYield.IsZero() && nYields(&l) == 1 {
				firstYield = clock.now
			}
		}
		firstSleep = clock.now
		if at := firstYield.Sub(start); at < spin || at >= spin+step {
			t.Errorf("step %v: first yield %v into the wait, want %v", step, at, spin)
		}
		if at := firstSleep.Sub(start); at < spin+yield || at >= spin+yield+step {
			t.Errorf("step %v: first sleep %v into the wait, want %v", step, at, spin+yield)
		}
		if got, want := nSpins(&l), uint64(spin/step); got != want {
			t.Errorf("step %v: %d spins, want %d", step, got, want)
		}
		// The next wait starts at the bottom again.
		l.Done()
		l.Wait(time.Time{})
		if nSpins(&l) != uint64(spin/step)+1 {
			t.Errorf("step %v: the wait after Done did not start by spinning", step)
		}
	}
}

func TestLadderDeadlineEndsTheWait(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1, 0), step: time.Microsecond}
	l := Ladder{Spin: time.Hour, Clock: clock.read}
	deadline := clock.now.Add(10 * time.Microsecond)
	steps := 0
	for l.Wait(deadline) {
		steps++
	}
	if steps != 10 {
		t.Errorf("%d steps before the deadline, want 10", steps)
	}
	if l.waiting {
		t.Error("a wait that ran out its deadline is still open")
	}
}

// TestLadderSpinEarnsItsKeep: an adaptive ladder keeps spinning while
// waits end before they have to sleep, stops after spinMisses in a row did
// sleep — from then on a wait's first step is a sleep — probes once every
// probeEvery waits, and spins again after one probe that ends in time.
func TestLadderSpinEarnsItsKeep(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1, 0), step: time.Microsecond}
	l := Ladder{Spin: 10 * time.Microsecond, Yield: 10 * time.Microsecond, Sleep: time.Nanosecond,
		Adaptive: true, Clock: clock.read}
	// wait runs one wait of n steps and reports the phase of its first.
	wait := func(n int) (spun bool) {
		spins := nSpins(&l)
		l.Wait(time.Time{})
		spun = nSpins(&l) > spins
		for i := 1; i < n; i++ {
			l.Wait(time.Time{})
		}
		l.Done()
		return spun
	}
	for i := 0; i < 100; i++ {
		// Three steps end inside the spin, fifteen inside the yield.
		if !wait(3 + 12*(i%2)) {
			t.Fatalf("wait %d: spin switched off although no wait had to sleep", i)
		}
	}
	// Two slow waits with a quick one between them do not switch it off…
	wait(30)
	wait(30)
	wait(3)
	if !wait(3) {
		t.Fatal("spin switched off by misses that were not consecutive")
	}
	// …spinMisses in a row do.
	for i := 0; i < spinMisses; i++ {
		if !wait(30) {
			t.Fatalf("slow wait %d did not spin: switched off too early", i)
		}
	}
	sleeps := nSleeps(&l)
	if wait(1) {
		t.Fatal("spin still on after spinMisses slow waits in a row")
	}
	if nSleeps(&l) != sleeps+1 {
		t.Fatal("a wait with the spin off did not sleep at its first step")
	}
	// While off: one probe in every probeEvery waits, and a slow probe
	// leaves it off.
	probes := 0
	for i := 0; i < 2*probeEvery; i++ {
		if wait(30) {
			probes++
		}
	}
	if probes != 2 {
		t.Fatalf("%d probes in %d waits, want 2", probes, 2*probeEvery)
	}
	// A probe that ends inside the spin switches it back on.
	for i := 0; !wait(3); i++ {
		if i > probeEvery {
			t.Fatal("no probe came")
		}
	}
	if !wait(3) {
		t.Fatal("spin still off after a probe that ended inside it")
	}
}
