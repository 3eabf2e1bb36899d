package ringbuf

import (
	"runtime"
	"sync/atomic"
	"time"
)

// MinSleep is the sleep a waiter asks for when all it wants is to give the
// processor away — to the netpoller and the TCP fabric's agents above all;
// the runtime rounds it up to whatever its timers resolve.
const MinSleep = 2 * time.Microsecond

// Phase lengths of the two ladders the store climbs. The early phases are
// for a peer that is a goroutine of this process; over a transport that
// needs the netpoller a poller has neither and a waiter no yield (see
// Ladder).
//
// A trusted thread (Poller*) spins while traffic is hot, then yields for
// long: the phase is cheap — whatever is runnable gets the processor —
// and a poller that sleeps picks a request up tens of microseconds late,
// after which the client's wait has to sleep too, the client thinks longer
// between requests, and the pair settles in the slow state.
//
// A client (Waiter*) spins for a round trip to a poller on a core of its
// own and yields for a server that has a batch frame to work through or
// has to be scheduled first; its ladder is adaptive, so a connection whose
// replies do not come that soon — an oversubscribed host — goes straight
// to MinSleep steps. Over the TCP fabric both park on the write instead
// (see Ladder's Wake), from the start.
const (
	PollerSpin  = 10 * time.Microsecond
	PollerYield = 2 * time.Millisecond
	WaiterSpin  = 20 * time.Microsecond
	WaiterYield = 200 * time.Microsecond
)

// ParkCap is the Sleep of a ladder that parks on a Wake channel: a token
// ends the park as soon as a write lands, so the cap only bounds how often
// an idle waiter looks at all.
const ParkCap = time.Millisecond

// An adaptive ladder stops spinning after spinMisses waits in a row had to
// sleep, and from then on spins in one wait of every probeEvery to find out
// whether that still holds.
const (
	spinMisses = 3
	probeEvery = 64
)

// Ladder is the waiting half of every polling loop over a ring — a reader
// awaiting a frame, a writer awaiting credit: spin, then yield the
// processor, then sleep. A wait runs from the first Wait after a Done to
// the next Done, and its phases are bounded by the time elapsed since it
// began, never by a count of attempts, so a cheaper attempt does not reach
// the sleep sooner. Spin and Yield are the lengths of the first two phases
// and Sleep is how long each step of the last one sleeps (a step yields
// instead when Sleep is not positive: a pure busy-poll).
//
// With Adaptive set the early phases must earn their keep: a wait that
// ends before it had to sleep keeps them on, a few in a row that did sleep
// turn them off — the waiter then sleeps at once, which is what a slow
// transport or an oversubscribed host needs of it — and an occasional
// probing wait turns them back on when what is awaited arrives quickly
// again. A waiter whose transport needs the netpoller must set Yield to
// zero: to the Go scheduler a goroutine in a Gosched loop is runnable work,
// and the network is polled only when a P runs out of that. (A spin is no
// better, which is why an adaptive waiter drops it there within three
// waits and a poller, whose next request is a network round trip away,
// never has one.)
//
// With Wake set a step of the last phase parks instead of sleeping: it
// waits for a token on Wake — the channel the memory it polls is armed with
// (rdma.MemoryRegion.Arm) — or for Sleep, whichever comes first. Over a
// transport whose writes an agent goroutine applies that is the write
// itself waking the waiter, where a timer sleep would be late by up to the
// netpoller's resolution once every P went idle; such a waiter wants no
// early phase at all.
//
// A Ladder belongs to one waiting goroutine; only the counters may be read
// from elsewhere. The zero value sleeps never and yields always.
type Ladder struct {
	Spin, Yield, Sleep time.Duration
	Adaptive           bool
	Wake               chan struct{}
	// Clock replaces time.Now in tests.
	Clock func() time.Time

	timer *time.Timer // a park's cap, reused from park to park

	start    time.Time // when the wait began
	waiting  bool
	spinning bool // this wait has its spin and yield phases
	slept    bool // this wait outlasted its spin and yield phases
	off      bool // adaptive: waits do not spin, but for a probe
	misses   int  // consecutive spinning waits that slept
	skipped  int  // waits since the last one that spun, while off

	spins, yields, sleeps atomic.Uint64
	woken, capped         atomic.Uint64 // parks that ended on a token, on the cap
}

// Wait is called after an attempt came up empty. It takes the step the
// elapsed time calls for and reports whether the caller should try again:
// false once deadline has passed (a zero deadline never does), which also
// ends the wait.
func (l *Ladder) Wait(deadline time.Time) bool {
	now := l.now()
	if !l.waiting {
		l.waiting, l.start, l.slept = true, now, false
		l.spinning = l.spinsNext()
	}
	if !deadline.IsZero() && now.After(deadline) {
		l.slept = true
		l.Done()
		return false
	}
	elapsed := now.Sub(l.start)
	switch {
	case l.spinning && elapsed < l.Spin:
		l.spins.Add(1)
	case l.Sleep <= 0 || l.spinning && elapsed < l.Spin+l.Yield:
		l.yields.Add(1)
		runtime.Gosched()
	default:
		l.slept = true
		l.sleeps.Add(1)
		if l.Wake != nil {
			l.park()
		} else {
			time.Sleep(l.Sleep)
		}
	}
	return true
}

// park waits for a token on Wake for at most Sleep.
func (l *Ladder) park() {
	if l.timer == nil {
		l.timer = time.NewTimer(l.Sleep)
	} else {
		l.timer.Reset(l.Sleep)
	}
	select {
	case <-l.Wake:
		l.woken.Add(1)
		if !l.timer.Stop() {
			// Fired meanwhile: take its tick, so the next park does not
			// end on it (timers of a go.mod before 1.23 keep one).
			select {
			case <-l.timer.C:
			default:
			}
		}
	case <-l.timer.C:
		l.capped.Add(1)
	}
}

// Done ends the wait: what was awaited arrived, or the caller gave up. It
// is cheap to call when no wait is open.
func (l *Ladder) Done() {
	if !l.waiting {
		return
	}
	l.waiting = false
	if !l.Adaptive || !l.spinning {
		return
	}
	if !l.slept {
		l.misses, l.off = 0, false
	} else if l.misses++; l.misses >= spinMisses {
		l.off = true
	}
}

func (l *Ladder) now() time.Time {
	if l.Clock != nil {
		return l.Clock()
	}
	return time.Now()
}

// spinsNext decides whether the wait now beginning spins.
func (l *Ladder) spinsNext() bool {
	if !l.off {
		return true
	}
	if l.skipped++; l.skipped < probeEvery {
		return false
	}
	l.skipped = 0
	return true
}

// Steps returns how many steps the ladder has taken in each phase (a park
// is a step of the last one).
func (l *Ladder) Steps() (spins, yields, sleeps uint64) {
	return l.spins.Load(), l.yields.Load(), l.sleeps.Load()
}

// Parks returns how many parks ended on a Wake token and how many on the
// cap.
func (l *Ladder) Parks() (woken, capped uint64) {
	return l.woken.Load(), l.capped.Load()
}
