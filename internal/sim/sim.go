// Package sim is a process-oriented discrete-event simulation kernel,
// a pure-Go substitute for the CSIM library [Sch85] used by the paper.
//
// The kernel has two layers:
//
//   - An event calendar (a binary min-heap keyed on simulated time,
//     with FIFO tie-breaking) driving arbitrary callbacks.  Events are
//     stored by value, so a schedule/fire cycle allocates nothing once
//     the heap's backing array has grown.
//
//   - A process layer in the CSIM style: a Process is a goroutine that
//     can Hold (advance simulated time) or Wait on a Signal.  The
//     kernel guarantees that exactly one process runs at a time and
//     that the simulated clock is globally consistent, so models
//     behave deterministically.
//
// The kernel is single-threaded from the model's point of view; the
// goroutines used by the process layer are strictly hand-over-hand
// scheduled and never run concurrently.
//
// Only the micro layer and the process-oriented cross-check of package
// sched run on this kernel.  The interval engines keep their own
// bounded calendars (sched's dueRing).
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds.
type Time float64

// Infinity is a time later than any event.
const Infinity = Time(math.MaxFloat64)

// Kernel is a discrete-event simulation instance.  A Kernel is not safe
// for concurrent use; all model code runs on the kernel's schedule.
type Kernel struct {
	now Time
	cal []event // binary min-heap ordered by (at, seq)
	seq uint64
}

// event is one calendar entry; seq breaks ties between equal times in
// scheduling order.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// New returns an empty kernel at time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute simulated time t.  Scheduling in
// the past, or at NaN, panics: it is always a model bug.
func (k *Kernel) At(t Time, fn func()) {
	if !(t >= k.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.push(t, fn)
}

// After schedules fn to run dt seconds from now.  A negative or NaN
// delay panics.
func (k *Kernel) After(dt Time, fn func()) {
	if !(dt >= 0) {
		panic(fmt.Sprintf("sim: negative delay %v", dt))
	}
	k.push(k.now+dt, fn)
}

// Run executes events until the calendar empties or the clock would
// pass horizon.  Events scheduled exactly at horizon fire before Run
// returns (TestHorizonBoundary pins this); only strictly later events
// are left for a future Run.  It returns the final simulated time.
// Processes still blocked on signals when the calendar empties simply
// never resume — the simulation has quiesced, which is how CSIM
// models also end.
func (k *Kernel) Run(horizon Time) Time {
	for len(k.cal) > 0 {
		if k.cal[0].at > horizon {
			k.now = horizon
			return k.now
		}
		e := k.pop()
		k.now = e.at
		e.fn()
	}
	return k.now
}

func (k *Kernel) push(at Time, fn func()) {
	k.seq++
	k.cal = append(k.cal, event{at: at, seq: k.seq, fn: fn})
	h := k.cal
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (k *Kernel) pop() event {
	h := k.cal
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the closure so the collector can reclaim it
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.cal = h
	return top
}
