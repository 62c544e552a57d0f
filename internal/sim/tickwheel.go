package sim

// TickWheel is a hierarchical calendar for models quantized to
// integer ticks, such as the interval-stepped display engines: the
// clock advances exactly one tick per Due call, Add is O(1), and a
// payload cascades down the hierarchy at most once per level before
// it drains.  It replaces interval-keyed maps (map[int][]P) whose
// hashing and per-bucket reallocation dominate at large scale; slot
// backings here are reused across rotations, so steady-state traffic
// allocates nothing.
//
// Payloads drain in exactly Add order per tick — the order a
// map-bucket append produced — which keeps engine results
// bit-identical.  That relies on strict placement: an entry lives at
// level l only while it shares the clock's level-(l+1) unit, so it
// sinks exactly when the clock enters each enclosing window.  Every
// cascade therefore runs before any later Add could target a lower
// level, and relative order is preserved all the way down.
type TickWheel[P any] struct {
	cur   int // last tick passed to Due; -1 before the first
	slots [twLevels][slotCount][]tickEntry[P]
	// overflow holds entries beyond the top level's span; it is
	// re-placed when the clock crosses into a new top-level unit.
	overflow []tickEntry[P]
	count    int
}

// Each level splits a tick index into levelBits-bit digits: slotCount
// slots per level.
const (
	levelBits = 6
	slotCount = 1 << levelBits // 64
	slotMask  = slotCount - 1
)

// twLevels × 6 bits covers 64^6 ≈ 6.9e10 ticks of span — far past
// any configured run length — with the overflow slice as the
// correctness backstop.
const twLevels = 6

type tickEntry[P any] struct {
	tick int
	v    P
}

// NewTickWheel returns a wheel positioned before tick zero, so the
// first Due call must be Due(0, ...).
func NewTickWheel[P any]() *TickWheel[P] {
	return &TickWheel[P]{cur: -1}
}

// Len returns the number of undrained payloads.
func (w *TickWheel[P]) Len() int { return w.count }

// Add schedules v for tick at, which must be after the last drained
// tick — the engines only ever schedule strictly into the future.
func (w *TickWheel[P]) Add(at int, v P) {
	if at <= w.cur {
		panic("sim: TickWheel.Add at or before the current tick")
	}
	w.count++
	w.place(tickEntry[P]{tick: at, v: v})
}

func (w *TickWheel[P]) place(e tickEntry[P]) {
	cur := w.cur
	if cur < 0 {
		cur = 0
	}
	for level := 0; level < twLevels; level++ {
		above := uint(level+1) * levelBits
		if e.tick>>above == cur>>above {
			slot := (e.tick >> (uint(level) * levelBits)) & slotMask
			w.slots[level][slot] = append(w.slots[level][slot], e)
			return
		}
	}
	w.overflow = append(w.overflow, e)
}

// Due advances the wheel to tick — which must be exactly cur+1 — and
// appends that tick's payloads to buf in Add order.  Passing a reused
// buffer (buf[:0]) makes the steady state allocation-free.
func (w *TickWheel[P]) Due(tick int, buf []P) []P {
	if tick != w.cur+1 {
		panic("sim: TickWheel.Due must advance one tick at a time")
	}
	w.cur = tick
	// An empty wheel needs no slot maintenance: place computes an
	// entry's level from the clock at Add time, so boundaries crossed
	// while nothing was resident never leave stale residents behind.
	if w.count == 0 {
		return buf
	}
	// Every level-1-and-up unit boundary is a multiple of the slot
	// count, so off-multiple ticks skip straight to the level-0 drain.
	if tick&slotMask == 0 {
		w.cascade(tick)
	}
	s := &w.slots[0][tick&slotMask]
	for _, e := range *s {
		buf = append(buf, e.v)
	}
	w.count -= len(*s)
	clear(*s)
	*s = (*s)[:0]
	return buf
}

// Reset empties the wheel and repositions the clock so the next Due
// call must be Due(cur+1).  The failover path uses it to jump a
// revived engine's wheels across the dead window: every pending
// payload belonged to the killed run and has already been drained or
// aborted, so dropping them wholesale is exactly the semantics a cold
// restart wants.
func (w *TickWheel[P]) Reset(cur int) {
	if w.count > 0 || w.overflow != nil {
		for level := range w.slots {
			for slot := range w.slots[level] {
				s := w.slots[level][slot]
				clear(s)
				w.slots[level][slot] = s[:0]
			}
		}
		clear(w.overflow)
		w.overflow = w.overflow[:0]
		w.count = 0
	}
	w.cur = cur
}

// cascade redistributes residents of every unit the clock enters at
// tick.  Entering a new unit at a level redistributes that unit's
// residents downward; highest level first so an entry sinks one level
// per boundary it crosses, preserving relative order.
func (w *TickWheel[P]) cascade(tick int) {
	if tick&(1<<(twLevels*levelBits)-1) == 0 && len(w.overflow) > 0 {
		pend := w.overflow
		w.overflow = nil
		for _, e := range pend {
			w.place(e)
		}
	}
	for level := twLevels - 1; level >= 1; level-- {
		shift := uint(level) * levelBits
		if tick&(1<<shift-1) != 0 {
			continue
		}
		slot := (tick >> shift) & slotMask
		pend := w.slots[level][slot]
		w.slots[level][slot] = nil
		for _, e := range pend {
			w.place(e)
		}
		// A redistributed entry never lands back in this slot — it
		// now shares the clock's unit at this level, sinking it at
		// least one level down — so the backing is recyclable.
		clear(pend)
		w.slots[level][slot] = pend[:0]
	}
}
