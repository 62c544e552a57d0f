package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(3, func() { order = append(order, 3) })
	k.At(1, func() { order = append(order, 1) })
	k.At(2, func() { order = append(order, 2) })
	k.Run(Infinity)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run(Infinity)
	if !sort.IntsAreSorted(order) {
		t.Fatal("same-time events did not run in scheduling order")
	}
}

// TestWheelSameTickFIFOAcrossLevels checks that an event scheduled for
// an instant later on, from a nearer time, still fires after the events
// scheduled for that instant before it. The name dates from the levelled
// timing wheel the calendar once was, where the early and late events sat
// on different levels; the (time, sequence) order must hold for any
// calendar.
func TestWheelSameTickFIFOAcrossLevels(t *testing.T) {
	k := New()
	const target = Time(1 << 14)
	var order []int
	k.At(target, func() { order = append(order, 1) })
	k.At(target/2, func() {
		k.At(target, func() { order = append(order, 3) })
	})
	k.At(target, func() { order = append(order, 2) })
	k.Run(Infinity)
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Fatalf("same-time events scheduled at different times fired as %v, want [1 2 3]", order)
	}
}

func TestClockAdvances(t *testing.T) {
	k := New()
	var at1, at2 Time
	k.At(1.5, func() { at1 = k.Now() })
	k.After(4.25, func() { at2 = k.Now() })
	end := k.Run(Infinity)
	if at1 != 1.5 || at2 != 4.25 {
		t.Fatalf("event times wrong: %v %v", at1, at2)
	}
	if end != 4.25 {
		t.Fatalf("final time = %v, want 4.25", end)
	}
}

func TestHorizon(t *testing.T) {
	k := New()
	ran := false
	k.At(10, func() { ran = true })
	end := k.Run(5)
	if ran {
		t.Fatal("event past horizon executed")
	}
	if end != 5 {
		t.Fatalf("Run stopped at %v, want horizon 5", end)
	}
	// Resuming past the horizon executes it.
	k.Run(Infinity)
	if !ran {
		t.Fatal("event not executed after horizon extended")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(1, func() {})
	})
	k.Run(Infinity)
}

// TestNaNTimePanics pins that a NaN time or delay is rejected like a
// past one: NaN compares false against everything, so it would
// otherwise slip past the checks and corrupt the heap's ordering.
func TestNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	for name, schedule := range map[string]func(k *Kernel){
		"At":    func(k *Kernel) { k.At(nan, func() {}) },
		"After": func(k *Kernel) { k.After(nan, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			schedule(New())
		}()
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestProcessHold(t *testing.T) {
	k := New()
	var trace []Time
	k.Spawn("holder", func(p *Process) {
		trace = append(trace, p.Now())
		p.Hold(2.5)
		trace = append(trace, p.Now())
		p.Hold(1.5)
		trace = append(trace, p.Now())
	})
	k.Run(Infinity)
	want := []Time{0, 2.5, 4}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Process) {
		p.Hold(1)
		order = append(order, "a1")
		p.Hold(2)
		order = append(order, "a3")
	})
	k.Spawn("b", func(p *Process) {
		p.Hold(2)
		order = append(order, "b2")
	})
	k.Run(Infinity)
	want := []string{"a1", "b2", "a3"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalFireAll(t *testing.T) {
	k := New()
	s := k.NewSignal()
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn("waiter", func(p *Process) {
			p.Wait(s)
			woken++
		})
	}
	k.Spawn("firer", func(p *Process) {
		p.Hold(10)
		s.Fire()
	})
	k.Run(Infinity)
	if woken != 5 {
		t.Fatalf("Fire woke %d of 5 waiters", woken)
	}
}

// TestHorizonBoundary pins Run's boundary semantics: events exactly
// at the horizon fire before Run returns; strictly later events wait.
func TestHorizonBoundary(t *testing.T) {
	k := New()
	var ran []string
	k.At(10, func() { ran = append(ran, "at-horizon") })
	k.At(10.0000001, func() { ran = append(ran, "past-horizon") })
	if end := k.Run(10); end != 10 {
		t.Fatalf("Run(10) returned %v, want 10", end)
	}
	if len(ran) != 1 || ran[0] != "at-horizon" {
		t.Fatalf("events run by horizon 10: %v, want only the one exactly at 10", ran)
	}
	k.Run(Infinity)
	if len(ran) != 2 {
		t.Fatalf("later event did not survive the horizon cut: %v", ran)
	}
}

// TestScheduleAtNow pins the schedule-at-now path: an event that
// schedules more work at the current instant must see it run at the
// same simulated time, after all previously scheduled same-time work,
// and before anything later.
func TestScheduleAtNow(t *testing.T) {
	k := New()
	var order []string
	k.At(5, func() {
		order = append(order, "a")
		k.After(0, func() { order = append(order, "chain") })
		k.At(k.Now(), func() { order = append(order, "at-now") })
	})
	k.At(5, func() { order = append(order, "b") })
	k.At(6, func() { order = append(order, "later") })
	end := k.Run(Infinity)
	want := []string{"a", "b", "chain", "at-now", "later"}
	if !slices.Equal(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	if end != 6 {
		t.Fatalf("final time %v, want 6", end)
	}
}

// TestCalendarDrainsInStableTimeOrder is the calendar's property
// test: any schedule — dense ties, sub-microsecond spacing, far jumps,
// and a second batch scheduled after Run stopped at a horizon — must
// drain in the order of a stable sort by time, so equal times keep
// their scheduling order.
func TestCalendarDrainsInStableTimeOrder(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		k := New()
		type sched struct {
			at Time
			id int
		}
		var all []sched
		var got []int
		batch := func(from Time) {
			n := 5 + rng.Intn(120)
			for i := 0; i < n; i++ {
				var at Time
				switch rng.Intn(5) {
				case 0: // a handful of shared instants: many ties
					at = from + Time(rng.Intn(4))
				case 1:
					at = from + Time(rng.Float64())*1e-8
				case 2:
					at = from + Time(rng.Float64())*1e-3
				case 3:
					at = from + Time(rng.Float64())*1000
				default:
					at = from + Time(rng.Float64())*3e6
				}
				id := len(all)
				all = append(all, sched{at, id})
				k.At(at, func() { got = append(got, id) })
			}
		}
		batch(0)
		horizon := Time(rng.Intn(3))
		k.Run(horizon)
		batch(horizon)
		k.Run(Infinity)

		sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
		want := make([]int, len(all))
		for i, s := range all {
			want[i] = s.id
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: drain order %v, want stable time order %v", trial, got, want)
		}
	}
}

// TestScheduleSteadyStateAllocs pins that the calendar stores events
// by value: once the heap's backing array has grown, a schedule/fire
// cycle allocates nothing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	k := New()
	fn := func() {}
	for i := 0; i < 64; i++ { // grow the heap's backing array
		k.After(Time(i), fn)
	}
	k.Run(Infinity)
	if got := testing.AllocsPerRun(100, func() {
		k.After(1, fn)
		k.Run(Infinity)
	}); got != 0 {
		t.Errorf("schedule+fire allocates %v/op in steady state, want 0", got)
	}
}

// TestProcessesDeterministic checks that an entire mixed process/event
// model replays identically: determinism is load-bearing for the
// experiment harness.  Workers hold, queue on a shared signal, and are
// released in batches by a gate process, so the trace depends on both
// the calendar's tie order and the signal's FIFO wakeups.
func TestProcessesDeterministic(t *testing.T) {
	type step struct {
		at Time
		id int
	}
	run := func() []step {
		k := New()
		gate := k.NewSignal()
		var trace []step
		for i := 0; i < 6; i++ {
			i := i
			k.Spawn("worker", func(p *Process) {
				for r := 0; r < 3; r++ {
					p.Hold(Time(i%3) * 0.5)
					p.Wait(gate)
					trace = append(trace, step{p.Now(), i})
				}
			})
		}
		k.Spawn("gate", func(p *Process) {
			for r := 0; r < 8; r++ {
				p.Hold(1.5)
				gate.Fire()
			}
		})
		k.Run(Infinity)
		return trace
	}
	a, b := run(), run()
	if len(a) != 18 {
		t.Fatalf("trace has %d wakeups, want 18: %v", len(a), a)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("replay diverged:\n%v\n%v", a, b)
	}
}

func BenchmarkEventCalendar(b *testing.B) {
	k := New()
	var pump func()
	n := 0
	pump = func() {
		n++
		if n < b.N {
			k.After(1, pump)
		}
	}
	k.After(1, pump)
	b.ResetTimer()
	k.Run(Infinity)
}

func BenchmarkProcessSwitch(b *testing.B) {
	k := New()
	k.Spawn("holder", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	k.Run(Infinity)
}
