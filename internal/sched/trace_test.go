package sched

import (
	"strings"
	"testing"
)

func TestTraceEventsBalance(t *testing.T) {
	cfg := smallConfig(8, 10)
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventKind]int{}
	var lastInterval int
	e.SetTracer(func(ev Event) {
		counts[ev.Kind]++
		if ev.Interval < lastInterval {
			t.Errorf("trace time went backwards: %d after %d", ev.Interval, lastInterval)
		}
		lastInterval = ev.Interval
	})
	res := e.Run()

	// Every admission eventually completes or is still active; within
	// the whole run admits >= completes and requests >= admits.
	if counts[EvAdmit] < counts[EvComplete] {
		t.Errorf("admits (%d) < completes (%d)", counts[EvAdmit], counts[EvComplete])
	}
	if counts[EvRequest] < counts[EvAdmit] {
		t.Errorf("requests (%d) < admits (%d)", counts[EvRequest], counts[EvAdmit])
	}
	// Materialization starts and ends pair up to within one in flight.
	if d := counts[EvMatStart] - counts[EvMatEnd]; d < 0 || d > 1 {
		t.Errorf("mat starts %d vs ends %d", counts[EvMatStart], counts[EvMatEnd])
	}
	// The run's own counters agree with the trace.  The trace covers
	// warm-up too, so it can only exceed the window counters.
	if counts[EvComplete] < res.Displays {
		t.Errorf("trace completes %d < window displays %d", counts[EvComplete], res.Displays)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	cfg := smallConfig(2, 10)
	cfg.WarmupIntervals, cfg.MeasureIntervals = 10, 50
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	// No tracer installed: Run must not panic on emit.
	_ = e.Run()
}

func TestEventString(t *testing.T) {
	e := Event{Interval: 42, Kind: EvAdmit, Object: 7, Station: 3, Detail: "first=0 tmax=0"}
	s := e.String()
	for _, want := range []string{"42", "admit", "obj=7", "station=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string missing %q: %s", want, s)
		}
	}
	noStation := Event{Interval: 1, Kind: EvEvict, Object: 9, Station: -1}
	if strings.Contains(noStation.String(), "station") {
		t.Error("station rendered for station-less event")
	}
	for k := EvRequest; k <= EvCoalesce; k++ {
		if strings.Contains(k.String(), "EventKind") {
			t.Errorf("kind %d missing a name", int(k))
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}
