package sched_test

import (
	"testing"

	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/sched"
)

// TestAdmissionWorkIndependentOfQueue bounds the striped admission's
// work in host-independent units on the scale geometry under Zipf
// load: in every fault-free interval the queue entries it examines are
// at most its admissions, the requests queued since the last scan, the
// entries of the staggered prefix and the free windows it visited —
// and, under simple striping, those windows are at most the disks that
// were free when the scan ran.  Doubling the stations, which more than
// doubles the queue, must not double the entries examined per interval.
func TestAdmissionWorkIndependentOfQueue(t *testing.T) {
	for _, key := range []string{"striped", "staggered"} {
		t.Run(key, func(t *testing.T) {
			base := experiment.ScaleConfig(10, 1)
			base.ZipfSkew = 0.4
			touched1, queue1 := admissionWorkPerInterval(t, key, base)
			base.Stations *= 2
			touched2, queue2 := admissionWorkPerInterval(t, key, base)
			t.Logf("per interval: %.1f entries examined at queue %.1f; %.1f at queue %.1f",
				touched1, queue1, touched2, queue2)
			if queue2 < 2*queue1 {
				t.Fatalf("doubling the stations took the mean queue from %.1f to %.1f only; the comparison proves nothing",
					queue1, queue2)
			}
			if touched2 >= 1.5*touched1 {
				t.Errorf("entries examined per interval grew from %.1f to %.1f with the queue (%.1f to %.1f)",
					touched1, touched2, queue1, queue2)
			}
		})
	}
}

// admissionWorkPerInterval runs cfg under the technique, checks the
// per-interval bound, and returns the mean entries examined and the
// mean queue length per interval.
func admissionWorkPerInterval(t *testing.T, key string, cfg sched.Config) (touched, queue float64) {
	t.Helper()
	e, cfg, err := sched.NewEngineFor(key, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != nil || cfg.Degrees != nil {
		t.Fatal("the bound below assumes a fault-free run of uniform degree")
	}
	prev := e.AdmissionWork()
	sumTouched, sumQueue, n := 0, 0, 0
	for e.HasPendingWork() {
		at := e.Now()
		e.StepOne()
		w := e.AdmissionWork()
		dt := w.Touched - prev.Touched
		admits := w.Admitted - prev.Admitted
		arrivals := w.Requests - prev.Requests
		prefix := w.Prefix - prev.Prefix
		windows := w.Windows - prev.Windows
		if bound := admits + arrivals + prefix + windows; dt > bound {
			t.Fatalf("interval %d: %d entries examined, above admissions %d + arrivals %d + prefix %d + windows %d",
				at, dt, admits, arrivals, prefix, windows)
		}
		if key == "striped" {
			if free := cfg.D - w.Busy + admits*cfg.M; windows > free {
				t.Fatalf("interval %d: %d windows visited with only %d disks free", at, windows, free)
			}
		}
		sumTouched += dt
		sumQueue += e.QueuedRequests()
		n++
		prev = w
	}
	return float64(sumTouched) / float64(n), float64(sumQueue) / float64(n)
}

// TestAdmissionWorkTable3 bounds the admission work in host-independent
// units on TestCoalesceWorkTable3's geometry.  The FIFOs the indexed
// probe visits average fewer than 50 per probe, and in at least half
// of the intervals it visits none, because no run of M free virtual
// disks, and so no FIFO's window, is free.  The farm's 200 preloaded
// objects each have a FIFO, and about 30 of them hold a request at a
// time; a probe that walked the whole table would visit 200 in every
// interval.  The staggered prefix walks tablePrefix entries, as it did
// before refusal leases, and held leases answer at least 80% of them
// without a walk.
func TestAdmissionWorkTable3(t *testing.T) {
	cfg := sched.Table3Config(256, 20, 1)
	cfg.WarmupIntervals, cfg.MeasureIntervals = 6000, 12000
	e, _, err := sched.NewEngineFor("staggered", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	w := e.AdmissionWork()
	intervals := cfg.WarmupIntervals + cfg.MeasureIntervals
	t.Logf("%d FIFOs visited over %d indexed probes, %d with a free window; %d probes skipped in %d intervals; %d of %d prefix entries leased",
		w.FIFOs, w.Indexed, w.Windows, w.Skipped, intervals, w.Leased, w.Prefix)
	if w.Indexed == 0 {
		t.Fatal("no indexed probe ran; the bound proves nothing")
	}
	if w.FIFOs >= 50*w.Indexed {
		t.Errorf("%d FIFOs visited over %d indexed probes, not fewer than 50 per probe", w.FIFOs, w.Indexed)
	}
	if 2*w.Skipped < intervals {
		t.Errorf("%d indexed probes skipped in %d intervals, fewer than half", w.Skipped, intervals)
	}
	if w.Prefix != tablePrefix {
		t.Errorf("the staggered prefix walked %d entries, not %d", w.Prefix, tablePrefix)
	}
	if 5*w.Leased < 4*w.Prefix {
		t.Errorf("refusal leases answered %d of %d prefix entries, fewer than 80%%", w.Leased, w.Prefix)
	}
}

// tablePrefix is the count of entries the staggered prefix walks in
// TestAdmissionWorkTable3's run of 18,000 intervals: the 8 that spend
// each interval's Algorithm-1 budget, and a few that spend none (cold
// entries, contiguous admissions).
const tablePrefix = 144043

// TestCoalesceWorkTable3 bounds Algorithm 2's work in host-independent
// units on the Table 3 farm near the Figure 8 knee, staggered k=1 over
// 6,000 warm-up and 12,000 measured intervals: the waiter-list entries
// the pass walks, stale ones included, are at most four per stream
// moved.  A pass that visited every buffering stream in every interval
// walks thousands of entries per move here.
func TestCoalesceWorkTable3(t *testing.T) {
	cfg := sched.Table3Config(256, 20, 1)
	cfg.WarmupIntervals, cfg.MeasureIntervals = 6000, 12000
	e, _, err := sched.NewEngineFor("staggered", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	w := e.CoalesceWork()
	t.Logf("%d waiter entries visited for %d moves", w.Visited, w.Moves)
	if w.Moves == 0 {
		t.Fatal("no stream coalesced; the bound proves nothing")
	}
	if w.Visited > 4*w.Moves {
		t.Errorf("%d waiter entries visited for %d moves, above 4 per move", w.Visited, w.Moves)
	}
}

// TestReleaseCalendarWork bounds the release calendar's traffic in
// host-independent units: only a stream that buffers ahead of its
// display (T_i < Tmax) gets a release entry, and every other stream is
// released by its display's completion.  Simple striping admits only
// contiguous displays, so its ring takes no entry at all; on the Table
// 3 farm under staggered k=1 the entries are exactly the buffering
// streams, well under one per stream admitted.
func TestReleaseCalendarWork(t *testing.T) {
	e, _, err := sched.NewEngineFor("striped", experiment.ScaleConfig(10, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if a, w := e.AdmissionWork(), e.CoalesceWork(); a.Admitted == 0 || w.Releases != 0 {
		t.Errorf("simple striping booked %d release entries over %d admissions, want none", w.Releases, a.Admitted)
	}

	cfg := sched.Table3Config(256, 20, 1)
	cfg.WarmupIntervals, cfg.MeasureIntervals = 6000, 12000
	e, _, err = sched.NewEngineFor("staggered", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	a, w := e.AdmissionWork(), e.CoalesceWork()
	t.Logf("%d release entries for %d buffering streams over %d admissions of %d streams", w.Releases, w.Buffered, a.Admitted, cfg.M)
	if w.Buffered == 0 {
		t.Fatal("no stream buffered; the bound proves nothing")
	}
	if w.Releases != w.Buffered {
		t.Errorf("%d release entries booked for %d buffering streams", w.Releases, w.Buffered)
	}
	if 4*w.Releases > cfg.M*a.Admitted {
		t.Errorf("%d release entries over %d admissions of %d streams, above a quarter of the streams", w.Releases, a.Admitted, cfg.M)
	}
}
