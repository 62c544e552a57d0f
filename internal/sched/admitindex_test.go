package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/tertiary"
)

// checkStriped asserts, after an interval, the conditions the striped
// engine's event-driven admission relies on (DESIGN.md §8):
//
//   - an object names a ready FIFO (fifo ≥ 0) exactly when it is
//     resident and not being staged, and that FIFO is the (first disk,
//     degree) of its placement, which the per-entry path reads in place
//     of FirstDisk (checkFIFOMap);
//   - every cold object queued when the scan ran is Pending on the
//     tertiary device, so a later Request for it would be a no-op;
//   - the FIFO table's chains, live list and places agree
//     (checkFIFOTable);
//   - unless the ready index is marked for a rebuild, the queue spans
//     fewer than seqSpan sequence numbers (nextSeq − seq[queue head]),
//     so the probe's one-word candidate keys are exact; every ready
//     queued request sits exactly once in the FIFO of its object's
//     first disk and degree, the FIFOs hold nothing else, and sequence
//     numbers rise along every FIFO (checkQueue checks they rise along
//     the queue);
//
// and the disk claims, Algorithm 2's waiter lists and the release
// calendar (checkClaims, checkWaiters, checkReleases).  It is a no-op
// for other techniques.
func checkStriped(t testing.TB, e *Engine) {
	t.Helper()
	st, ok := e.tech.(*stripedTech)
	if !ok {
		return
	}
	at := e.now - 1
	checkClaims(t, st, at)
	checkWaiters(t, st, at)
	checkReleases(t, st, e.now)
	checkFIFOMap(t, st, at)
	// The entries from fresh on were queued after the scan (its
	// rejections reissue their stations); the next scan requests them.
	q := &e.queue
	for s := q.head; s >= 0 && s != st.fresh; s = q.node[s].next {
		if obj := int(q.node[s].obj); st.fifo[obj] < 0 && !e.tman.Pending(obj) {
			t.Fatalf("interval %d: cold queued object %d (station %d) is not pending on the device", at, obj, s)
		}
	}
	x := &st.idx
	checkFIFOTable(t, x, at)
	if x.dirty {
		return
	}
	if q.head >= 0 && x.nextSeq-x.seq[q.head] >= seqSpan {
		t.Fatalf("interval %d: the queue spans %d sequence numbers, more than a candidate key packs", at, x.nextSeq-x.seq[q.head])
	}
	queued := make(map[int32]int, q.n) // station -> object
	for s := q.head; s >= 0; s = q.node[s].next {
		if st.fifo[q.node[s].obj] >= 0 {
			queued[s] = int(q.node[s].obj)
		}
	}
	seen := 0
	for id := range x.fifos {
		f := &x.fifos[id]
		last := int32(-1)
		for s := f.head; s >= 0; s = x.next[s] {
			obj, ok := queued[s]
			if !ok {
				t.Fatalf("interval %d: FIFO %d holds station %d, which has no ready queued request (or appears twice)", at, id, s)
			}
			delete(queued, s)
			seen++
			if first, _ := st.store.FirstDisk(obj); int(f.first) != first || int(f.degree) != st.cfg.Degree(obj) {
				t.Fatalf("interval %d: station %d (object %d, first disk %d, degree %d) is in the FIFO of (%d, %d)",
					at, s, obj, first, st.cfg.Degree(obj), f.first, f.degree)
			}
			if last >= 0 && x.seq[s] <= x.seq[last] {
				t.Fatalf("interval %d: FIFO %d is out of sequence order at station %d", at, id, s)
			}
			if x.next[s] < 0 && f.tail != s {
				t.Fatalf("interval %d: FIFO %d ends at station %d but its tail is %d", at, id, s, f.tail)
			}
			last = s
		}
	}
	for s, obj := range queued {
		t.Fatalf("interval %d: ready request of station %d (object %d) is missing from the index (%d linked)", at, s, obj, seen)
	}
}

// checkFIFOMap asserts the object → FIFO map: an object names a FIFO
// exactly while it is ready — resident, and not the object being
// staged — and the FIFO it names holds the first disk and degree of its
// placement.
func checkFIFOMap(t testing.TB, st *stripedTech, at int) {
	t.Helper()
	for obj, id := range st.fifo {
		first, resident := st.store.FirstDisk(obj)
		if id < 0 {
			if resident && obj != st.matObject {
				t.Fatalf("interval %d: object %d is resident and not being staged, but names no FIFO", at, obj)
			}
			continue
		}
		if !resident || obj == st.matObject {
			t.Fatalf("interval %d: object %d names FIFO %d, but resident is %v and staging is %d", at, obj, id, resident, st.matObject)
		}
		if f := &st.idx.fifos[id]; int(f.first) != first || int(f.degree) != st.cfg.Degree(obj) {
			t.Fatalf("interval %d: object %d (first disk %d, degree %d) names FIFO %d of (%d, %d)",
				at, obj, first, st.cfg.Degree(obj), id, f.first, f.degree)
		}
	}
}

// checkFIFOTable asserts the ready index's table invariants: every
// FIFO is the one its first disk's chain yields for its degree, and the
// chains hold every FIFO exactly once; live holds exactly the non-empty
// FIFOs, and each FIFO's pos inverts it.
func checkFIFOTable(t testing.TB, x *readyIndex, at int) {
	t.Helper()
	chained := 0
	for first, id := range x.byFirst {
		for ; id >= 0; id = x.fifos[id].sameFirst {
			chained++
			if chained > len(x.fifos) {
				t.Fatalf("interval %d: the chain of first disk %d does not end", at, first)
			}
			if q := &x.fifos[id]; int(q.first) != first {
				t.Fatalf("interval %d: FIFO %d of first disk %d is on the chain of %d", at, id, q.first, first)
			}
		}
	}
	if chained != len(x.fifos) {
		t.Fatalf("interval %d: the first-disk chains hold %d FIFOs, the table %d", at, chained, len(x.fifos))
	}
	for id := range x.fifos {
		q := &x.fifos[id]
		if got := x.lookup(int(q.first), int(q.degree)); got != int32(id) {
			t.Fatalf("interval %d: the chain of (%d, %d) yields FIFO %d, not %d", at, q.first, q.degree, got, id)
		}
		if (q.head < 0) != (q.tail < 0) {
			t.Fatalf("interval %d: FIFO %d has head %d and tail %d", at, id, q.head, q.tail)
		}
		if (q.head >= 0) != (q.pos >= 0) {
			t.Fatalf("interval %d: FIFO %d has head %d but place %d in live", at, id, q.head, q.pos)
		}
		if q.pos >= 0 && (int(q.pos) >= len(x.live) || x.live[q.pos] != int32(id)) {
			t.Fatalf("interval %d: FIFO %d has place %d in live, which does not hold it", at, id, q.pos)
		}
	}
	for i, id := range x.live {
		if x.fifos[id].pos != int32(i) {
			t.Fatalf("interval %d: live[%d] is FIFO %d, whose place is %d", at, i, id, x.fifos[id].pos)
		}
	}
}

// admissionCase is one differential run of the striped admission: a
// small, loaded configuration and how to drive it.
type admissionCase struct {
	cfg    Config
	key    string // striped or staggered
	stride int
	// member builds a cluster member fed by InjectArrival, with preload
	// as its assigned objects.
	member  bool
	preload []int
	// killAt > 0 kills the engine before that interval and revives it
	// at reviveAt (open arrivals only).
	killAt, reviveAt int
	// seqMargin > 0 shifts the ready index's sequence numbers to
	// seqMargin below the span the candidate keys can pack (shiftSeq),
	// after the first interval past the warm-up that ends with more
	// than seqMargin queued requests.
	seqMargin uint64
}

func (c admissionCase) String() string {
	return fmt.Sprintf("%s k=%d member=%v kill=%d/%d %+v", c.key, c.stride, c.member, c.killAt, c.reviveAt, c.cfg)
}

// admissionCaseFrom maps bytes to a small admission case: a farm of a
// few dozen disks under enough stations to keep a queue, with
// materialization pressure, mixed degrees, a cache with batching, open
// or closed or member arrivals, a small Place retry cap, disk and
// tertiary fault plans and a kill, each chosen by the bytes.  Every
// case validates.
func admissionCaseFrom(data []byte) admissionCase {
	b := fuzzBytes(data)
	d := 8 + b.next()%33
	m := 1 + b.next()%min(6, d)
	objects := 4 + b.next()%36
	sub := 4 + b.next()%17
	// Room for a third to all of the catalog's fragments: staging,
	// eviction and, at the low end, starvation.
	room := objects * m * sub * (1 + b.next()%3) / 3
	cfg := Config{
		D:                 d,
		K:                 1 + b.next()%d,
		CapacityFragments: max(sub, room/d+1),
		Objects:           objects,
		Subobjects:        sub,
		M:                 m,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          1 + b.next()%48,
		DistMean:          float64(3 + b.next()%20),
		Seed:              uint64(b.next()),
		WarmupIntervals:   b.next() % 64,
		MeasureIntervals:  120 + b.next()%240,
		PreloadTop:        b.next() % (objects + 1),
		MaxStartup:        b.next() % 12,
		PlaceRetryLimit:   1 + b.next()%8,
	}
	c := admissionCase{key: "striped"}
	flags := b.next()
	if flags&1 != 0 {
		c.key = "staggered"
		c.stride = 1 + b.next()%d
	}
	cfg.EvictionPressure = flags&2 != 0
	if flags&4 != 0 {
		cfg.Degrees = make([]int, objects)
		for i := range cfg.Degrees {
			cfg.Degrees[i] = 1 + b.next()%m
		}
	}
	if flags&8 != 0 {
		cfg.ZipfSkew = float64(1+b.next()%12) / 8
	}
	if flags&16 != 0 {
		cfg.Cache = &cache.Spec{
			BudgetBytes: int64(1+b.next()%8) << 24,
			BatchWindow: b.next() % 8,
		}
	}
	horizon := cfg.WarmupIntervals + cfg.MeasureIntervals
	switch b.next() % 3 {
	case 1:
		cfg.ArrivalsPerHour = float64(1+b.next()%40) * 500
	case 2:
		c.member = true
		c.preload = []int{b.next() % objects, b.next() % objects, b.next() % objects}
	}
	if (c.member || cfg.ArrivalsPerHour > 0) && flags&64 != 0 {
		c.killAt = cfg.WarmupIntervals + 1 + b.next()%(cfg.MeasureIntervals/2)
		c.reviveAt = c.killAt + b.next()%32
	}
	if n := b.next() % 4; n > 0 {
		p := fault.NewPlan()
		for i := 0; i < n; i++ {
			at := b.next() % horizon
			until := at + 1 + b.next()%64
			disk := b.next() % d
			switch b.next() % 4 {
			case 0:
				p.FailDisk(disk, at)
			case 1:
				p.FailDiskUntil(disk, at, until)
			case 2:
				p.SlowDisk(disk, at, until)
			default:
				p.TertiaryOutage(at, until)
			}
		}
		cfg.Faults = p
	}
	c.cfg = cfg
	return c
}

// admissionRun is what one run of a case produced.
type admissionRun struct {
	admits   [][3]int // (interval, station, object) of every EvAdmit
	rejects  [][3]int // (interval, station, object) of every EvReject
	delivery []Event  // every EvAdmit, EvCoalesce and EvComplete, in order
	moves    int      // EvCoalesce events
	down     int      // intervals that ended with a disk down
	orphans  []int
	res      Result
	work     admitWork
	// renumbered counts the intervals in which the sequence counter
	// went back: a rebuild renumbered the queue.
	renumbered int
}

// runAdmissionCase runs a case with the production paths, or with an
// oracle installed on the technique (useFullScan, useCoalesceScan),
// checking checkStriped's conditions after every interval.  It reports
// false when the case does not build (a stride the farm cannot take,
// say).
func runAdmissionCase(t testing.TB, c admissionCase, oracle func(*stripedTech)) (admissionRun, bool) {
	ti, _ := TechniqueByKey(c.key)
	cfg, err := ti.Configure(c.cfg, c.stride)
	if err != nil {
		return admissionRun{}, false
	}
	var e *Engine
	if c.member {
		e, err = newMember(ti, cfg, c.preload)
	} else {
		e, err = ti.New(cfg)
	}
	if err != nil {
		return admissionRun{}, false
	}
	st := e.tech.(*stripedTech)
	if oracle != nil {
		oracle(st)
	}
	var run admissionRun
	e.SetTracer(func(ev Event) {
		switch ev.Kind {
		case EvAdmit:
			run.admits = append(run.admits, [3]int{ev.Interval, ev.Station, ev.Object})
			run.delivery = append(run.delivery, ev)
		case EvReject:
			run.rejects = append(run.rejects, [3]int{ev.Interval, ev.Station, ev.Object})
		case EvCoalesce:
			run.moves++
			run.delivery = append(run.delivery, ev)
		case EvComplete:
			run.delivery = append(run.delivery, ev)
		}
	})
	shifted, lastSeq := false, uint64(0)
	e.stepCheck = func() {
		checkQueue(t, e)
		checkStriped(t, e)
		if e.downCount > 0 {
			run.down++
		}
		if st.idx.nextSeq < lastSeq {
			run.renumbered++
		}
		if c.seqMargin > 0 && !shifted && e.now > cfg.WarmupIntervals && uint64(e.queue.n) > c.seqMargin {
			shiftSeq(st, c.seqMargin)
			shifted = true
		}
		lastSeq = st.idx.nextSeq
	}
	arrivals := rng.NewSource(cfg.Seed).Stream("admission-test")
	horizon := cfg.WarmupIntervals + cfg.MeasureIntervals
	e.Prime()
	for e.now < horizon {
		if e.now == cfg.WarmupIntervals {
			e.ResetWindow()
		}
		if c.killAt > 0 && e.now == c.killAt && run.orphans == nil {
			rep, err := e.Kill()
			if err != nil {
				t.Fatal(err)
			}
			run.orphans = append([]int{}, rep.Orphans...)
			for e.now < c.reviveAt {
				e.StepOne()
			}
			if err := e.Revive(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if c.member {
			for i := 0; i < 2; i++ {
				e.InjectArrival(arrivals.Intn(cfg.Objects))
			}
		}
		e.StepOne()
	}
	run.res = e.Snapshot()
	run.work = st.work
	return run, true
}

// useFullScan makes the technique run the full queue scan in place of
// the indexed admission in every interval.
func useFullScan(st *stripedTech) { st.fullScan = true }

// compareRuns runs a case on the production paths and with the oracle,
// and fails on any difference in the admission, rejection or delivery
// (admit, move, complete) sequence, the Kill orphans or the Result.
// It returns the production run, and false when the case does not
// build.
func compareRuns(t *testing.T, c admissionCase, oracle func(*stripedTech)) (admissionRun, bool) {
	t.Helper()
	fast, ok := runAdmissionCase(t, c, nil)
	if !ok {
		return fast, false
	}
	slow, _ := runAdmissionCase(t, c, oracle)
	diverge(t, c, "admissions", fast.admits, slow.admits)
	diverge(t, c, "rejections", fast.rejects, slow.rejects)
	diverge(t, c, "deliveries", fast.delivery, slow.delivery)
	if !reflect.DeepEqual(fast.orphans, slow.orphans) {
		t.Fatalf("%v\nkill orphans differ: production %v, oracle %v", c, fast.orphans, slow.orphans)
	}
	if !reflect.DeepEqual(fast.res, slow.res) {
		t.Fatalf("%v\nResults differ:\n  production %+v\n  oracle     %+v", c, fast.res, slow.res)
	}
	return fast, true
}

// diverge fails when two traced event sequences differ, naming the
// first event where they part.
func diverge[E comparable](t *testing.T, c admissionCase, what string, fast, oracle []E) {
	t.Helper()
	if slices.Equal(fast, oracle) {
		return
	}
	i := 0
	for i < min(len(fast), len(oracle)) && fast[i] == oracle[i] {
		i++
	}
	t.Fatalf("%v\n%s diverge at #%d of %d/%d: production %v, oracle %v", c, what, i,
		len(fast), len(oracle), eventAt(fast, i), eventAt(oracle, i))
}

func eventAt[E any](a []E, i int) any {
	if i < len(a) {
		return a[i]
	}
	return "none"
}

// TestStripedAdmissionMatchesScan is the differential oracle of the
// event-driven admission: on random small cases covering both striped
// techniques, Tmax, mixed degrees, the cache with batching, every
// arrival mode, a small Place retry cap with and without eviction
// pressure, disk and tertiary faults and a member kill, the indexed
// path must admit and refuse exactly what the full queue scan admits
// and refuses, in the same intervals and order, down disks included,
// and end in the same Result.
func TestStripedAdmissionMatchesScan(t *testing.T) {
	const cases = 300
	src := rng.NewSource(20261017).Stream("admission-cases")
	ran, admitted, rejected, prefix, windows, killed := 0, 0, 0, 0, 0, 0
	for i := 0; i < cases; i++ {
		data := make([]byte, 64)
		for j := range data {
			data[j] = byte(src.Intn(256))
		}
		c := admissionCaseFrom(data)
		run, ok := compareRuns(t, c, useFullScan)
		if !ok {
			continue
		}
		ran++
		admitted += len(run.admits)
		rejected += len(run.rejects)
		prefix += run.work.prefix
		windows += run.work.windows
		if c.killAt > 0 {
			killed++
		}
	}
	t.Logf("%d of %d cases ran: %d admissions, %d rejections, %d prefix entries, %d free windows, %d kills",
		ran, cases, admitted, rejected, prefix, windows, killed)
	// The comparison proves nothing on cases that never admit, never
	// refuse under a down disk, or never reach the staggered prefix,
	// the index or a kill.
	if ran < cases*3/4 || admitted < 100*ran || rejected == 0 || prefix == 0 || windows < admitted/4 || killed == 0 {
		t.Fatalf("weak coverage: %d of %d cases ran, %d admissions, %d rejections, %d prefix entries, %d free windows, %d kills",
			ran, cases, admitted, rejected, prefix, windows, killed)
	}
}

// TestSeqRenumbering pins the one-word candidate keys at their limit.
// Past the warm-up, shiftSeq numbers a run's queue as if its head had
// waited through billions of enqueues, margin short of the span the
// keys pack.  With a margin of 1 or 2 the next interval's reissues
// reach the span while the head waits, so the run must cross a
// renumbering; with 7 or 40 the head usually starts first, in a probe
// whose other keys lie just below the limit.  Either way the run must
// admit and refuse exactly what the unshifted run does, in the same
// order, and end in the same Result (diverge calls the unshifted run
// the oracle).  The closed-loop farm admits several displays an
// interval, holds the whole catalog and injects no faults, so nothing
// else dirties the index: the unshifted run never rebuilds, and a
// shifted run's renumbering is the span's.
func TestSeqRenumbering(t *testing.T) {
	base := Config{
		D:                 120,
		K:                 2,
		CapacityFragments: 16,
		Objects:           60,
		Subobjects:        10,
		M:                 2,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          100,
		DistMean:          20,
		WarmupIntervals:   20,
		MeasureIntervals:  200,
	}
	for _, tech := range []struct {
		key    string
		stride int
	}{{"striped", 0}, {"staggered", 1}} {
		for _, margin := range []uint64{1, 2, 7, 40} {
			for seed := uint64(1); seed <= 3; seed++ {
				c := admissionCase{cfg: base, key: tech.key, stride: tech.stride}
				c.cfg.Seed = seed
				plain, ok := runAdmissionCase(t, c, nil)
				if !ok {
					t.Fatalf("%v does not build", c)
				}
				c.seqMargin = margin
				near, _ := runAdmissionCase(t, c, nil)
				if plain.renumbered != 0 || margin <= 2 && near.renumbered == 0 {
					t.Fatalf("%v\nrenumbered %d times unshifted and %d times shifted, want 0 and some", c, plain.renumbered, near.renumbered)
				}
				diverge(t, c, "admissions", near.admits, plain.admits)
				diverge(t, c, "rejections", near.rejects, plain.rejects)
				diverge(t, c, "deliveries", near.delivery, plain.delivery)
				if !reflect.DeepEqual(near.res, plain.res) {
					t.Fatalf("%v\nResults differ:\n  shifted   %+v\n  unshifted %+v", c, near.res, plain.res)
				}
				if len(plain.admits) < 500 {
					t.Fatalf("%v\nonly %d admissions: the comparison proves little", c, len(plain.admits))
				}
			}
		}
	}
}

// FuzzStripedAdmission is TestStripedAdmissionMatchesScan on fuzzed
// cases.
func FuzzStripedAdmission(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 4, 20, 10, 2, 3, 40, 10, 7, 10, 100, 5, 3, 4, 1, 2})
	f.Add([]byte{30, 5, 30, 12, 1, 2, 47, 8, 9, 0, 200, 20, 0, 8, 127, 1, 3, 2, 4, 5, 2, 3, 1, 2, 1, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		compareRuns(t, admissionCaseFrom(data), useFullScan)
	})
}
