package sched

import (
	"fmt"

	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/policy"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/tertiary"
	"github.com/mmsim/staggered/internal/vdisk"
	"github.com/mmsim/staggered/internal/workload"
)

// desval is a second, independently structured implementation of the
// striped throughput model, shaped like the paper's CSIM program:
// every display station requests an object, waits for its display to
// end and requests the next, while a centralized scheduler advances
// the tertiary staging and admits waiting displays.  It exists purely
// to cross-validate the interval-quantized Striped engine: both
// implementations must agree on throughput to within a small
// tolerance (they may order same-interval events differently).
//
// Scope: the Figure 8 configuration — contiguous admission (K = M),
// single media type, zero think time, no eviction pressure.
//
// The model runs as one loop over intervals.  Each interval t does, in
// order: set the warm-up boundary; run the endings due at t (display
// ends and the staging end, in the order they were scheduled);
// re-request for every station whose display ended; advance the
// tertiary staging; admit.  The stations' first requests are issued
// before interval 0.
type desval struct {
	cfg   Config
	t     int // current interval
	store *core.Store
	lfu   *policy.LFU
	tman  *tertiary.Manager
	gen   *workload.Generator

	vbusy []int32

	queue  []desreq
	pinned []int  // object -> queued requests
	active []int  // object -> displays in progress
	ready  []bool // object -> on disk and admissible

	// due holds the endings scheduled for each coming interval, in
	// scheduling order, as a ring indexed by interval mod its length.
	due [][]ending

	stageWidth int // disks a staging writes at once
	staging    int // object being staged, -1 when idle
	stageBegun bool

	hiccups int
}

type desreq struct {
	station int
	object  int
}

// ending is a display's end (station >= 0) or the staging's end
// (station < 0): the virtual disks it releases at its interval.
type ending struct {
	station int
	object  int
	vids    []int
}

// RunDESValidation runs the cross-check model and returns the displays
// completed during the measurement window.
func RunDESValidation(cfg Config) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if cfg.Degrees != nil || !cfg.Faults.Empty() || cfg.ZipfSkew != 0 || cfg.ArrivalsPerHour != 0 || cfg.Cache.Enabled() ||
		cfg.ZipfFlipInterval != 0 || cfg.K != cfg.M || cfg.EvictionPressure {
		return 0, fmt.Errorf("sched: DES validation model supports the base Figure 8 configuration only")
	}
	layout, err := core.NewLayout(cfg.D, cfg.K)
	if err != nil {
		return 0, err
	}
	store, err := core.NewStore(layout, cfg.CapacityFragments)
	if err != nil {
		return 0, err
	}
	store.Reserve(cfg.Objects)
	gen, err := workload.NewGenerator(rng.NewSource(cfg.Seed), cfg.Objects, cfg.DistMean, cfg.Stations)
	if err != nil {
		return 0, err
	}
	e := &desval{
		cfg:        cfg,
		store:      store,
		lfu:        policy.NewLFU(cfg.Objects),
		tman:       tertiary.NewManager(cfg.Objects),
		gen:        gen,
		vbusy:      make([]int32, cfg.D),
		pinned:     make([]int, cfg.Objects),
		active:     make([]int, cfg.Objects),
		ready:      make([]bool, cfg.Objects),
		due:        make([][]ending, max(cfg.Subobjects, cfg.MaterializeIntervals())+1),
		stageWidth: min(cfg.Tertiary.DisksOccupied(cfg.BDisk), cfg.M),
		staging:    -1,
	}
	for i := range e.vbusy {
		e.vbusy[i] = freeSlot
	}

	preload := cfg.PreloadTop
	if preload == 0 {
		preload = cfg.DefaultPreload()
	}
	for _, id := range gen.TopObjects(preload) {
		if _, err := e.store.Place(id, cfg.M, cfg.Subobjects); err != nil {
			break
		}
		e.ready[id] = true
	}

	for s := 0; s < cfg.Stations; s++ {
		e.request(s)
	}
	completed := 0
	horizon := cfg.WarmupIntervals + cfg.MeasureIntervals
	for t := 0; t <= horizon; t++ {
		e.t = t
		measuring := t >= cfg.WarmupIntervals
		slot := &e.due[t%len(e.due)]
		ends := *slot
		for _, x := range ends {
			e.end(x)
		}
		for _, x := range ends {
			if x.station >= 0 {
				if measuring {
					completed++
				}
				e.request(x.station)
			}
		}
		*slot = ends[:0]
		e.stepTertiary()
		e.admit()
	}
	if e.hiccups != 0 {
		return completed, fmt.Errorf("sched: DES validation model recorded %d hiccups", e.hiccups)
	}
	return completed, nil
}

// request queues station s's next display.
func (e *desval) request(s int) {
	obj := e.gen.Draw(s)
	e.lfu.Touch(obj)
	e.queue = append(e.queue, desreq{station: s, object: obj})
	e.pinned[obj]++
}

// schedule queues x to end d > 0 intervals from now.
func (e *desval) schedule(d int, x ending) {
	slot := &e.due[(e.t+d)%len(e.due)]
	*slot = append(*slot, x)
}

// end releases x's virtual disks; a staging end also makes its object
// admissible and frees the tertiary device.
func (e *desval) end(x ending) {
	for _, v := range x.vids {
		e.vbusy[v] = freeSlot
	}
	if x.station >= 0 {
		e.active[x.object]--
		return
	}
	e.ready[x.object] = true
	if _, err := e.tman.Finish(); err != nil {
		e.hiccups++
	}
	e.staging = -1
	e.stageBegun = false
}

// stepTertiary starts the next staging when the device is idle and a
// request can secure space and write disks; the staging's end is
// scheduled.
func (e *desval) stepTertiary() {
	if e.stageBegun {
		return // end pending
	}
	if e.staging < 0 {
		id, ok := e.tman.StartNext()
		if !ok {
			return
		}
		e.staging = id
	}
	id := e.staging
	first, ok := e.stagePlace(id)
	if !ok || !e.free(first, e.stageWidth) {
		return // retry next interval
	}
	e.stageBegun = true
	e.schedule(e.cfg.MaterializeIntervals(), ending{station: -1, object: id, vids: e.claim(first, e.stageWidth, matOwner)})
}

// stagePlace returns the first disk of object id's placement, placing
// it (evicting cold objects as needed) when it is not resident.
func (e *desval) stagePlace(id int) (int, bool) {
	if !e.store.Resident(id) {
		need := e.cfg.M * e.cfg.Subobjects
		for e.store.FreeFragments() < need {
			var candidates []int
			for _, rid := range e.store.ResidentIDs() {
				if e.ready[rid] && e.active[rid] == 0 && e.pinned[rid] == 0 && !e.tman.Pending(rid) && rid != e.staging {
					candidates = append(candidates, rid)
				}
			}
			victim, ok := e.lfu.Victim(candidates)
			if !ok {
				return 0, false
			}
			e.ready[victim] = false
			if err := e.store.Evict(victim); err != nil {
				e.hiccups++
				return 0, false
			}
		}
		if _, err := e.store.Place(id, e.cfg.M, e.cfg.Subobjects); err != nil {
			return 0, false
		}
	}
	p, ok := e.store.Placement(id)
	return p.First, ok
}

// free reports whether the n virtual disks under physical disks
// first, first+1, … are idle at the current interval.
func (e *desval) free(first, n int) bool {
	for j := 0; j < n; j++ {
		if e.vbusy[vdisk.VirtualAt((first+j)%e.cfg.D, e.t, e.cfg.K, e.cfg.D)] != freeSlot {
			return false
		}
	}
	return true
}

// claim gives those n virtual disks to owner and returns them.
func (e *desval) claim(first, n int, owner int32) []int {
	vids := make([]int, n)
	for j := range vids {
		v := vdisk.VirtualAt((first+j)%e.cfg.D, e.t, e.cfg.K, e.cfg.D)
		e.vbusy[v] = owner
		vids[j] = v
	}
	return vids
}

// admit scans the request queue in arrival order, starting every
// display whose disks are free at the current interval.
func (e *desval) admit() {
	kept := e.queue[:0]
	for _, r := range e.queue {
		if !e.ready[r.object] {
			e.tman.Request(r.object)
			kept = append(kept, r)
			continue
		}
		pl, ok := e.store.Placement(r.object)
		if !ok {
			e.ready[r.object] = false
			e.tman.Request(r.object)
			kept = append(kept, r)
			continue
		}
		if !e.free(pl.First, e.cfg.M) {
			kept = append(kept, r)
			continue
		}
		e.active[r.object]++
		e.pinned[r.object]--
		e.schedule(e.cfg.Subobjects, ending{station: r.station, object: r.object, vids: e.claim(pl.First, e.cfg.M, int32(r.station))})
	}
	e.queue = kept
}
