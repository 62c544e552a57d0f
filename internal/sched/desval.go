package sched

import (
	"fmt"

	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/policy"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/sim"
	"github.com/mmsim/staggered/internal/tertiary"
	"github.com/mmsim/staggered/internal/vdisk"
	"github.com/mmsim/staggered/internal/workload"
)

// desval is a second, independently structured implementation of the
// striped throughput model: a CSIM-style process-oriented simulation
// on the sim kernel, with one process per display station plus a
// scheduler and a tertiary process — the architecture the paper's own
// CSIM program would have used.  It exists purely to cross-validate
// the interval-quantized Striped engine: both implementations must
// agree on throughput to within a small tolerance (they may order
// same-interval events differently).
//
// Scope: the Figure 8 configuration — contiguous admission (k = M),
// single media type, zero think time.
//
// The kernel's time unit is one interval, so every completion, staging
// end, warm-up and horizon time is an exact integer and the interval
// number is the clock itself.
type desval struct {
	cfg    Config
	k      *sim.Kernel
	layout core.Layout
	store  *core.Store
	lfu    *policy.LFU
	tman   *tertiary.Manager
	gen    *workload.Generator

	vbusy []int32

	queue  []desreq
	pinned map[int]int
	active map[int]int // object -> display count
	ready  map[int]bool

	staging    int // object being staged, -1 when idle
	stageVids  []int
	stageBegun bool

	// window statistics
	measuring bool
	completed int
	mats      int
	hiccups   int
}

type desreq struct {
	station int
	object  int
	done    *sim.Signal
}

// RunDESValidation runs the process-oriented model and returns the
// displays completed during the measurement window.
func RunDESValidation(cfg Config) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if cfg.Degrees != nil || !cfg.Faults.Empty() || cfg.ZipfSkew != 0 || cfg.ArrivalsPerHour != 0 || cfg.Cache.Enabled() || cfg.ZipfFlipInterval != 0 {
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
	k := sim.New()
	e := &desval{
		cfg:    cfg,
		k:      k,
		layout: layout,
		store:  store,
		lfu:    policy.NewLFU(cfg.Objects),
		tman:   tertiary.NewManager(cfg.Objects),
		gen:    gen,
		vbusy:  make([]int32, cfg.D),
		pinned: make(map[int]int),
		active: make(map[int]int),
		ready:  make(map[int]bool),
	}
	for i := range e.vbusy {
		e.vbusy[i] = freeSlot
	}
	e.staging = -1

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

	// One process per display station: draw, submit, wait, repeat.
	for s := 0; s < cfg.Stations; s++ {
		s := s
		k.Spawn(fmt.Sprintf("station-%d", s), func(p *sim.Process) {
			for {
				obj := e.gen.Draw(s)
				e.lfu.Touch(obj)
				done := e.k.NewSignal()
				e.queue = append(e.queue, desreq{station: s, object: obj, done: done})
				e.pinned[obj]++
				p.Wait(done) // fires after the display's last subobject
				if e.measuring {
					e.completed++
				}
			}
		})
	}

	// The centralized scheduler: at every interval boundary, first
	// advance the tertiary pipeline (the interval engine's ordering),
	// then admit waiting displays.  Hold(0) lets the stations whose
	// displays completed at this instant re-request first, as the
	// interval engine re-issues before it admits.
	k.Spawn("scheduler", func(p *sim.Process) {
		for {
			p.Hold(0)
			e.stepTertiary()
			e.admit()
			p.Hold(1)
		}
	})

	k.At(sim.Time(cfg.WarmupIntervals), func() { e.measuring = true })
	k.Run(sim.Time(cfg.WarmupIntervals + cfg.MeasureIntervals))
	if e.hiccups != 0 {
		return e.completed, fmt.Errorf("sched: DES validation model recorded %d hiccups", e.hiccups)
	}
	return e.completed, nil
}

// interval returns the current interval number: the kernel clock.
func (e *desval) interval() int { return int(e.k.Now()) }

// stepTertiary starts the next staging when the device is idle and a
// request can secure space and write disks; the staging's completion
// is a scheduled event.
func (e *desval) stepTertiary() {
	if e.stageBegun {
		return // completion event pending
	}
	if e.staging < 0 {
		id, ok := e.tman.StartNext()
		if !ok {
			return
		}
		e.staging = id
	}
	id := e.staging
	if !e.stageReady(id) {
		return // retry next interval
	}
	vids := e.stageClaim(id)
	e.stageBegun = true
	e.k.After(sim.Time(e.cfg.MaterializeIntervals()), func() {
		for _, v := range vids {
			e.vbusy[v] = freeSlot
		}
		e.ready[id] = true
		if _, err := e.tman.Finish(); err != nil {
			e.hiccups++
		}
		if e.measuring {
			e.mats++
		}
		e.staging = -1
		e.stageBegun = false
	})
}

// stageReady reports whether object id has space on the farm (evicting
// cold objects as needed).
func (e *desval) stageReady(id int) bool {
	if e.store.Resident(id) {
		return e.stageDisksFree(id)
	}
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
			return false
		}
		delete(e.ready, victim)
		if err := e.store.Evict(victim); err != nil {
			e.hiccups++
			return false
		}
	}
	if _, err := e.store.Place(id, e.cfg.M, e.cfg.Subobjects); err != nil {
		return false
	}
	return e.stageDisksFree(id)
}

func (e *desval) stageDisksFree(id int) bool {
	p, ok := e.store.Placement(id)
	if !ok {
		return false
	}
	w := e.cfg.Tertiary.DisksOccupied(e.cfg.BDisk)
	if w > e.cfg.M {
		w = e.cfg.M
	}
	t := e.interval()
	for j := 0; j < w; j++ {
		v := vdisk.VirtualAt((p.First+j)%e.cfg.D, t, e.cfg.K, e.cfg.D)
		if e.vbusy[v] != freeSlot {
			return false
		}
	}
	return true
}

func (e *desval) stageClaim(id int) []int {
	p, _ := e.store.Placement(id)
	w := e.cfg.Tertiary.DisksOccupied(e.cfg.BDisk)
	if w > e.cfg.M {
		w = e.cfg.M
	}
	t := e.interval()
	vids := make([]int, w)
	for j := 0; j < w; j++ {
		v := vdisk.VirtualAt((p.First+j)%e.cfg.D, t, e.cfg.K, e.cfg.D)
		e.vbusy[v] = matOwner
		vids[j] = v
	}
	return vids
}

// admit scans the request queue in arrival order, starting every
// display whose disks are free at the current interval.
func (e *desval) admit() {
	t := e.interval()
	kept := e.queue[:0]
	for _, r := range e.queue {
		if !e.ready[r.object] {
			e.tman.Request(r.object)
			kept = append(kept, r)
			continue
		}
		pl, ok := e.store.Placement(r.object)
		if !ok {
			delete(e.ready, r.object)
			e.tman.Request(r.object)
			kept = append(kept, r)
			continue
		}
		vids := make([]int, e.cfg.M)
		free := true
		for j := 0; j < e.cfg.M; j++ {
			v := vdisk.VirtualAt((pl.First+j)%e.cfg.D, t, e.cfg.K, e.cfg.D)
			if e.vbusy[v] != freeSlot {
				free = false
				break
			}
			vids[j] = v
		}
		if !free {
			kept = append(kept, r)
			continue
		}
		// Start the display: claim virtual disks, schedule their
		// release and the station's completion.
		r := r
		for _, v := range vids {
			e.vbusy[v] = int32(r.station) // owner tag; only used for assertions
		}
		e.active[r.object]++
		e.pinned[r.object]--
		if e.pinned[r.object] == 0 {
			delete(e.pinned, r.object)
		}
		obj := r.object
		e.k.After(sim.Time(e.cfg.Subobjects), func() {
			for _, v := range vids {
				e.vbusy[v] = freeSlot
			}
			e.active[obj]--
			if e.active[obj] == 0 {
				delete(e.active, obj)
			}
			r.done.Fire()
		})
	}
	e.queue = kept
}
