package sched_test

import (
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
)

// TestPreloadMatchesPlace checks the striped build's one-pass preload
// against its oracle: a store that places the same ids, in the same
// order, one Place at a time and stops at the first that fails.  The
// bound engine's store must hold the same placements, per-disk usage
// and free space, put the next object where the oracle does (the ring
// cursor), and give exactly the placed objects a ready FIFO on their
// own first disk and degree.  The configs take the bulk plan (the
// Table 3 point fills every disk to exactly its capacity), mixed
// degrees, the Place loop of a farm whose ramps do not pack, and
// cluster members' assigned sets.
func TestPreloadMatchesPlace(t *testing.T) {
	table3 := sched.Table3Config(256, 20, 1)
	scale := experiment.ScaleConfig(1000, 1)
	scale.ZipfSkew = 0.4
	mixed := sched.Config{
		D: 48, K: 1, CapacityFragments: 480, Objects: 48, Subobjects: 120, M: 4,
		BDisk: 20e6, FragmentBytes: 1512000, Tertiary: tertiary.Table3, TapeLayout: tertiary.DiskMatched,
		Stations: 16, DistMean: 20, Seed: 1,
		WarmupIntervals: 600, MeasureIntervals: 3000,
	}
	mixed.Degrees = make([]int, mixed.Objects)
	for i := range mixed.Degrees {
		mixed.Degrees[i] = 2 + i%3
	}
	// k=1 < M=4 with three subobjects: each window ramps 1,2,3,3,2,1,
	// so a farm sized to the footprints' sum overflows where the
	// ramps meet.
	ramps := mixed
	ramps.Degrees, ramps.Subobjects, ramps.CapacityFragments = nil, 3, 12
	for _, c := range []struct {
		name, key string
		stride    int
		cfg       sched.Config
	}{
		{"table3-staggered-k1", "staggered", 1, table3},
		{"scale1000-zipf", "striped", 0, scale},
		{"mixed-degrees", "staggered", 1, mixed},
		{"ramps-fallback", "staggered", 1, ramps},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, cfg, err := sched.NewEngineFor(c.key, c.cfg, c.stride)
			if err != nil {
				t.Fatal(err)
			}
			checkPreload(t, e, cfg)
		})
	}

	// A fleet shaped like the benchmark's cache-and-failover cluster:
	// four ScaleConfig(100) members under Zipf 1.1 with a prefix
	// cache, the hottest ranks on every member and the rest dealt
	// round the fleet, each list capped at what one farm holds.
	base := experiment.ScaleConfig(100, 1)
	base.ZipfSkew = 1.1
	base.Stations = 12000
	base.Cache = &cache.Spec{BudgetBytes: 1024 << 20, BatchWindow: 8}
	ti, _ := sched.TechniqueByKey("striped")
	base, err := ti.Configure(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := base.Popularity()
	if err != nil {
		t.Fatal(err)
	}
	const servers, shared = 4, 64
	for i := 0; i < servers; i++ {
		var ids []int
		for rank := 0; rank < base.Objects && len(ids) < base.DefaultPreload(); rank++ {
			if rank < shared || rank%servers == i {
				ids = append(ids, rank)
			}
		}
		scfg := base
		scfg.Seed = uint64(i + 1)
		e, err := ti.NewMember(scfg, dist, ids)
		if err != nil {
			t.Fatal(err)
		}
		checkPreload(t, e, scfg)
	}
}

// checkPreload compares engine e's preloaded store with the Place
// loop's over the same ids.
func checkPreload(t *testing.T, e *sched.Engine, cfg sched.Config) {
	t.Helper()
	got, ids := e.PreloadedStore()
	layout, err := core.NewLayout(cfg.D, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewStore(layout, cfg.CapacityFragments)
	if err != nil {
		t.Fatal(err)
	}
	want.Reserve(cfg.Objects)
	for _, id := range ids {
		if _, err := want.Place(id, cfg.Degree(id), cfg.Subobjects); err != nil {
			break
		}
	}
	if got.ResidentCount() != want.ResidentCount() || got.FreeFragments() != want.FreeFragments() {
		t.Fatalf("preload: %d resident, %d free; Place loop: %d resident, %d free",
			got.ResidentCount(), got.FreeFragments(), want.ResidentCount(), want.FreeFragments())
	}
	for d := 0; d < cfg.D; d++ {
		if got.Used(d) != want.Used(d) {
			t.Fatalf("disk %d holds %d fragments after the preload, %d after the Place loop", d, got.Used(d), want.Used(d))
		}
	}
	for id := 0; id < cfg.Objects; id++ {
		gp, gok := got.Placement(id)
		wp, wok := want.Placement(id)
		if gp != wp || gok != wok {
			t.Fatalf("object %d: preload %+v (%v), Place loop %+v (%v)", id, gp, gok, wp, wok)
		}
		first, degree, ok := e.ReadyFIFO(id)
		if ok != wok || ok && (first != wp.First || degree != wp.M) {
			t.Fatalf("object %d: ready FIFO (%d, %d, %v), placement %+v (%v)", id, first, degree, ok, wp, wok)
		}
	}
	t.Logf("%d of %d ids placed", want.ResidentCount(), len(ids))
	// The next placement lands where the oracle's cursor puts it.
	for id := 0; id < cfg.Objects; id++ {
		if !want.Resident(id) {
			gp, gerr := got.Place(id, cfg.Degree(id), cfg.Subobjects)
			wp, werr := want.Place(id, cfg.Degree(id), cfg.Subobjects)
			if gp != wp || (gerr == nil) != (werr == nil) {
				t.Fatalf("next Place of object %d: preload store %+v, %v; Place loop store %+v, %v", id, gp, gerr, wp, werr)
			}
			break
		}
	}
}
