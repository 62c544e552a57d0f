package sched

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
)

// cacheSpec is the canonical enabled tier for these tests: a budget
// that holds a handful of quick-geometry prefixes (one prefix is
// 4·5·1512000 ≈ 30 MB) plus a batching window.
func cacheSpec() *cache.Spec {
	return &cache.Spec{BudgetBytes: 256 << 20, BatchWindow: 8}
}

// TestCacheDisabledGolden proves the memory tier costs nothing when
// disabled: with a zero-valued (but non-nil) cache spec attached to
// every configuration, both golden dumps must stay byte-identical to
// their pinned files — the same no-cost contract the fault layer pins
// with TestEmptyFaultPlanGolden.
func TestCacheDisabledGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps are not short")
	}
	withDisabledCache := func(cfg *Config) { cfg.Cache = &cache.Spec{} }

	got := goldenDumpWith(t, withDisabledCache)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_sweep.txt"))
	if err != nil {
		t.Fatalf("missing golden dump: %v", err)
	}
	if got != string(want) {
		t.Error("49-config dump with a disabled cache spec differs from golden")
	}

	got = staggeredGoldenDump(t, withDisabledCache)
	want, err = os.ReadFile(filepath.Join("testdata", "golden_staggered.txt"))
	if err != nil {
		t.Fatalf("missing staggered golden dump: %v", err)
	}
	if got != string(want) {
		t.Error("staggered dump with a disabled cache spec differs from golden")
	}
}

// TestCacheDisabledCountersZero asserts a cache-disabled run reports
// zeroed cache counters — the half of the contract the legacy golden
// projection cannot see.
func TestCacheDisabledCountersZero(t *testing.T) {
	cfg := smallConfig(8, 20)
	cfg.Cache = &cache.Spec{}
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedFromCache != 0 || res.BatchedFollowers != 0 ||
		res.CacheHitBytes != 0 || res.OpenRejected != 0 {
		t.Errorf("cache-disabled run has nonzero cache counters: %+v", res)
	}
}

// techniqueConfigs are configurations spanning the three
// techniques' hot paths: plain striping, staggered striping with
// Algorithms 1+2, and the VDR baseline.
func techniqueConfigs() map[string]struct {
	key    string
	stride int
	cfg    Config
} {
	staggered := smallConfig(48, 20)
	staggered.Seed = 3

	return map[string]struct {
		key    string
		stride int
		cfg    Config
	}{
		"striped":   {"striped", 0, smallConfig(64, 43.5)},
		"staggered": {"staggered", 1, staggered},
		"vdr":       {"vdr", 0, smallConfig(32, 10)},
	}
}

// TestCacheDeterministic pins that a run with the memory tier on is
// reproducible: the same configuration run twice yields byte-identical
// Results, across all three techniques.
func TestCacheDeterministic(t *testing.T) {
	for name, tc := range techniqueConfigs() {
		t.Run(name, func(t *testing.T) {
			run := func() Result {
				cfg := tc.cfg
				cfg.Cache = cacheSpec()
				e, _, err := NewEngineFor(tc.key, cfg, tc.stride)
				if err != nil {
					t.Fatal(err)
				}
				return e.Run()
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Errorf("same config, different cached results:\n  first:  %+v\n  second: %+v", a, b)
			}
		})
	}
}

// TestCacheOpenArrivalsDeterministic repeats the determinism check for
// the open-system workload the cache experiments use (Poisson arrivals
// + Zipf popularity), where the idle-station pool and the arrival
// stream are additional state that must replay exactly.
func TestCacheOpenArrivalsDeterministic(t *testing.T) {
	run := func() Result {
		cfg := smallConfig(64, 20)
		cfg.ZipfSkew = 0.7
		cfg.ArrivalsPerHour = 6000
		cfg.Cache = cacheSpec()
		e, err := NewEngine(cfg, &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config, different open-arrivals results:\n  first:  %+v\n  second: %+v", a, b)
	}
	if a.BatchedFollowers == 0 {
		t.Error("open Zipf workload produced no batched followers; the determinism check exercised nothing")
	}
}

// checkCacheConservation asserts the closed-loop station accounting
// with the tier on: every station is queued, in a display, in a
// follower display, or batched pending — and lifetime admissions
// balance completions, aborts, and in-flight work.
func checkCacheConservation(t *testing.T, e *Engine) {
	t.Helper()
	active := e.tech.activeDisplays()
	if got := e.admittedTotal; got != e.completedTotal+e.abortedTotal+active+e.activeFollowers {
		t.Errorf("admission conservation violated: admitted %d != completed %d + aborted %d + active %d + followers %d",
			got, e.completedTotal, e.abortedTotal, active, e.activeFollowers)
	}
	if e.open == nil {
		total := len(e.queue) + active + e.activeFollowers + e.pendingFollowers
		if total != e.cfg.Stations {
			t.Errorf("station conservation violated: queue %d + active %d + followers %d + pending %d != stations %d",
				len(e.queue), active, e.activeFollowers, e.pendingFollowers, e.cfg.Stations)
		}
	}
	if e.pendingFollowers < 0 || e.activeFollowers < 0 {
		t.Errorf("negative follower accounting: active %d pending %d", e.activeFollowers, e.pendingFollowers)
	}
}

// TestCacheConservation runs the cached Zipf closed loop on all three
// techniques and checks the accounting identities at the end.
func TestCacheConservation(t *testing.T) {
	for name, tc := range techniqueConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ZipfSkew = 1.1
			cfg.Cache = cacheSpec()
			e, _, err := NewEngineFor(tc.key, cfg, tc.stride)
			if err != nil {
				t.Fatal(err)
			}
			res := e.Run()
			checkCacheConservation(t, e)
			// Staggered k=1 fragmented admissions can carry a startup
			// Tmax beyond the prefix, and saturation keeps hot objects
			// continuously queued (the batch anchor never refreshes),
			// so only the fast-admitting techniques are guaranteed to
			// form batches here.
			if name != "staggered" && res.BatchedFollowers == 0 {
				t.Error("Zipf(1.1) closed loop produced no batched followers")
			}
			if res.ServedFromCache == 0 {
				t.Error("Zipf(1.1) closed loop produced no cache-served startups")
			}
		})
	}
}

// TestCacheStagingAbortDetachesFollowers is the PR 4 interaction fix:
// a tertiary outage abandons staging mid-flight, and any followers
// batched behind the staging object's queued request must be requeued
// as ordinary requests instead of waiting forever — conservation must
// hold through the outage, and the stations must all stay accounted.
func TestCacheStagingAbortDetachesFollowers(t *testing.T) {
	plan := fault.NewPlan().TertiaryOutage(650, 2200)
	for _, key := range []string{"striped", "vdr"} {
		t.Run(key, func(t *testing.T) {
			cfg := smallConfig(48, 10) // skewed: misses batch up behind staging
			cfg.ZipfSkew = 1.1
			cfg.Cache = cacheSpec()
			cfg.Faults = plan
			e, _, err := NewEngineFor(key, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			checkCacheConservation(t, e)
			if e.stn.Outstanding() != cfg.Stations {
				t.Errorf("outstanding stations %d != %d after outage run", e.stn.Outstanding(), cfg.Stations)
			}
		})
	}
}

// TestCacheBeatsDisabled is the headline property at unit scale: on a
// hot-head Zipf workload, the tier must complete more displays than
// the identical disk-only run — followers ride existing streams
// instead of burning bandwidth.
func TestCacheBeatsDisabled(t *testing.T) {
	base := smallConfig(64, 20)
	base.ZipfSkew = 1.1

	disk, err := NewEngine(base, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	diskRes := disk.Run()

	cached := base
	cached.Cache = cacheSpec()
	eng, err := NewEngine(cached, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	cachedRes := eng.Run()

	if cachedRes.Displays <= diskRes.Displays {
		t.Errorf("cache did not beat disk-only: %d vs %d displays", cachedRes.Displays, diskRes.Displays)
	}
	if cachedRes.CacheHitBytes == 0 {
		t.Error("no bytes served from RAM")
	}
	if rate := cachedRes.CacheHitRate(); rate <= 0 || rate > 1 {
		t.Errorf("cache hit rate %v out of range", rate)
	}
}

// TestOpenArrivalsDiskOnly pins the open-system workload without the
// tier: arrivals must balance stations and rejections, and the zero
// cache counters prove open mode alone doesn't touch the tier path.
func TestOpenArrivalsDiskOnly(t *testing.T) {
	cfg := smallConfig(16, 20)
	cfg.ArrivalsPerHour = 20000 // deliberately overdriven: must reject
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.OpenRejected == 0 {
		t.Error("overdriven open system rejected nothing")
	}
	if res.Displays == 0 {
		t.Error("open system completed nothing")
	}
	if res.ServedFromCache != 0 || res.BatchedFollowers != 0 {
		t.Errorf("open mode without a cache spec touched the tier: %+v", res)
	}
}
