package sched

import (
	"errors"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/tertiary"
)

// fuzzBytes hands out fuzz input one byte at a time, zero once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzMember is the cluster-member part of a fuzz case: the preload
// list (which may hold an out-of-range id), the injected traffic, and
// one Kill/Revive pair.
type fuzzMember struct {
	preload  []int
	seed     uint64 // arrival stream
	rate     int    // arrivals per interval, uniform in [0, rate]
	killAt   int    // interval of the Kill; past the run, no kill
	reviveIn int    // intervals from the Kill to the Revive
}

// fuzzConfig maps fuzz bytes to a small, bounded Config: every size
// stays within a few dozen disks, objects, and stations and a few
// hundred intervals, so one run takes milliseconds.  Each field still
// reaches just past its valid range, so Validate and the technique
// binders see invalid values too.  A non-nil member picks the
// cluster-member build (TechniqueInfo.NewMember) and says how to drive
// it.
func fuzzConfig(data []byte) (cfg Config, member *fuzzMember) {
	b := fuzzBytes(data)
	cfg = smallConfig(1, 20)
	cfg.D = b.next()%64 + 1
	cfg.K = b.next() % (cfg.D + 2)
	cfg.M = b.next() % 9
	cfg.CapacityFragments = b.next() % 160
	cfg.Objects = b.next() % 48
	cfg.Subobjects = b.next() % 40
	cfg.Stations = b.next() % 40
	cfg.DistMean = float64(b.next()%64)/2 + 1
	cfg.Seed = uint64(b.next())
	cfg.WarmupIntervals = b.next() % 128
	cfg.MeasureIntervals = b.next() % 256
	cfg.PreloadTop = b.next() % 48
	flags := b.next() // the 1 and 2 bits are unused, kept so seeds keep their meaning
	cfg.EvictionPressure = flags&4 != 0
	if flags&8 != 0 {
		cfg.TapeLayout = tertiary.Sequential
	}
	if flags&16 != 0 && cfg.Objects > 0 && cfg.M > 0 {
		cfg.Degrees = make([]int, cfg.Objects)
		for i := range cfg.Degrees {
			cfg.Degrees[i] = b.next()%cfg.M + 1
		}
	}
	var preload []int
	if flags&32 != 0 {
		preload = []int{b.next() % (cfg.Objects + 1), b.next() % (cfg.Objects + 1)}
	}
	cfg.MaxStartup = b.next() % 16
	cfg.PlaceRetryLimit = b.next()%8 - 1
	// Arrival mode: 0 and 1 the closed loop, 2 a Poisson rate (which
	// every engine build refuses: only the cluster driver draws open
	// arrivals), 3 a member.
	switch mode, v := b.next()%4, b.next(); mode {
	case 2:
		cfg.ArrivalsPerHour = float64(v%32) * 500
	case 3:
		member = &fuzzMember{preload: preload}
	}
	cfg.ZipfSkew = float64(b.next()%16) / 8
	cfg.ZipfFlipInterval = b.next() % 200
	if c := b.next(); c != 0 {
		cfg.Cache = &cache.Spec{
			BudgetBytes: int64(c%16) << 22,
			BatchWindow: b.next() % 8,
		}
	}
	if n := b.next() % 5; n > 0 {
		p := fault.NewPlan()
		for i := 0; i < n; i++ {
			at := b.next() * 2
			until := at + b.next() + 1
			disk := b.next() % (cfg.D + 1)
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
	if member != nil {
		member.seed = uint64(b.next())
		member.rate = b.next() % 4
		member.killAt = b.next() * 2
		member.reviveIn = b.next()
	}
	return cfg, member
}

// runFuzzCase runs e to the end of its window with the display ledger,
// the in-flight recount, zero hiccups, the cache budget and, for the
// striped techniques, checkStriped's conditions checked after every
// interval.  A standalone engine runs through RunChecked,
// whose StarvationError is a legal outcome; a member gets the case's
// injected traffic and its Kill/Revive pair.
func runFuzzCase(t *testing.T, e *Engine, m *fuzzMember) {
	e.stepCheck = func() {
		checkLedger(t, e)
		checkInFlight(t, e)
		checkBounds(t, e)
		checkQueue(t, e)
		checkStriped(t, e)
	}
	if m == nil {
		if _, err := e.RunChecked(); err != nil {
			if _, ok := err.(*StarvationError); !ok {
				t.Fatalf("RunChecked: %v", err)
			}
		}
		return
	}
	arrivals := rng.NewSource(m.seed).Stream("fuzz-arrivals")
	end := e.cfg.WarmupIntervals + e.cfg.MeasureIntervals
	killed := false
	e.Prime()
	for e.now < end {
		if !killed && e.now == m.killAt {
			killed = true
			if _, err := e.Kill(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m.reviveIn; i++ {
				e.StepOne()
			}
			if err := e.Revive(); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, e)
			continue
		}
		for n := arrivals.Intn(m.rate + 1); n > 0; n-- {
			e.InjectArrival(arrivals.Intn(e.cfg.Objects))
		}
		e.StepOne()
	}
}

// FuzzEngineConfig: every configuration either fails Validate or fails
// to build, or runs under every registered technique, standalone or as
// a cluster member fed injected traffic and killed and revived once —
// never a panic, a hang, a hiccup, a cache over its budget or a display
// ledger out of balance after any interval, whether or not a
// materialization starves.  A build fails with ErrOwnArrivals exactly
// when the configuration has a positive arrival rate.
func FuzzEngineConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{49, 5, 5, 60, 40, 30, 16, 40, 1, 100, 200, 1, 0})
	f.Add([]byte{49, 1, 5, 60, 40, 30, 8, 40, 1, 0, 200, 1, 0, 3, 0, 4})
	f.Add([]byte{47, 1, 4, 80, 20, 10, 24, 10, 7, 20, 120, 0, 0, 35, 1, 2, 3, 4})
	f.Add([]byte{39, 5, 5, 60, 40, 30, 32, 20, 3, 50, 180, 0, 0, 4, 0, 1, 0, 8, 2, 0, 3, 10, 4, 50, 120, 7, 1})
	// A member with the cache and batching, two preloaded objects and
	// injected traffic that batches followers, killed at interval 124 with
	// displays in flight and revived within one calendar horizon (24
	// intervals) or, in the second seed, after more than one.
	f.Add([]byte{49, 5, 5, 60, 40, 12, 32, 20, 1, 20, 250, 0, 32, 0, 1, 4, 3, 3, 0, 15, 0, 15, 7, 0, 9, 3, 62, 20})
	f.Add([]byte{49, 5, 5, 60, 40, 12, 32, 20, 1, 20, 250, 0, 32, 0, 1, 4, 3, 3, 0, 15, 0, 15, 7, 0, 9, 3, 62, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, member := fuzzConfig(data)
		if cfg.Validate() != nil {
			return
		}
		for _, ti := range Techniques() {
			stride := 0
			if ti.Key == "staggered" {
				stride = cfg.K
			}
			norm, err := ti.Configure(cfg, stride)
			if err != nil {
				continue
			}
			var e *Engine
			if member != nil {
				e, err = newMember(ti, norm, member.preload)
			} else {
				e, err = ti.New(norm)
			}
			if refused, open := errors.Is(err, ErrOwnArrivals), norm.ArrivalsPerHour > 0; refused != open {
				t.Fatalf("%s: ArrivalsPerHour %v built with error %v", ti.Key, norm.ArrivalsPerHour, err)
			}
			if err != nil {
				continue
			}
			runFuzzCase(t, e, member)
		}
	})
}
