package sched

import (
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
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

// fuzzConfig maps fuzz bytes to a small, bounded Config: every size
// stays within a few dozen disks, objects, and stations and a few
// hundred intervals, so one run takes milliseconds.  Each field still
// reaches just past its valid range, so Validate and the technique
// binders see invalid values too.
func fuzzConfig(data []byte) Config {
	b := fuzzBytes(data)
	cfg := smallConfig(1, 20)
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
	flags := b.next()
	cfg.Fragmented = flags&1 != 0
	cfg.Coalescing = flags&2 != 0
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
	if flags&32 != 0 {
		cfg.PreloadObjects = []int{b.next() % (cfg.Objects + 1), b.next() % (cfg.Objects + 1)}
	}
	cfg.MaxStartup = b.next() % 16
	cfg.PlaceRetryLimit = b.next()%8 - 1
	// The arrival modes are mutually exclusive; pick one.
	switch mode, v := b.next()%4, b.next(); mode {
	case 1:
		cfg.ThinkMeanSeconds = float64(v % 64)
	case 2:
		cfg.ArrivalsPerHour = float64(v%32) * 500
	case 3:
		cfg.ExternalArrivals = true
	}
	cfg.ZipfSkew = float64(b.next()%16) / 8
	cfg.ZipfFlipInterval = b.next() % 200
	if c := b.next(); c != 0 {
		cfg.Cache = &cache.Spec{
			BudgetBytes: int64(c%16) << 22,
			BatchWindow: b.next() % 8,
		}
		if c&16 != 0 {
			cfg.Cache.Policy = cache.PolicyLRU
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
	return cfg
}

// FuzzEngineConfig: every configuration either fails Validate, fails
// to build or run with an error, or runs to a Result with zero
// hiccups under every registered technique — never a panic or a hang.
func FuzzEngineConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{49, 5, 5, 60, 40, 30, 16, 40, 1, 100, 200, 1, 0})
	f.Add([]byte{49, 1, 5, 60, 40, 30, 8, 40, 1, 0, 200, 1, 0, 3, 0, 4})
	f.Add([]byte{47, 1, 4, 80, 20, 10, 24, 10, 7, 20, 120, 0, 0, 35, 1, 2, 3, 4})
	f.Add([]byte{39, 5, 5, 60, 40, 30, 32, 20, 3, 50, 180, 0, 0, 4, 0, 1, 0, 8, 2, 0, 3, 10, 4, 50, 120, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		if cfg.Validate() != nil {
			return
		}
		for _, ti := range Techniques() {
			stride := 0
			if ti.Key == "staggered" {
				stride = cfg.K
			}
			e, _, err := NewEngineFor(ti.Key, cfg, stride)
			if err != nil {
				continue
			}
			res, err := e.RunChecked()
			if err == nil && res.Hiccups != 0 {
				t.Fatalf("%s: %d hiccups on %+v", ti.Key, res.Hiccups, cfg)
			}
		}
	})
}
