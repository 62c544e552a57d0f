package sched

import (
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/rng"
)

// nonWindowFields are the Result fields Snapshot derives rather than
// counts in the measurement window: the run's identity and window
// lengths, the busy ratios, the residents at the snapshot, and the
// lifetime hiccup count.
var nonWindowFields = map[string]bool{
	"Technique": true, "Stations": true, "DistMean": true,
	"WarmupSeconds": true, "MeasureSeconds": true,
	"TertiaryBusy": true, "DiskBusy": true,
	"UniqueResidents": true, "Hiccups": true,
}

// TestResetWindowZeroesEveryCounter pins that no window counter
// survives ResetWindow: a Snapshot taken right after it reads zero in
// every Result field but the derived ones, and the busy ratios read
// zero too, their integrals reset with the window.  The engines run
// every path that counts: a starving staggered farm, VDR replication
// under a fault plan, and a member with the memory tier and batching
// fed more arrivals than it has stations, killed and revived.  Each
// window field must read nonzero on some engine before the reset, so
// none is left unchecked.
func TestResetWindowZeroesEveryCounter(t *testing.T) {
	faults := fault.NewPlan().FailDiskUntil(3, 100, 400).SlowDisk(7, 150, 450).TertiaryOutage(200, 260)
	engines := map[string]func(t *testing.T) *Engine{
		"staggered k=1 exact fit": func(t *testing.T) *Engine {
			cfg := smallConfig(8, 20)
			cfg.K = 1
			e, err := NewEngine(cfg, &stripedTech{staggered: true})
			if err != nil {
				t.Fatal(err)
			}
			stepN(e, 600)
			return e
		},
		"vdr under faults": func(t *testing.T) *Engine {
			cfg := smallConfig(32, 2.000001)
			cfg.Faults = faults
			e, _, err := NewEngineFor("vdr", cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			stepN(e, 600)
			return e
		},
		"cached member killed and revived": func(t *testing.T) *Engine {
			cfg := smallConfig(6, 10)
			cfg.ZipfSkew = 1.1
			cfg.Cache = cacheSpec()
			cfg.Faults = faults
			ti, _ := TechniqueByKey("staggered")
			cfg, err := ti.Configure(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			e, err := newMember(ti, cfg, []int{0, 1, 2, 3, 4, 5})
			if err != nil {
				t.Fatal(err)
			}
			objects := rng.NewStream(1, 7)
			step := func(n int) {
				for i := 0; i < n; i++ {
					if i%3 == 0 {
						if _, err := e.InjectArrival(e.dist.Sample(objects)); err != nil {
							t.Fatal(err)
						}
					}
					e.StepOne()
				}
			}
			step(500)
			if _, err := e.Kill(); err != nil {
				t.Fatal(err)
			}
			e.StepOne()
			if err := e.Revive(); err != nil {
				t.Fatal(err)
			}
			step(100)
			return e
		},
	}
	typ := reflect.TypeOf(Result{})
	counted := make([]bool, typ.NumField())
	for name, build := range engines {
		e := build(t)
		before := reflect.ValueOf(e.Snapshot())
		e.ResetWindow()
		r := e.Snapshot()
		after := reflect.ValueOf(r)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i).Name
			if nonWindowFields[f] {
				continue
			}
			if !after.Field(i).IsZero() {
				t.Errorf("%s: %s survives ResetWindow: %v", name, f, after.Field(i))
			}
			counted[i] = counted[i] || !before.Field(i).IsZero()
		}
		if r.TertiaryBusy != 0 || r.DiskBusy != 0 {
			t.Errorf("%s: busy ratios survive ResetWindow: tertiary %v, disk %v", name, r.TertiaryBusy, r.DiskBusy)
		}
	}
	for i, ok := range counted {
		if f := typ.Field(i).Name; !ok && !nonWindowFields[f] {
			t.Errorf("no engine counted %s before the reset, so its reset goes unchecked", f)
		}
	}
}

// stepN advances e by n intervals.
func stepN(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.StepOne()
	}
}
