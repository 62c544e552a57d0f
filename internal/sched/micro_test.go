package sched

import (
	"math"
	"testing"

	"github.com/mmsim/staggered/internal/diskmodel"
)

// TestMicroHiccupFreeAtWorstCaseInterval validates the quantization
// the macro engines rely on: with the interval set to the worst-case
// service time S(C_i), every simulated I/O — random seeks, rotational
// latency, transfer — finishes inside its interval.
func TestMicroHiccupFreeAtWorstCaseInterval(t *testing.T) {
	for _, spec := range []diskmodel.Spec{diskmodel.Sabre, diskmodel.Simulation45GB} {
		res, err := RunMicro(MicroConfig{
			Disk:          spec,
			FragmentBytes: spec.CylinderBytes,
			M:             5,
			N:             2000,
			Seed:          7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Hiccups != 0 {
			t.Errorf("%s: %d hiccups at worst-case interval", spec.Name, res.Hiccups)
		}
		if res.MaxReadSeconds > res.IntervalSeconds {
			t.Errorf("%s: max read %v exceeded interval %v", spec.Name, res.MaxReadSeconds, res.IntervalSeconds)
		}
		// Average I/O is strictly less than the worst case (the slack
		// the paper's future work wants to reclaim with buffering).
		if res.MeanReadSeconds >= res.IntervalSeconds {
			t.Errorf("%s: mean read %v not below interval %v", spec.Name, res.MeanReadSeconds, res.IntervalSeconds)
		}
		if res.DiskUtilization <= 0 || res.DiskUtilization > 1 {
			t.Errorf("%s: utilization %v out of range", spec.Name, res.DiskUtilization)
		}
	}
}

// TestMicroHiccupsWithShortInterval shows the inverse: an interval
// sized for the mean rather than the worst case misses deadlines.
func TestMicroHiccupsWithShortInterval(t *testing.T) {
	spec := diskmodel.Sabre
	res, err := RunMicro(MicroConfig{
		Disk:          spec,
		FragmentBytes: spec.CylinderBytes,
		M:             3,
		N:             2000,
		Seed:          7,
		// Mean-case interval: average seek + average latency + transfer.
		IntervalSeconds: spec.SeekAvg + spec.LatencyAvg + spec.TransferTime(spec.CylinderBytes),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hiccups == 0 {
		t.Fatal("mean-case interval produced no hiccups; the worst-case budget would be pointless")
	}
	// But most intervals still make it: the distribution is right-tailed.
	if res.Hiccups > 2000*3/2 {
		t.Fatalf("too many hiccups (%d) — seek model suspect", res.Hiccups)
	}
}

func TestMicroDeterminism(t *testing.T) {
	run := func() MicroResult {
		res, err := RunMicro(MicroConfig{
			Disk: diskmodel.Sabre, FragmentBytes: diskmodel.Sabre.CylinderBytes,
			M: 4, N: 500, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("micro model not deterministic: %+v vs %+v", a, b)
	}
}

func TestMicroValidation(t *testing.T) {
	if _, err := RunMicro(MicroConfig{Disk: diskmodel.Sabre, FragmentBytes: 0, M: 1, N: 1}); err == nil {
		t.Error("zero fragment accepted")
	}
	if _, err := RunMicro(MicroConfig{Disk: diskmodel.Sabre, FragmentBytes: 1, M: 0, N: 1}); err == nil {
		t.Error("zero disks accepted")
	}
	if _, err := RunMicro(MicroConfig{Disk: diskmodel.Spec{}, FragmentBytes: 1, M: 1, N: 1}); err == nil {
		t.Error("invalid disk spec accepted")
	}
	sabre := diskmodel.Sabre
	for _, tc := range []struct {
		name     string
		fragment float64
		interval float64
	}{
		{"fragment spanning the whole disk", float64(sabre.Cylinders+5) * sabre.CylinderBytes, 0},
		{"fragment of exactly the disk's cylinders", float64(sabre.Cylinders) * sabre.CylinderBytes, 0},
		{"fragment past int range", 1e300, 0},
		{"infinite fragment", math.Inf(1), 0},
		{"NaN fragment", math.NaN(), 0},
		{"NaN interval", sabre.CylinderBytes, math.NaN()},
		{"infinite interval", sabre.CylinderBytes, math.Inf(1)},
		{"negative interval", sabre.CylinderBytes, -1},
	} {
		_, err := RunMicro(MicroConfig{Disk: sabre, FragmentBytes: tc.fragment, IntervalSeconds: tc.interval, M: 2, N: 3})
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestMicroEffectiveBandwidth cross-checks the closed-form effective
// bandwidth of §3.1 against the event-level simulation: delivered
// bits over elapsed time must land between the worst-case formula and
// the peak rate.
func TestMicroEffectiveBandwidth(t *testing.T) {
	spec := diskmodel.Simulation45GB
	res, err := RunMicro(MicroConfig{
		Disk: spec, FragmentBytes: spec.CylinderBytes, M: 1, N: 5000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	measured := spec.CylinderBytes * 8 / res.IntervalSeconds
	worst := spec.EffectiveBandwidthExact(spec.CylinderBytes)
	if measured < worst*0.999 || measured > spec.TransferRate {
		t.Fatalf("per-interval bandwidth %v outside [%v, %v]", measured, worst, spec.TransferRate)
	}
}

func BenchmarkMicroInterval(b *testing.B) {
	spec := diskmodel.Sabre
	if _, err := RunMicro(MicroConfig{
		Disk: spec, FragmentBytes: spec.CylinderBytes, M: 5, N: b.N + 1, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
}
