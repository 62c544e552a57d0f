package diskmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol
}

func TestSabreValidates(t *testing.T) {
	if err := Sabre.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Simulation45GB.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "no-cyl", CylinderBytes: 1, TransferRate: 1},
		{Name: "no-cap", Cylinders: 1, TransferRate: 1},
		{Name: "no-rate", Cylinders: 1, CylinderBytes: 1},
		{Name: "seek-order", Cylinders: 1, CylinderBytes: 1, TransferRate: 1,
			SeekMin: 2, SeekAvg: 1, SeekMax: 3},
		{Name: "lat-order", Cylinders: 1, CylinderBytes: 1, TransferRate: 1,
			LatencyAvg: 2, LatencyMax: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q accepted", s.Name)
		}
	}
}

// TestSabreSection31Numbers reproduces every worked number in §3.1 of
// the paper for the Sabre drive.
func TestSabreSection31Numbers(t *testing.T) {
	cyl := Sabre.CylinderBytes

	// "the time to read one cylinder is 250 milliseconds"
	if got := Sabre.TransferTime(cyl); !approx(got, 0.250, 0.001) {
		t.Errorf("one-cylinder transfer = %v s, want 0.250", got)
	}
	// "the highest overhead due to seeks and latency is 16.83 + 35 = 51.83 ms"
	if got := Sabre.TSwitch(); !approx(got, 0.05183, 1e-9) {
		t.Errorf("T_switch = %v s, want 0.05183", got)
	}
	// "S(C_i) = 301.83 msec" for one-cylinder fragments
	if got := Sabre.ServiceTime(cyl); !approx(got, 0.30183, 1e-4) {
		t.Errorf("S(C_i) one cylinder = %v s, want 0.30183", got)
	}
	// "on the average, 17.2 percentage of disk bandwidth is wasted"
	if got := Sabre.WastedFraction(cyl); !approx(got, 0.172, 0.001) {
		t.Errorf("wasted fraction one cylinder = %v, want ~0.172", got)
	}
	// "If two consecutive cylinders are transfered, S(C_i) = 555.83"
	if got := Sabre.ServiceTime(2 * cyl); !approx(got, 0.55583, 1e-4) {
		t.Errorf("S(C_i) two cylinders = %v s, want 0.55583", got)
	}
	// "the wasted bandwidth will be only about 10 percent"
	if got := Sabre.WastedFraction(2 * cyl); !approx(got, 0.10, 0.005) {
		t.Errorf("wasted fraction two cylinders = %v, want ~0.10", got)
	}
	// "Its peak transfer rate is 24.19 mbps" and 1.2 GB capacity.
	if got := float64(Sabre.Cylinders) * Sabre.CylinderBytes; !approx(got, 1.236e9, 1e7) {
		t.Errorf("Sabre capacity = %v bytes, want ~1.236 GB", got)
	}
}

// TestSection31WorstCaseLatency reproduces: "In a typical system of 90
// disks divided into 30 clusters of 3 disks, the worst case transfer
// initiation delay would be about 9 seconds in the case of 1 cylinder
// transfers and 16 seconds in the case of 2 cylinder transfers"
// (worst case latency = (R-1)·S(C_i), §3.1).
func TestSection31WorstCaseLatency(t *testing.T) {
	const clusters = 30
	cyl := Sabre.CylinderBytes
	one := float64(clusters-1) * Sabre.ServiceTime(cyl)
	two := float64(clusters-1) * Sabre.ServiceTime(2*cyl)
	if !approx(one, 9.0, 0.3) {
		t.Errorf("worst-case latency 1-cyl = %v s, want ~9", one)
	}
	if !approx(two, 16.0, 0.2) {
		t.Errorf("worst-case latency 2-cyl = %v s, want ~16", two)
	}
}

// TestSimulationDriveTable3 checks the Table 3 drive: 3000 cylinders
// of 1.512 MB (~4.54 GB) with a 20 mbps effective bandwidth at the
// one-cylinder fragments used in §4.
func TestSimulationDriveTable3(t *testing.T) {
	s := Simulation45GB
	if got := float64(s.Cylinders) * s.CylinderBytes; !approx(got, 4.536e9, 1e6) {
		t.Errorf("capacity = %v, want 4.536 GB", got)
	}
	eff := s.EffectiveBandwidth(s.CylinderBytes)
	if !approx(eff, 20e6, 0.05e6) {
		t.Errorf("effective bandwidth = %v bps, want ~20 mbps", eff)
	}
	// The display time of a 3000-subobject object at M=5 follows:
	// 3000 intervals of fragment_bits / 20 mbps = 1814 s (§4.1).
	interval := s.CylinderBytes * 8 / 20e6
	display := 3000 * interval
	if !approx(display, 1814.4, 1.0) {
		t.Errorf("object display time = %v s, want ~1814", display)
	}
}

func TestEffectiveBandwidthMonotone(t *testing.T) {
	prev := 0.0
	for c := 1; c <= 10; c++ {
		eff := Sabre.EffectiveBandwidth(float64(c) * Sabre.CylinderBytes)
		if eff <= prev {
			t.Fatalf("effective bandwidth not increasing at %d cylinders", c)
		}
		prev = eff
	}
	if prev >= Sabre.TransferRate {
		t.Fatal("effective bandwidth exceeded peak rate")
	}
}

func TestEffectiveBandwidthDiminishingGains(t *testing.T) {
	// §3.1: "the advantages of transfering more than 2 cylinder from
	// each disk drive is marginal because of diminishing gains".
	cyl := Sabre.CylinderBytes
	g12 := Sabre.EffectiveBandwidthExact(2*cyl) - Sabre.EffectiveBandwidthExact(cyl)
	g23 := Sabre.EffectiveBandwidthExact(3*cyl) - Sabre.EffectiveBandwidthExact(2*cyl)
	if g23 >= g12 {
		t.Fatalf("gain 2→3 cylinders (%v) not smaller than 1→2 (%v)", g23, g12)
	}
}

// meanSeekTime returns the expected seek time over a uniformly random
// pair of start/target cylinders, by exact enumeration of the distance
// distribution: P(d) = 2(C-d)/C² for d ≥ 1.
func meanSeekTime(s Spec) float64 {
	cyl := float64(s.Cylinders)
	sum := 0.0
	for d := 1; d < s.Cylinders; d++ {
		p := 2 * (cyl - float64(d)) / (cyl * cyl)
		sum += p * s.SeekTime(d)
	}
	return sum
}

func TestSeekTimeCalibration(t *testing.T) {
	for _, s := range []Spec{Sabre, Simulation45GB} {
		if got := s.SeekTime(0); got != 0 {
			t.Errorf("%s: seek(0) = %v, want 0", s.Name, got)
		}
		if got := s.SeekTime(1); !approx(got, s.SeekMin, 1e-9) {
			t.Errorf("%s: seek(1) = %v, want %v", s.Name, got, s.SeekMin)
		}
		if got := s.SeekTime(s.Cylinders - 1); !approx(got, s.SeekMax, 1e-9) {
			t.Errorf("%s: full-stroke seek = %v, want %v", s.Name, got, s.SeekMax)
		}
		if got := meanSeekTime(s); !approx(got, s.SeekAvg, 0.15*s.SeekAvg) {
			t.Errorf("%s: mean seek = %v, want ~%v", s.Name, got, s.SeekAvg)
		}
	}
}

func TestSeekTimeMonotone(t *testing.T) {
	err := quick.Check(func(a, b uint16) bool {
		d1, d2 := int(a)%Sabre.Cylinders, int(b)%Sabre.Cylinders
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return Sabre.SeekTime(d1) <= Sabre.SeekTime(d2)+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSeekTimeBounded(t *testing.T) {
	err := quick.Check(func(a uint16) bool {
		d := int(a) % Sabre.Cylinders
		s := Sabre.SeekTime(d)
		return s >= 0 && s <= Sabre.SeekMax+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCylinderCrossings(t *testing.T) {
	cyl := Sabre.CylinderBytes
	cases := []struct {
		bytes float64
		want  int
	}{
		{cyl / 2, 0}, {cyl, 0}, {cyl + 1, 1}, {2 * cyl, 1}, {3.5 * cyl, 3},
	}
	for _, c := range cases {
		if got := Sabre.CylinderCrossings(c.bytes); got != c.want {
			t.Errorf("crossings(%v bytes) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestServiceTimeComposition(t *testing.T) {
	// Service time should always be at least the pure transfer time
	// plus the worst-case reposition.
	err := quick.Check(func(raw uint32) bool {
		bytes := float64(raw%10000000 + 1)
		st := Sabre.ServiceTime(bytes)
		return st >= Sabre.TransferTime(bytes)+Sabre.TSwitch()-1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeekTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Sabre.SeekTime(i % Sabre.Cylinders)
	}
}

func BenchmarkEffectiveBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Sabre.EffectiveBandwidth(Sabre.CylinderBytes)
	}
}

// sequentialServiceTime returns the per-fragment service time when an
// object's subobjects are clustered on adjacent cylinders and read in
// display order — the k = D optimization of §3.2.2: after the initial
// positioning, each fragment costs only its track-to-track crossings
// and transfer, not a full T_switch.
func sequentialServiceTime(s Spec, fragmentBytes float64) float64 {
	crossings := float64(s.CylinderCrossings(fragmentBytes)) + 1 // move onto the next fragment's cylinder
	return crossings*s.SeekMin + s.TransferTime(fragmentBytes)
}

// pinnedLayoutSavings returns how much disk bandwidth the k = D layout
// saves over the staggered layout for the given fragment size: the
// scattered-fragment waste (a full T_switch per fragment) less the
// clustered waste, the positioning share of sequentialServiceTime.
func pinnedLayoutSavings(s Spec, fragmentBytes float64) float64 {
	crossings := float64(s.CylinderCrossings(fragmentBytes)) + 1
	return s.WastedFraction(fragmentBytes) - crossings*s.SeekMin/sequentialServiceTime(s, fragmentBytes)
}

// TestPinnedLayoutSavings reproduces §3.2.2: clustering subobjects on
// adjacent cylinders (possible only with k = D) saves less than 10%
// of the disk bandwidth at the paper's two-cylinder fragments — and §4
// shows the saving is not worth the collision delays.
func TestPinnedLayoutSavings(t *testing.T) {
	cyl := Sabre.CylinderBytes
	savings := pinnedLayoutSavings(Sabre, 2*cyl)
	if savings <= 0 {
		t.Fatalf("clustering saves nothing: %v", savings)
	}
	if savings >= 0.10 {
		t.Fatalf("savings = %v, paper says less than 10%%", savings)
	}
	// One-cylinder fragments save more (bigger per-fragment T_switch
	// share) but still a bounded amount.
	s1 := pinnedLayoutSavings(Sabre, cyl)
	if s1 <= savings {
		t.Fatalf("1-cyl savings %v not above 2-cyl %v", s1, savings)
	}
	if s1 >= 0.20 {
		t.Fatalf("1-cyl savings = %v, implausibly large", s1)
	}
}

func TestSequentialServiceTimeBelowRandom(t *testing.T) {
	err := quick.Check(func(raw uint32) bool {
		bytes := float64(raw%5000000 + 1)
		return sequentialServiceTime(Sabre, bytes) < Sabre.ServiceTime(bytes)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
