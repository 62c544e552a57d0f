// Package diskmodel models a magnetic disk drive at the level of
// detail the paper uses: cylinder geometry, a distance-based seek
// curve calibrated to published minimum/average/maximum seek times,
// rotational latency, and the effective-bandwidth formula of §3.1:
//
//	B_disk = tfr × size(fragment) / (size(fragment) + T_switch·tfr)
//
// Two concrete drives from the paper are provided: the IMPRIMIS Sabre
// 1.2 GB drive of §3.1 [Sab90] and the 4.5 GB drive of the §4
// simulation (Table 3).
package diskmodel

import (
	"fmt"
	"math"
)

// Mbit is one megabit (10^6 bits), the paper's bandwidth unit.
const Mbit = 1e6

// Spec describes a disk drive.  Times are in seconds, sizes in bytes,
// and rates in bits per second.
type Spec struct {
	Name          string
	Cylinders     int     // number of cylinders
	CylinderBytes float64 // capacity of one cylinder in bytes
	TransferRate  float64 // peak media transfer rate tfr, bits/second

	SeekMin float64 // single-cylinder (minimum) seek time
	SeekAvg float64 // average seek time
	SeekMax float64 // full-stroke (maximum) seek time

	LatencyAvg float64 // average rotational latency
	LatencyMax float64 // maximum rotational latency (one revolution)
}

// Sabre is the IMPRIMIS Sabre 1.2 GB eight-inch drive used for the
// worked examples in §3.1 of the paper.
var Sabre = Spec{
	Name:          "IMPRIMIS Sabre 1.2GB",
	Cylinders:     1635,
	CylinderBytes: 756000,
	TransferRate:  24.19 * Mbit,
	SeekMin:       0.004,
	SeekAvg:       0.015,
	SeekMax:       0.035,
	LatencyAvg:    0.00833,
	LatencyMax:    0.01683,
}

// Simulation45GB is the drive of Table 3: 3000 cylinders of 1.512 MB
// (4.54 GB total) with a 20 mbps effective bandwidth.  Seek and
// latency characteristics match the Sabre figures, which Table 3
// repeats verbatim.  The peak transfer rate is chosen so that the
// effective bandwidth at a one-cylinder fragment equals 20 mbps
// (see EffectiveBandwidth).
var Simulation45GB = Spec{
	Name:          "Simulation 4.5GB",
	Cylinders:     3000,
	CylinderBytes: 1512000,
	TransferRate:  21.875 * Mbit, // yields B_disk = 20 mbps at 1-cylinder fragments
	SeekMin:       0.004,
	SeekAvg:       0.015,
	SeekMax:       0.035,
	LatencyAvg:    0.00833,
	LatencyMax:    0.01683,
}

// Validate reports whether the spec is physically sensible.
func (s Spec) Validate() error {
	switch {
	case s.Cylinders <= 0:
		return fmt.Errorf("diskmodel: %s: cylinders %d must be positive", s.Name, s.Cylinders)
	case s.CylinderBytes <= 0:
		return fmt.Errorf("diskmodel: %s: cylinder capacity must be positive", s.Name)
	case s.TransferRate <= 0:
		return fmt.Errorf("diskmodel: %s: transfer rate must be positive", s.Name)
	case s.SeekMin < 0 || s.SeekAvg < s.SeekMin || s.SeekMax < s.SeekAvg:
		return fmt.Errorf("diskmodel: %s: seek times must satisfy 0 <= min <= avg <= max", s.Name)
	case s.LatencyAvg < 0 || s.LatencyMax < s.LatencyAvg:
		return fmt.Errorf("diskmodel: %s: latency times must satisfy 0 <= avg <= max", s.Name)
	}
	return nil
}

// TSwitch returns the worst-case head repositioning delay of §3.1:
// a maximum seek plus a maximum rotational latency.  The paper's
// Sabre example: 35 + 16.83 = 51.83 ms.
func (s Spec) TSwitch() float64 {
	return s.SeekMax + s.LatencyMax
}

// TransferTime returns the time to transfer the given number of bytes
// at the peak media rate.
func (s Spec) TransferTime(bytes float64) float64 {
	return bytes * 8 / s.TransferRate
}

// CylinderCrossings returns the number of cylinder boundaries a
// contiguous fragment of the given size crosses: each crossing costs a
// minimum (track-to-track) seek.
func (s Spec) CylinderCrossings(fragmentBytes float64) int {
	n := int(math.Ceil(fragmentBytes / s.CylinderBytes))
	if n < 1 {
		n = 1
	}
	return n - 1
}

// ServiceTime returns S(C_i), the service time of a disk (and hence
// of a cluster, since all disks in a cluster work in parallel) per
// activation when reading a fragment of the given size: worst-case
// reposition, transfer, and one track-to-track seek per cylinder
// boundary crossed.  The paper's Sabre examples (§3.1): one cylinder
// gives 51.83 + 250 = 301.83 ms; two cylinders give
// 51.83 + 4 + 500 = 555.83 ms.
func (s Spec) ServiceTime(fragmentBytes float64) float64 {
	crossings := float64(s.CylinderCrossings(fragmentBytes))
	return s.TSwitch() + crossings*s.SeekMin + s.TransferTime(fragmentBytes)
}

// EffectiveBandwidth returns B_disk for the given fragment size, per
// the formula of §3.1:
//
//	B_disk = tfr × size(fragment) / (size(fragment) + T_switch·tfr)
//
// where sizes are measured in bits and tfr in bits/second.
func (s Spec) EffectiveBandwidth(fragmentBytes float64) float64 {
	bits := fragmentBytes * 8
	return s.TransferRate * bits / (bits + s.TSwitch()*s.TransferRate)
}

// EffectiveBandwidthExact returns fragment bits divided by the full
// service time, accounting for cylinder crossings (unlike the paper's
// simplified formula, which ignores them).
func (s Spec) EffectiveBandwidthExact(fragmentBytes float64) float64 {
	return fragmentBytes * 8 / s.ServiceTime(fragmentBytes)
}

// WastedFraction returns the fraction of disk time lost to
// repositioning (initial T_switch plus cylinder crossings) for the
// given fragment size.  The paper's §3.1 example: 17.2% at one
// cylinder, about 10% at two cylinders.
func (s Spec) WastedFraction(fragmentBytes float64) float64 {
	overhead := s.TSwitch() + float64(s.CylinderCrossings(fragmentBytes))*s.SeekMin
	return overhead / s.ServiceTime(fragmentBytes)
}

// SeekTime returns the time to move the head across dist cylinders.
// The model is the standard affine-sqrt curve
//
//	seek(d) = a + b·sqrt(d) + c·d,  d ≥ 1;  seek(0) = 0,
//
// with coefficients calibrated so that seek(1) = SeekMin,
// seek(Cylinders-1) = SeekMax, and the mean over a uniformly random
// pair of cylinders ≈ SeekAvg (the classic d̄ ≈ C/3 approximation).
func (s Spec) SeekTime(dist int) float64 {
	if dist <= 0 {
		return 0
	}
	a, b, c := s.seekCoeffs()
	d := float64(dist)
	return a + b*math.Sqrt(d) + c*d
}

// seekCoeffs solves the three calibration constraints.
func (s Spec) seekCoeffs() (a, b, c float64) {
	n := float64(s.Cylinders - 1)
	if n < 2 {
		return s.SeekMin, 0, 0
	}
	davg := n / 3
	// Solve:
	//   a + b·1        + c·1    = SeekMin
	//   a + b·√davg    + c·davg = SeekAvg
	//   a + b·√n       + c·n    = SeekMax
	x1, x2, x3 := 1.0, math.Sqrt(davg), math.Sqrt(n)
	y1, y2, y3 := 1.0, davg, n
	r1, r2, r3 := s.SeekMin, s.SeekAvg, s.SeekMax
	// Gaussian elimination on the 3x3 system [1 xi yi | ri].
	// Subtract row 1 from rows 2 and 3 to eliminate a.
	u2, v2, w2 := x2-x1, y2-y1, r2-r1
	u3, v3, w3 := x3-x1, y3-y1, r3-r1
	det := u2*v3 - u3*v2
	if math.Abs(det) < 1e-12 {
		// Degenerate geometry; fall back to linear interpolation.
		return s.SeekMin, 0, (s.SeekMax - s.SeekMin) / n
	}
	b = (w2*v3 - w3*v2) / det
	c = (u2*w3 - u3*w2) / det
	a = r1 - b*x1 - c*y1
	return a, b, c
}
