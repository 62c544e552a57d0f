// Package analytic provides the closed-form models of the paper:
// §3.1's fragment-size/latency/bandwidth tradeoffs, Equation (1)'s
// memory requirement and §3.2.2's stride analysis.
// These are the formulas the simulator is calibrated against, exposed
// for capacity planning without running a simulation.
package analytic

import (
	"fmt"
	"math"

	"github.com/mmsim/staggered/internal/diskmodel"
)

// FragmentTradeoff is one row of the §3.1 tradeoff: as fragments grow,
// effective bandwidth improves (good) but the worst-case display
// startup latency grows (bad).
type FragmentTradeoff struct {
	Cylinders          int
	FragmentBytes      float64
	ServiceTimeSeconds float64 // S(C_i)
	EffectiveBandwidth float64 // bits/second
	WastedFraction     float64
	WorstLatencySecs   float64 // (R-1)·S(C_i)
}

// FragmentSweep evaluates the tradeoff for fragment sizes of 1..max
// cylinders on a farm with the given number of clusters R.
func FragmentSweep(spec diskmodel.Spec, clusters, maxCylinders int) ([]FragmentTradeoff, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if clusters < 1 || maxCylinders < 1 {
		return nil, fmt.Errorf("analytic: need at least one cluster and one cylinder")
	}
	rows := make([]FragmentTradeoff, 0, maxCylinders)
	for c := 1; c <= maxCylinders; c++ {
		bytes := float64(c) * spec.CylinderBytes
		st := spec.ServiceTime(bytes)
		rows = append(rows, FragmentTradeoff{
			Cylinders:          c,
			FragmentBytes:      bytes,
			ServiceTimeSeconds: st,
			EffectiveBandwidth: spec.EffectiveBandwidthExact(bytes),
			WastedFraction:     spec.WastedFraction(bytes),
			WorstLatencySecs:   WorstCaseStartupLatency(st, clusters),
		})
	}
	return rows, nil
}

// WorstCaseStartupLatency returns the §3.1 bound: with R clusters and
// R−1 active requests, a new request waits at most (R−1)·S(C_i).
func WorstCaseStartupLatency(serviceTime float64, clusters int) float64 {
	if clusters < 1 {
		panic("analytic: need at least one cluster")
	}
	return float64(clusters-1) * serviceTime
}

// MinimumBufferBytes returns Equation (1) of the paper: the minimum
// memory per disk drive needed to mask the head-repositioning delay,
//
//	B_disk × (T_switch + T_sector)
//
// with B_disk in bits/second and times in seconds.  The result is in
// bytes.
func MinimumBufferBytes(bDisk, tSwitch, tSector float64) float64 {
	if bDisk < 0 || tSwitch < 0 || tSector < 0 {
		panic("analytic: negative argument to MinimumBufferBytes")
	}
	return bDisk * (tSwitch + tSector) / 8
}

// UniqueDisksUsed returns how many distinct disks a staggered-striped
// object touches: the §3.2.2 size/stride analysis.  n is the number
// of subobjects, m the degree of declustering, k the stride, d the
// farm size.  For an object long enough to wrap (n·k ≥ d, with
// gcd(d,k) | span) every disk is used.
func UniqueDisksUsed(d, k, m, n int) int {
	if d <= 0 || k <= 0 || m <= 0 || n <= 0 {
		panic("analytic: non-positive argument")
	}
	used := make([]bool, d)
	count := 0
	for s := 0; s < n; s++ {
		for i := 0; i < m; i++ {
			disk := (s*k + i) % d
			if !used[disk] {
				used[disk] = true
				count++
				if count == d {
					return d
				}
			}
		}
	}
	return count
}

// MaxCollisionDelay contrasts the two extreme strides of §3.2.2: the
// worst-case delay a second request suffers when its object's first
// fragments share disks with an in-progress display.
//
// With k < D the display moves off any given disk after one interval,
// so the wait is one service time; with k = D the display pins its
// M disks for the whole display, so the wait is the full display time.
func MaxCollisionDelay(k, d, n int, serviceTime float64) float64 {
	if k >= d {
		return float64(n) * serviceTime
	}
	return serviceTime
}

// DataSkewFree reports whether the (D, k) combination guarantees
// balanced storage for arbitrarily long objects (§3.2.2): gcd(D,k)=1.
func DataSkewFree(d, k int) bool {
	return gcd(d, k) == 1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// DisksForBandwidth returns M = ceil(bDisplay/bDisk) (§1) and the
// bandwidth wasted by integral allocation, plus the §3.2.3 logical
// (half-disk) allocation and its waste.
func DisksForBandwidth(bDisplay, bDisk float64) (whole int, wholeWaste float64, logical int, logicalWaste float64) {
	if bDisplay <= 0 || bDisk <= 0 {
		panic("analytic: non-positive bandwidth")
	}
	whole = int(math.Ceil(bDisplay/bDisk - 1e-12))
	wholeWaste = (float64(whole)*bDisk - bDisplay) / (float64(whole) * bDisk)
	logical = int(math.Ceil(bDisplay/(bDisk/2) - 1e-12))
	logicalWaste = (float64(logical)*bDisk/2 - bDisplay) / (float64(logical) * bDisk / 2)
	return whole, wholeWaste, logical, logicalWaste
}

// FarmObjectCapacity returns how many equal objects of n subobjects
// with degree m fit on d disks of capacityFragments cylinders each.
func FarmObjectCapacity(d, capacityFragments, m, n int) int {
	if d <= 0 || capacityFragments <= 0 || m <= 0 || n <= 0 {
		panic("analytic: non-positive argument")
	}
	return d * capacityFragments / (m * n)
}

// AggregateBandwidth returns the §5 observation: a farm of d disks
// delivers about d×B_disk bits per second ("In a system of 100 disks,
// aggregate bandwidth is approximately 1 gigabit per second").
func AggregateBandwidth(d int, bDisk float64) float64 {
	return float64(d) * bDisk
}
