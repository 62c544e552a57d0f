package analytic

import (
	"math"
	"testing"
)

func TestSurvivingBandwidthFraction(t *testing.T) {
	// No failures: everything survives.
	if got := SurvivingBandwidthFraction(1000, 5, 5, 3000, 0); got != 1 {
		t.Fatalf("zero failures survival = %v", got)
	}
	// Full-footprint objects (k=M, Table 3): any failure kills all.
	if got := SurvivingBandwidthFraction(1000, 5, 5, 3000, 1); got != 0 {
		t.Fatalf("k=M one-failure survival = %v, want 0", got)
	}
	// Pinned objects (k=D): one failure kills M/D of the database.
	got := SurvivingBandwidthFraction(1000, 1000, 5, 3000, 1)
	want := 1 - 5.0/1000
	if got < want-0.001 || got > want+0.001 {
		t.Fatalf("k=D one-failure survival = %v, want ~%v", got, want)
	}
}

func TestSurvivingBandwidthMonotone(t *testing.T) {
	prev := 1.1
	for f := 0; f <= 10; f++ {
		got := SurvivingBandwidthFraction(100, 100, 4, 500, f)
		if got > prev {
			t.Fatalf("survival not monotone at %d failures", f)
		}
		prev = got
	}
}

func TestAvailabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range failures did not panic")
		}
	}()
	SurvivingBandwidthFraction(10, 1, 1, 1, 11)
}

// bruteFootprint enumerates an object's stride orbit directly — the
// definition UniqueDisksUsed implements — so the exact-agreement
// properties below have an independent oracle.
func bruteFootprint(d, k, m, n int) int {
	used := map[int]bool{}
	for s := 0; s < n; s++ {
		for i := 0; i < m; i++ {
			used[(s*k+i)%d] = true
		}
	}
	return len(used)
}

// TestSurvivingBandwidthHypergeometric checks, for every small
// geometry, UniqueDisksUsed against the brute-force footprint and the
// surviving fraction against the exact probability that a
// footprint-sized draw avoids every failed disk, for every failure
// count.
func TestSurvivingBandwidthHypergeometric(t *testing.T) {
	for d := 2; d <= 12; d++ {
		for k := 1; k <= d; k++ {
			for m := 1; m <= d; m++ {
				for _, n := range []int{1, 2, 3, 5, 7, 9} {
					fp := bruteFootprint(d, k, m, n)
					if got := UniqueDisksUsed(d, k, m, n); got != fp {
						t.Fatalf("UniqueDisksUsed(%d,%d,%d,%d) = %d, brute force says %d", d, k, m, n, got, fp)
					}
					prev := 1.0
					for f := 0; f <= d; f++ {
						got := SurvivingBandwidthFraction(d, k, m, n, f)
						want := 1.0
						for i := 0; i < f; i++ {
							want *= math.Max(0, float64(d-fp-i)) / float64(d-i)
						}
						if math.Abs(got-want) > 1e-12 {
							t.Fatalf("SurvivingBandwidthFraction(%d,%d,%d,%d,%d) = %g, want %g",
								d, k, m, n, f, got, want)
						}
						if got < -1e-12 || got > 1+1e-12 {
							t.Fatalf("fraction %g out of [0,1]", got)
						}
						if got > prev+1e-12 {
							t.Fatalf("surviving fraction rose with failures: f=%d %g -> %g", f, prev, got)
						}
						prev = got
					}
				}
			}
		}
	}
}

// TestFootprintStrideOrdering pins the availability tradeoff E18
// measures.  The footprint is NOT monotone in the raw stride — gcd(k,
// D) folds some orbits onto themselves — but the three strides the
// system compares are ordered: footprint(k=D) = M ≤ footprint(k=1) ≤
// footprint(k=M).
func TestFootprintStrideOrdering(t *testing.T) {
	for d := 2; d <= 40; d++ {
		for m := 1; m <= d; m++ {
			for _, n := range []int{2, 5, 30} {
				fpD := UniqueDisksUsed(d, d, m, n)
				fp1 := UniqueDisksUsed(d, 1, m, n)
				fpM := UniqueDisksUsed(d, m, m, n)
				if fpD != m {
					t.Fatalf("d=%d m=%d n=%d: footprint(k=D) = %d, want exactly M=%d", d, m, n, fpD, m)
				}
				if fpD > fp1 || fp1 > fpM {
					t.Fatalf("d=%d m=%d n=%d: ordering broken: k=D %d, k=1 %d, k=M %d",
						d, m, n, fpD, fp1, fpM)
				}
			}
		}
	}
	// And the non-monotonicity is real, not a vacuous caveat: on the
	// quick geometry k=25 (gcd 25 with D=50, wider than M=5) folds the
	// orbit onto 10 disks while the smaller stride k=2 touches all 50.
	if a, b := UniqueDisksUsed(50, 25, 5, 30), UniqueDisksUsed(50, 2, 5, 30); !(a < b) {
		t.Fatalf("expected footprint(k=25)=%d < footprint(k=2)=%d on D=50", a, b)
	}
}
