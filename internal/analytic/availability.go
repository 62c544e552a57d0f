package analytic

import "fmt"

// Availability analysis — an extension beyond the paper.  Staggered
// striping trades failure isolation for load balance: with stride
// k = D an object lives on M disks, so one disk failure damages only
// the objects stored there; with small strides a long object touches
// every disk, so one failure damages every object.  This is the
// classic declustering availability tradeoff; the function below
// quantifies it for the paper's layouts so a deployment can weigh it
// against Table 4's throughput gains.

// SurvivingBandwidthFraction returns the fraction of displays that can
// still be admitted after f disk failures under stride k: a display
// needs all M disks of each subobject, so any object whose footprint
// includes a failed disk is unplayable without redundancy.
func SurvivingBandwidthFraction(d, k, m, n, failures int) float64 {
	if failures < 0 || failures > d {
		panic(fmt.Sprintf("analytic: failures %d out of [0, %d]", failures, d))
	}
	if failures == 0 {
		return 1
	}
	footprint := UniqueDisksUsed(d, k, m, n)
	// Probability a random object avoids all failed disks ≈
	// C(d-footprint, failures) / C(d, failures); compute iteratively.
	p := 1.0
	for i := 0; i < failures; i++ {
		num := float64(d - footprint - i)
		den := float64(d - i)
		if num <= 0 {
			return 0
		}
		p *= num / den
	}
	return p
}
