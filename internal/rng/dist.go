package rng

import (
	"fmt"
	"math"
	"sort"
)

// Discrete draws from an arbitrary finite distribution over 0..n-1 by
// inverse-transform sampling on the cumulative mass function.  A guide
// table (Chen and Asau 1974) narrows each draw's search to one of g
// equal buckets of the unit interval: O(1) expected, O(log n) at worst,
// and always the index a search of the whole table would return.
// Construction is O(n).
type Discrete struct {
	cum   []float64 // cum[i] = P(X <= i)
	pmf   []float64
	guide []int32 // guide[j] = first i with cum[i] >= j/g, j in [0, g]
	g     float64 // bucket count, a power of two
}

// NewDiscrete builds a Discrete from non-negative weights, which need
// not sum to one (they are normalized).  It returns an error if the
// weights are empty, contain a negative or non-finite entry, or sum to
// zero or to more than the largest float64.
func NewDiscrete(weights []float64) (*Discrete, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("rng: empty weight vector")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("rng: weights sum to zero")
	}
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("rng: weights sum past the float64 range")
	}
	d := &Discrete{
		cum: make([]float64, len(weights)),
		pmf: make([]float64, len(weights)),
	}
	run := 0.0
	for i, w := range weights {
		run += w / total
		d.cum[i] = run
		d.pmf[i] = w / total
	}
	d.cum[len(d.cum)-1] = 1 // guard against rounding
	d.buildGuide()
	return d, nil
}

// buildGuide sizes the guide at the largest power of two g <= n, which
// keeps it at most 4n bytes beside the 16n of cum and pmf, and fills it
// in one merge of the bucket edges j/g with cum.  Every edge is exact
// in float64, and cum[i] >= j/g holds from guide[j] on: the running sum
// never falls, and the forced cum[n-1] = 1 reaches every edge.
func (d *Discrete) buildGuide() {
	n := len(d.cum)
	g := 1
	for g <= n/2 {
		g *= 2
	}
	d.g = float64(g)
	d.guide = make([]int32, g+1)
	i := 0
	for j := range d.guide {
		edge := float64(j) / d.g
		for d.cum[i] < edge {
			i++
		}
		d.guide[j] = int32(i)
	}
}

// Sample draws one index according to the distribution.
func (d *Discrete) Sample(s *Stream) int { return d.index(s.Float64()) }

// index returns the first i with cum[i] >= u, for u in [0, 1), as
// sort.SearchFloat64s(cum, u) would find it.  Scaling by the power of
// two g is exact, so j = floor(u·g) satisfies j/g <= u < (j+1)/g and
// the answer lies between guide[j] and guide[j+1]; the binary search
// covers only them.  The predicate cum[i] >= u is monotone over the
// whole table, even where rounding lifts cum[n-2] above the forced
// cum[n-1] = 1, since u < 1.
func (d *Discrete) index(u float64) int {
	j := int(u * d.g)
	lo, hi := int(d.guide[j]), int(d.guide[j+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// P returns the probability mass at index i.
func (d *Discrete) P(i int) float64 { return d.pmf[i] }

// Len returns the size of the support.
func (d *Discrete) Len() int { return len(d.pmf) }

// Mean returns the expected index value.
func (d *Discrete) Mean() float64 {
	m := 0.0
	for i, p := range d.pmf {
		m += float64(i) * p
	}
	return m
}

// TruncatedGeometric builds the paper's object-popularity distribution:
// a geometric distribution with the given mean, truncated to n objects
// and renormalized.  Index 0 is the most popular object.  The paper
// (§4.1) uses means 10, 20, and 43.5 over 2000 objects, reporting that
// these result in approximately 100, 200, and 400 unique objects being
// referenced.
func TruncatedGeometric(n int, mean float64) (*Discrete, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rng: geometric support size %d must be positive", n)
	}
	if mean <= 1 {
		return nil, fmt.Errorf("rng: geometric mean %v must exceed 1", mean)
	}
	// For an (untruncated) geometric with support {1,2,...} and success
	// probability p, the mean is 1/p, so P(X=i) proportional to (1-p)^(i-1).
	p := 1 / mean
	w := make([]float64, n)
	q := 1 - p
	cur := 1.0
	for i := range w {
		w[i] = cur
		cur *= q
	}
	return NewDiscrete(w)
}

// Zipf builds a Zipf(theta) popularity distribution over n objects,
// offered as an extension beyond the paper's geometric workload.
func Zipf(n int, theta float64) (*Discrete, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rng: zipf support size %d must be positive", n)
	}
	if theta < 0 {
		return nil, fmt.Errorf("rng: zipf theta %v must be non-negative", theta)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), theta)
	}
	return NewDiscrete(w)
}

// SupportQuantile returns the smallest support size n such that the
// cumulative probability of the first n indices is at least q.
func (d *Discrete) SupportQuantile(q float64) int {
	return sort.SearchFloat64s(d.cum, q) + 1
}

// UniqueCoverage returns the expected number of distinct indices drawn
// in k independent samples: sum_i (1 - (1-p_i)^k).  The paper's
// statement "approximately 100, 200, and 400 unique objects referenced"
// is checked against this quantity in the tests.
func (d *Discrete) UniqueCoverage(k int) float64 {
	u := 0.0
	for _, p := range d.pmf {
		u += 1 - math.Pow(1-p, float64(k))
	}
	return u
}
