package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, 7)
	b := NewStream(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seed/seq diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := NewStream(42, 1)
	b := NewStream(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams on different sequences produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(1, 1)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewStream(3, 9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewStream(5, 5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(10) value %d drawn %d times out of 100000, badly skewed", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewStream(1, 1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := NewStream(11, 2)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~3.0", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewStream(seed, 1).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSourceNamedStreamsReproducible(t *testing.T) {
	src := NewSource(99)
	a := src.Stream("disk")
	b := src.Stream("disk")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same-named streams differ")
	}
	c := src.Stream("tertiary")
	d := src.Stream("disk")
	d.Uint64() // skip the draw already taken from a/b
	if c.Uint64() == d.Uint64() {
		t.Fatal("differently-named streams coincide")
	}
}

func TestSourceStreamN(t *testing.T) {
	src := NewSource(7)
	if src.StreamN("station", 1).Uint64() == src.StreamN("station", 2).Uint64() {
		t.Fatal("per-index streams coincide")
	}
}

// StreamN's inline hash of name + "/" + decimal n must select the same
// stream as naming it through Stream, for every sign and width of n,
// and both must keep hash/fnv's FNV-1a sequence selector.
func TestStreamNMatchesStream(t *testing.T) {
	const seed = 7
	src := NewSource(seed)
	names := []string{"", "station", "disk", strings.Repeat("0123456789", 4)}
	for _, name := range names {
		for _, n := range []int{0, 9, 10, -3, 12345, 1 << 40} {
			full := fmt.Sprintf("%s/%d", name, n)
			h := fnv.New64a()
			_, _ = h.Write([]byte(full))
			want := *NewStream(seed, h.Sum64())
			if got := *src.Stream(full); got != want {
				t.Errorf("Stream(%q) = %+v, want %+v", full, got, want)
			}
			if got := *src.StreamN(name, n); got != want {
				t.Errorf("StreamN(%q, %d) = %+v, want %+v", name, n, got, want)
			}
		}
	}
}

func TestDiscreteValidation(t *testing.T) {
	if _, err := NewDiscrete(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewDiscrete([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewDiscrete([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
	if _, err := NewDiscrete([]float64{math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := NewDiscrete([]float64{math.Inf(1)}); err == nil {
		t.Error("Inf weight accepted")
	}
	if _, err := NewDiscrete([]float64{math.MaxFloat64, math.MaxFloat64}); err == nil {
		t.Error("weights summing past the float64 range accepted")
	}
}

func TestDiscreteSamplingMatchesPMF(t *testing.T) {
	d, err := NewDiscrete([]float64{5, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(13, 1)
	counts := make([]int, 3)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[d.Sample(s)]++
	}
	want := []float64{0.5, 0.3, 0.2}
	for i, c := range counts {
		got := float64(c) / n
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("index %d sampled with freq %v, want ~%v", i, got, want[i])
		}
	}
}

func TestDiscretePMFSumsToOne(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			w[i] = float64(r)
			total += w[i]
		}
		if total == 0 {
			return true
		}
		d, err := NewDiscrete(w)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := 0; i < d.Len(); i++ {
			sum += d.P(i)
		}
		return math.Abs(sum-1) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedGeometricValidation(t *testing.T) {
	if _, err := TruncatedGeometric(0, 10); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := TruncatedGeometric(10, 1); err == nil {
		t.Error("mean=1 accepted")
	}
}

func TestTruncatedGeometricMonotone(t *testing.T) {
	d, err := TruncatedGeometric(2000, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < d.Len(); i++ {
		if d.P(i) > d.P(i-1) {
			t.Fatalf("geometric pmf not monotone at %d", i)
		}
	}
}

// TestGeometricUniqueObjectCounts checks the paper's §4.1 statement
// that geometric means 10, 20, and 43.5 over 2000 objects reference
// approximately 100, 200, and 400 unique objects respectively.  The
// paper does not state the number of draws; a few thousand requests
// (a long simulation run) gives coverage in the claimed range.
func TestGeometricUniqueObjectCounts(t *testing.T) {
	cases := []struct {
		mean       float64
		wantLo     float64
		wantHi     float64
		paperCount float64
	}{
		{10, 75, 135, 100},
		{20, 150, 260, 200},
		{43.5, 320, 520, 400},
	}
	// A long simulation run issues on the order of half a million
	// requests; the expected unique coverage then matches the paper.
	const draws = 500000
	for _, c := range cases {
		d, err := TruncatedGeometric(2000, c.mean)
		if err != nil {
			t.Fatal(err)
		}
		u := d.UniqueCoverage(draws)
		if u < c.wantLo || u > c.wantHi {
			t.Errorf("mean %v: expected unique coverage ~%v (paper), got %v after %d draws",
				c.mean, c.paperCount, u, draws)
		}
		// The 99.99%-mass support should be in the same range.
		s := float64(d.SupportQuantile(0.9999))
		if s < c.wantLo || s > c.wantHi {
			t.Errorf("mean %v: 99.99%% support = %v, want ~%v", c.mean, s, c.paperCount)
		}
	}
}

func TestZipf(t *testing.T) {
	d, err := Zipf(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d.P(0) <= d.P(99) {
		t.Fatal("zipf head not heavier than tail")
	}
	if _, err := Zipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Zipf(10, -1); err == nil {
		t.Error("negative theta accepted")
	}
}

func TestDiscreteMean(t *testing.T) {
	d, err := NewDiscrete([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Mean(); math.Abs(m-0.5) > 1e-12 {
		t.Fatalf("mean of fair coin over {0,1} = %v, want 0.5", m)
	}
}

func BenchmarkStreamUint64(b *testing.B) {
	s := NewStream(1, 1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

// checkGuide fails unless d's guide table is what Sample relies on:
// g a power of two with g <= n < 2g, and guide[j] the first index
// whose cumulative mass reaches j/g; and unless index agrees with a
// search of the whole table at every bucket edge, just below it, and
// just below 1.
func checkGuide(t *testing.T, d *Discrete) {
	t.Helper()
	n, g := len(d.cum), int(d.g)
	if g < 1 || g&(g-1) != 0 || g > n || n >= 2*g || len(d.guide) != g+1 {
		t.Fatalf("n = %d: guide of %d entries over %d buckets", n, len(d.guide), g)
	}
	for j, at := range d.guide {
		edge := float64(j) / d.g
		if want := sort.SearchFloat64s(d.cum, edge); int(at) != want {
			t.Fatalf("n = %d: guide[%d] = %d, want %d", n, j, at, want)
		}
		if j < g {
			checkIndex(t, d, edge)
		}
		if j > 0 {
			checkIndex(t, d, math.Nextafter(edge, 0))
		}
	}
}

func checkIndex(t *testing.T, d *Discrete, u float64) {
	t.Helper()
	if got, want := d.index(u), sort.SearchFloat64s(d.cum, u); got != want {
		t.Fatalf("n = %d: index(%v) = %d, a search of the whole table gives %d", len(d.cum), u, got, want)
	}
}

// TestDiscreteRoundedTail covers the table where rounding lifts
// cum[n-2] above the cum[n-1] = 1 that NewDiscrete forces: nine unit
// weights and one of 1e-18.
func TestDiscreteRoundedTail(t *testing.T) {
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1e-18}
	d, err := NewDiscrete(w)
	if err != nil {
		t.Fatal(err)
	}
	if d.cum[8] <= 1 {
		t.Fatalf("cum[8] = %v: the case no longer rounds above 1", d.cum[8])
	}
	checkGuide(t, d)
	if got := d.index(math.Nextafter(1, 0)); got != 8 {
		t.Fatalf("the largest draw maps to %d, want 8", got)
	}
}

// fuzzWeights builds an n-entry weight vector of the given shape from
// s: scattered zeros and runs of zeros over magnitudes from 1e-300 to
// 1e300, geometric, Zipf, or all the mass at one end of a tail of
// near-zero weights (one bucket then spans nearly the whole table).
func fuzzWeights(shape uint8, n int, s *Stream) []float64 {
	w := make([]float64, n)
	switch shape % 5 {
	case 0:
		for i := 0; i < n; i++ {
			switch s.Intn(8) {
			case 0:
				w[i] = 0
			case 1:
				i += s.Intn(n/4 + 1) // a run of zeros
			default:
				w[i] = s.Float64() * math.Pow(10, s.Uniform(-300, 300))
			}
		}
		w[s.Intn(n)] = 1 // never all zero
	case 1:
		q := s.Float64()
		for i, cur := 0, 1.0; i < n; i++ {
			w[i], cur = cur, cur*q
		}
	case 2:
		theta := s.Uniform(0, 3)
		for i := range w {
			w[i] = 1 / math.Pow(float64(i+1), theta)
		}
	default:
		for i := range w {
			w[i] = math.Pow(10, s.Uniform(-300, -200))
		}
		if shape%5 == 3 {
			w[0] = 1
		} else {
			w[n-1] = 1
		}
	}
	return w
}

// FuzzDiscreteSample is the sampling oracle: on fuzzed weight vectors
// of 1 to 70,000 entries, Sample draws exactly the index a binary
// search of the whole cumulative table gives for the same uniform, and
// so does index at every bucket edge and just below it.
func FuzzDiscreteSample(f *testing.F) {
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(shape, uint32(1), uint64(shape))
		f.Add(shape, uint32(2000), uint64(7))
		f.Add(shape, uint32(69999), uint64(11))
	}
	f.Fuzz(func(t *testing.T, shape uint8, size uint32, seed uint64) {
		n := 1 + int(size%70000)
		s := NewStream(seed, 1)
		d, err := NewDiscrete(fuzzWeights(shape, n, s))
		if err != nil {
			t.Fatal(err)
		}
		checkGuide(t, d)
		for i := 0; i < 256; i++ {
			u := *s
			if got, want := d.Sample(s), sort.SearchFloat64s(d.cum, u.Float64()); got != want {
				t.Fatalf("n = %d: Sample drew %d, a search of the whole table gives %d", n, got, want)
			}
		}
	})
}

func BenchmarkDiscreteSample(b *testing.B) {
	for _, c := range []struct {
		name string
		dist func() (*Discrete, error)
	}{
		{"geometric-2000-20", func() (*Discrete, error) { return TruncatedGeometric(2000, 20) }},
		{"zipf-40000-0.4", func() (*Discrete, error) { return Zipf(40000, 0.4) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, err := c.dist()
			if err != nil {
				b.Fatal(err)
			}
			s := NewStream(1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = d.Sample(s)
			}
		})
	}
}
