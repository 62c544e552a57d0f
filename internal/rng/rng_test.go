package rng

import (
	"fmt"
	"hash/fnv"
	"math"
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

func BenchmarkDiscreteSample(b *testing.B) {
	d, err := TruncatedGeometric(2000, 20)
	if err != nil {
		b.Fatal(err)
	}
	s := NewStream(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(s)
	}
}
