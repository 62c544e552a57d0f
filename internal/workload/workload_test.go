package workload

import (
	"testing"

	"github.com/mmsim/staggered/internal/rng"
)

func TestGeneratorValidation(t *testing.T) {
	src := rng.NewSource(1)
	if _, err := NewGenerator(src, 2000, 20, 0); err == nil {
		t.Error("zero stations accepted")
	}
	if _, err := NewGenerator(src, 0, 20, 1); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := NewGenerator(src, 2000, 1, 1); err == nil {
		t.Error("mean 1 accepted")
	}
}

// Per-station streams are stored in place, so building a generator
// costs the same number of allocations for 10 stations as for 1000.
func TestGeneratorDistAllocsFlat(t *testing.T) {
	dist, err := rng.Zipf(40, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(1)
	allocs := func(stations int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := NewGeneratorDist(src, dist, stations); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many != few {
		t.Errorf("NewGeneratorDist allocations: %v for 10 stations, %v for 1000", few, many)
	}
}

func TestGeneratorDist(t *testing.T) {
	dist, err := rng.Zipf(40, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGeneratorDist(rng.NewSource(1), dist, 0); err == nil {
		t.Error("zero stations accepted")
	}
	g, err := NewGeneratorDist(rng.NewSource(1), dist, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Same streams as NewGenerator: only the distribution differs, so
	// draws are deterministic and skewed toward the head.
	counts := make([]int, 40)
	for i := 0; i < 4000; i++ {
		counts[g.Draw(i%4)]++
	}
	if counts[0] <= counts[39] {
		t.Errorf("Zipf head not hot: counts[0]=%d counts[39]=%d", counts[0], counts[39])
	}
	if g.Popularity(0) <= g.Popularity(39) {
		t.Error("Popularity not monotone")
	}
	if top := g.TopObjects(3); len(top) != 3 || top[0] != 0 {
		t.Errorf("TopObjects = %v", top)
	}
}

func TestGeneratorDeterministicPerStation(t *testing.T) {
	mk := func() *Generator {
		g, err := NewGenerator(rng.NewSource(42), 2000, 20, 4)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		for st := 0; st < 4; st++ {
			if a.Draw(st) != b.Draw(st) {
				t.Fatal("same-seed generators diverged")
			}
		}
	}
}

func TestStationsIndependent(t *testing.T) {
	// Adding stations must not change existing stations' streams.
	g4, err := NewGenerator(rng.NewSource(7), 2000, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	g8, err := NewGenerator(rng.NewSource(7), 2000, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for st := 0; st < 4; st++ {
			if g4.Draw(st) != g8.Draw(st) {
				t.Fatal("station stream perturbed by fleet size")
			}
		}
	}
}

func TestDrawSkew(t *testing.T) {
	g, err := NewGenerator(rng.NewSource(3), 2000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for i := 0; i < 50000; i++ {
		counts[g.Draw(0)]++
	}
	// With mean 10 the most popular object draws ~10% of references.
	if f := float64(counts[0]) / 50000; f < 0.08 || f > 0.12 {
		t.Errorf("object 0 frequency = %v, want ~0.10", f)
	}
	if counts[0] <= counts[50] {
		t.Error("popularity not monotone in rank")
	}
}

func TestTopObjects(t *testing.T) {
	g, err := NewGenerator(rng.NewSource(1), 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	top := g.TopObjects(5)
	for i, id := range top {
		if id != i {
			t.Fatalf("TopObjects = %v, want ranks in order", top)
		}
	}
	if got := len(g.TopObjects(500)); got != 100 {
		t.Fatalf("TopObjects clamped to %d, want 100", got)
	}
	if g.Popularity(0) <= g.Popularity(1) {
		t.Fatal("popularity not decreasing")
	}
}

func TestClosedLoopStations(t *testing.T) {
	g, err := NewGenerator(rng.NewSource(1), 100, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStations(g)
	if obj := st.Issue(0); obj < 0 || obj >= 100 {
		t.Fatalf("bad object %d", obj)
	}
	if st.Outstanding() != 1 || st.TotalIssued() != 1 {
		t.Fatal("outstanding tracking wrong")
	}
	st.Issue(1)
	st.Complete(0)
	if st.Outstanding() != 1 {
		t.Fatal("completion not tracked")
	}
	// Station 0 can issue again.
	st.Issue(0)
	if st.TotalIssued() != 3 {
		t.Fatal("issue count wrong")
	}
}

func TestDoubleIssuePanics(t *testing.T) {
	g, err := NewGenerator(rng.NewSource(1), 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStations(g)
	st.Issue(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double issue did not panic")
		}
	}()
	st.Issue(0)
}

func TestCompleteIdlePanics(t *testing.T) {
	g, err := NewGenerator(rng.NewSource(1), 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStations(g)
	defer func() {
		if recover() == nil {
			t.Fatal("completing idle station did not panic")
		}
	}()
	st.Complete(0)
}

func TestMeanLabel(t *testing.T) {
	if MeanLabel(10) != "highly skewed" || MeanLabel(20) != "skewed" || MeanLabel(43.5) != "uniform" {
		t.Fatal("paper labels drifted")
	}
	if MeanLabel(99) == "" {
		t.Fatal("fallback label empty")
	}
}

func TestPaperConstants(t *testing.T) {
	if len(PaperMeans) != 3 || PaperMeans[2] != 43.5 {
		t.Fatal("paper means drifted")
	}
	if PaperStations[len(PaperStations)-1] != 256 || PaperStations[0] != 1 {
		t.Fatal("paper station sweep drifted")
	}
}

func BenchmarkDraw(b *testing.B) {
	g, err := NewGenerator(rng.NewSource(1), 2000, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Draw(0)
	}
}
