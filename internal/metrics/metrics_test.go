package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTallyBasics(t *testing.T) {
	var ta Tally
	if ta.Mean() != 0 || ta.StdDev() != 0 || ta.N() != 0 {
		t.Fatal("empty tally not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		ta.Add(x)
	}
	if ta.N() != 8 {
		t.Fatalf("n = %d", ta.N())
	}
	if math.Abs(ta.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", ta.Mean())
	}
	// Sample std dev of this classic set is sqrt(32/7).
	if math.Abs(ta.StdDev()-math.Sqrt(32.0/7)) > 1e-9 {
		t.Fatalf("stddev = %v", ta.StdDev())
	}
	if ta.Min() != 2 || ta.Max() != 9 {
		t.Fatalf("min/max = %v/%v", ta.Min(), ta.Max())
	}
}

func TestTallyProperties(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		var ta Tally
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
			ta.Add(x)
		}
		if len(xs) == 0 {
			return true
		}
		return ta.Min() <= ta.Mean()+1e-9*math.Abs(ta.Mean())+1e-9 &&
			ta.Mean() <= ta.Max()+1e-9*math.Abs(ta.Max())+1e-9 &&
			ta.StdDev() >= 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunThroughput(t *testing.T) {
	r := Run{Displays: 100, MeasureSeconds: 3600}
	if got := r.Throughput(); got != 100 {
		t.Fatalf("throughput = %v, want 100/hr", got)
	}
	r.MeasureSeconds = 1800
	if got := r.Throughput(); got != 200 {
		t.Fatalf("throughput = %v, want 200/hr", got)
	}
	if (Run{}).Throughput() != 0 {
		t.Fatal("zero-window throughput not zero")
	}
}

// TestImprovementTable4Form checks the Table 4 quantity: simple
// striping at 2.26× virtual replication is a 126% improvement.
func TestImprovementTable4Form(t *testing.T) {
	a := Run{Displays: 226, MeasureSeconds: 3600}
	b := Run{Displays: 100, MeasureSeconds: 3600}
	if got := Improvement(a, b); math.Abs(got-126) > 1e-9 {
		t.Fatalf("improvement = %v%%, want 126%%", got)
	}
	if !math.IsInf(Improvement(a, Run{MeasureSeconds: 3600}), 1) {
		t.Fatal("improvement over zero baseline should be +Inf")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"# Display Stations", "10", "20", "43.5"}}
	tbl.AddRow("16", "5.10%", "2.15%", "114.75%")
	tbl.AddRow("256", "126.10%", "602.49%", "413.10%")
	s := tbl.String()
	for _, want := range []string{"# Display Stations", "5.10%", "602.49%", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestTableRowWidthPanics(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row accepted")
		}
	}()
	tbl.AddRow("only-one")
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Header: []string{"x", "y"}}
	tbl.AddRow("1", `va"l,ue`)
	csv := tbl.CSV()
	if !strings.Contains(csv, "x,y\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, `"va""l,ue"`) {
		t.Errorf("csv quoting wrong: %q", csv)
	}
}

func TestRenderFigure(t *testing.T) {
	fig := RenderFigure("Figure 8.a", "stations", []Series{
		{Name: "striping", Points: map[int]float64{1: 1.9, 16: 30.5, 256: 390}},
		{Name: "replication", Points: map[int]float64{1: 1.9, 16: 29.0}},
	})
	if !strings.Contains(fig, "Figure 8.a") || !strings.Contains(fig, "striping") {
		t.Fatalf("figure missing labels:\n%s", fig)
	}
	// Missing point renders as "-".
	if !strings.Contains(fig, "-") {
		t.Fatalf("missing point not rendered:\n%s", fig)
	}
	// x values must appear in ascending order.
	i1 := strings.Index(fig, "\n1 ")
	i16 := strings.Index(fig, "\n16 ")
	i256 := strings.Index(fig, "\n256 ")
	if !(i1 < i16 && i16 < i256) {
		t.Fatalf("x values out of order:\n%s", fig)
	}
}
