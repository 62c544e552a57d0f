package mmis

import (
	"math"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/workload"
)

// TestPublicLayoutAPI drives the layout-planning facade end to end on
// the paper's Figure 5 configuration.
func TestPublicLayoutAPI(t *testing.T) {
	l, err := NewLayout(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !DataSkewFree(12, 1) {
		t.Error("stride 1 must be skew-free")
	}
	y, err := NewPlacement(l, 0, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewPlacement(l, 4, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Grid(12, 13, []NamedPlacement{{Name: "Y", P: y}, {Name: "X", P: x}})
	if err != nil {
		t.Fatal(err)
	}
	if g[0][0] != "Y0.0" || g[0][4] != "X0.0" {
		t.Fatalf("grid row 0 wrong: %v", g[0])
	}
	if !strings.Contains(RenderGrid(g), "Y12.0") {
		t.Error("rendering missing wrapped cell")
	}
}

func TestPublicStoreAPI(t *testing.T) {
	l, err := NewLayout(1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(l, 3000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.Place(42, 5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if p.UniqueDisks() != 1000 {
		t.Errorf("Table 3 object must touch all disks, got %d", p.UniqueDisks())
	}
	if err := st.Evict(42); err != nil {
		t.Fatal(err)
	}
	// A negative id is an argument error, not an index panic.
	small, err := NewLayout(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStore(small, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Place(-1, 1, 1); err == nil {
		t.Error("Place(-1, ...) accepted a negative id")
	}
	if _, err := ss.PlaceAt(-1, 0, 1, 1); err == nil {
		t.Error("PlaceAt(-1, ...) accepted a negative id")
	}
}

func TestPublicMediaAPI(t *testing.T) {
	if DegreeOfDeclustering(SimVideo, 20e6) != 5 {
		t.Error("Table 3 degree wrong")
	}
	if DegreeOfDeclustering(HDTV, 20e6) != 40 {
		t.Error("HDTV degree wrong")
	}
	c := NewCatalog()
	o, err := c.Add(Object{Name: "trailer", Type: NTSC, Subobjects: 100})
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != 0 || o.Name != "trailer" || c.Len() != 1 {
		t.Errorf("catalog added %v %q and holds %d objects, want id 0 \"trailer\" and 1", o.ID, o.Name, c.Len())
	}
}

func TestPublicAnalyticAPI(t *testing.T) {
	eff := EffectiveDiskBandwidth(SimulationDisk, SimulationDisk.CylinderBytes)
	if math.Abs(eff-20e6) > 0.05e6 {
		t.Errorf("effective bandwidth = %v, want ~20 mbps", eff)
	}
	if UniqueDisksUsed(100, 1, 4, 25) != 28 {
		t.Error("§3.2.2 example wrong through facade")
	}
	if MinimumBufferBytes(20e6, 0.05183, 0.01) <= 0 {
		t.Error("Equation (1) result not positive")
	}
}

// TestPublicSimulationAPI runs a reduced end-to-end simulation through
// the facade and checks the paper's headline result.
func TestPublicSimulationAPI(t *testing.T) {
	cfg := Table3Config(32, 20, 1)
	// Reduce to test scale while keeping the structure.
	cfg.D, cfg.K, cfg.M = 50, 5, 5
	cfg.CapacityFragments, cfg.Objects, cfg.Subobjects = 60, 40, 30
	cfg.WarmupIntervals, cfg.MeasureIntervals = 600, 3000

	se, err := NewSimulation(cfg, "striped")
	if err != nil {
		t.Fatal(err)
	}
	rs := se.Run()
	ve, err := NewSimulation(cfg, "vdr")
	if err != nil {
		t.Fatal(err)
	}
	rv := ve.Run()
	if rs.Hiccups != 0 || rv.Hiccups != 0 {
		t.Fatalf("hiccups: %d / %d", rs.Hiccups, rv.Hiccups)
	}
	if rs.Throughput() <= rv.Throughput() {
		t.Fatalf("striping (%v/hr) did not beat replication (%v/hr)",
			rs.Throughput(), rv.Throughput())
	}
}

func TestPublicExperimentAPI(t *testing.T) {
	byMean, err := experiment.Sweep(experiment.Quick, []float64{10}, []int{4, 16}, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := byMean[10]
	fig := experiment.Figure8Render(10, pts)
	if !strings.Contains(fig, "simple striping") {
		t.Errorf("figure rendering wrong:\n%s", fig)
	}
	tbl := experiment.Table4(byMean).String()
	if !strings.Contains(tbl, "# Display Stations") {
		t.Errorf("table rendering wrong:\n%s", tbl)
	}
}

func TestPaperConstantsExported(t *testing.T) {
	if len(workload.PaperMeans) != 3 || workload.PaperStations[len(workload.PaperStations)-1] != 256 {
		t.Fatal("paper workload constants drifted")
	}
	if SabreDisk.Cylinders != 1635 || SimulationDisk.Cylinders != 3000 {
		t.Fatal("paper drives drifted")
	}
	if SimulationTertiary.Bandwidth != 40e6 {
		t.Fatal("tertiary bandwidth drifted")
	}
}
