package mmis

import (
	"errors"
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
	l, err := SimpleStriping(1000, 5)
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
	if got := c.MustGet(o.ID).Name; got != "trailer" {
		t.Errorf("catalog lookup = %q", got)
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

func TestPublicDeliveryAPI(t *testing.T) {
	a, ok := ChooseVirtualDisks(8, 1, 0, 2, []int{1, 6})
	if !ok {
		t.Fatal("assignment infeasible")
	}
	d, err := NewDelivery(a, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Fatal("delivery incomplete")
	}
}

// TestPublicChooseVirtualDisksRefusesInvalidInput pins the facade's
// error contract: malformed input yields ok=false, not a panic.
func TestPublicChooseVirtualDisksRefusesInvalidInput(t *testing.T) {
	if _, ok := ChooseVirtualDisks(0, 1, 0, 1, []int{0}); ok {
		t.Error("D = 0 accepted")
	}
	if _, ok := ChooseVirtualDisks(8, 0, 0, 1, []int{0}); ok {
		t.Error("k = 0 accepted")
	}
	if _, ok := ChooseVirtualDisks(8, 1, 0, 2, []int{1, 6, 9}); ok {
		t.Error("free disk beyond D accepted")
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
	// Reproduce stops at the first write that fails.
	if err := Reproduce(failingWriter{}); !errors.Is(err, errWriteRefused) {
		t.Errorf("Reproduce into a failing writer returned %v", err)
	}
}

var errWriteRefused = errors.New("write refused")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWriteRefused }

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

func TestPublicAdvisorAPI(t *testing.T) {
	a, err := RecommendStride(1000, []int{5})
	if err != nil || a.Stride != 5 {
		t.Fatalf("advice = %+v, %v", a, err)
	}
	mixed, err := RecommendStride(12, []int{2, 3, 4})
	if err != nil || mixed.Stride != 1 {
		t.Fatalf("mixed advice = %+v, %v", mixed, err)
	}
	c, ok := RecommendFragmentCylinders(SabreDisk, 30, 10)
	if !ok || c != 1 {
		t.Fatalf("fragment advice = %d, %v", c, ok)
	}
}

func TestPublicAvailabilityAPI(t *testing.T) {
	// The tradeoff the extension quantifies: striping widens the
	// failure blast radius in exchange for Table 4's throughput.
	if BlastRadius(1000, 5, 5, 3000, 200) != 200 {
		t.Error("k=M blast radius should cover the whole database")
	}
	if got := SurvivingBandwidthFraction(1000, 1000, 5, 3000, 1); got < 0.99 {
		t.Errorf("k=D survival = %v, want ~0.995", got)
	}
	if s := PinnedLayoutSavings(SabreDisk, 2*SabreDisk.CylinderBytes); s <= 0 || s >= 0.10 {
		t.Errorf("pinned layout savings = %v, want (0, 0.10)", s)
	}
}

func TestPublicWorkloadTraceAPI(t *testing.T) {
	tr, err := ParseWorkloadTrace(strings.NewReader("1,2,3\n4,5\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stations() != 2 || tr.Draw(0) != 1 || tr.Draw(1) != 4 {
		t.Fatal("trace parsing wrong through facade")
	}
}
