package media

import (
	"math"
	"testing"
	"testing/quick"
)

const bDisk20 = 20 * Mbps

func TestDegreeExamples(t *testing.T) {
	cases := []struct {
		display float64 // mbps
		want    int
	}{
		{60, 3},  // §1 example: 60 mbps needs 3 disks at 20 mbps
		{120, 6}, // §3.1: M_Y = 6
		{100, 5}, // Table 3: M = 5
		{40, 2},  // Figure 5: M_Z = 2
		{80, 4},  // Figure 5: M_Y = 4
		{45, 3},  // NTSC rounds up
		{30, 2},  // §3.2.3 example
		{1.4, 1}, // audio still needs one whole disk
	}
	for _, c := range cases {
		typ := Type{Name: "t", Display: c.display * Mbps}
		if got := typ.Degree(bDisk20); got != c.want {
			t.Errorf("Degree(%v mbps) = %d, want %d", c.display, got, c.want)
		}
	}
}

func TestDegreePanicsOnBadDisk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Degree with zero disk bandwidth did not panic")
		}
	}()
	NTSC.Degree(0)
}

func TestPaperMediaTypes(t *testing.T) {
	if NTSC.Display != 45*Mbps || CCIR601.Display != 216*Mbps || HDTV.Display != 800*Mbps {
		t.Fatal("§1 media-type bandwidths drifted from the paper")
	}
	if SimVideo.Degree(bDisk20) != 5 {
		t.Fatal("Table 3 media type must have M = 5")
	}
}

// TestLowBandwidthLogicalDisks reproduces the §3.2.3 examples.
func TestLowBandwidthLogicalDisks(t *testing.T) {
	// "an object that has B_Display = 3/2 B_Disk can be exactly
	// accommodated with no loss due to rounding up"
	obj32 := Type{Name: "3/2", Display: 1.5 * bDisk20}
	if got := obj32.LogicalDegree(bDisk20); got != 3 {
		t.Errorf("3/2·B_Disk object needs %d logical disks, want 3", got)
	}
	// "an object requiring 30 mbps when B_Disk = 20 would waste 25
	// percent of the bandwidth of the two disks used per interval"
	obj30 := Type{Name: "30mbps", Display: 30 * Mbps}
	if got := obj30.WastedBandwidthFraction(bDisk20); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("whole-disk waste = %v, want 0.25", got)
	}
	// Two half-bandwidth objects share one disk exactly.
	half := Type{Name: "half", Display: 10 * Mbps}
	if got := half.LogicalDegree(bDisk20); got != 1 {
		t.Errorf("half-bandwidth object needs %d logical disks, want 1", got)
	}
}

func TestLogicalDegreeNeverWorse(t *testing.T) {
	// Logical (half-disk) allocation never wastes more bandwidth than
	// whole-disk allocation.
	err := quick.Check(func(raw uint16) bool {
		display := float64(raw%4000+1) / 10 * Mbps
		typ := Type{Name: "q", Display: display}
		whole := float64(typ.Degree(bDisk20)) * bDisk20
		logical := float64(typ.LogicalDegree(bDisk20)) * bDisk20 / 2
		return logical <= whole+1e-9 && logical >= display-1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestObjectValidate(t *testing.T) {
	if err := (Object{Name: "x", Type: NTSC, Subobjects: 0}).Validate(); err == nil {
		t.Error("zero subobjects accepted")
	}
	if err := (Object{Name: "x", Type: Type{}, Subobjects: 1}).Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := (Object{Name: "x", Type: NTSC, Subobjects: 1}).Validate(); err != nil {
		t.Errorf("valid object rejected: %v", err)
	}
}

// TestTable3ObjectGeometry checks the simulation object: 3000
// subobjects, M=5, fragment = 1.512 MB cylinder → 22.68 GB, 1814 s
// display time.
func TestTable3ObjectGeometry(t *testing.T) {
	const fragBytes = 1512000.0
	o := Object{Name: "x", Type: SimVideo, Subobjects: 3000}
	if got := o.Fragments(bDisk20); got != 15000 {
		t.Errorf("fragments = %d, want 15000", got)
	}
	if got := o.SizeBytes(bDisk20, fragBytes); math.Abs(got-22.68e9) > 1e6 {
		t.Errorf("size = %v, want 22.68 GB", got)
	}
	if got := o.DisplaySeconds(bDisk20, fragBytes); math.Abs(got-1814.4) > 0.1 {
		t.Errorf("display time = %v s, want 1814.4", got)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if c.Len() != 0 {
		t.Fatal("new catalog not empty")
	}
	a, err := c.Add(Object{Name: "a", Type: NTSC, Subobjects: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Add(Object{Name: "b", Type: HDTV, Subobjects: 20})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("catalog assigned duplicate IDs")
	}
	got, err := c.Get(a.ID)
	if err != nil || got.Name != "a" {
		t.Fatalf("Get(%v) = %v, %v", a.ID, got, err)
	}
	if _, err := c.Get(ObjectID(99)); err == nil {
		t.Error("out-of-range Get succeeded")
	}
	if _, err := c.Get(ObjectID(-1)); err == nil {
		t.Error("negative Get succeeded")
	}
	if _, err := c.Add(Object{Name: "bad", Type: NTSC, Subobjects: 0}); err == nil {
		t.Error("invalid object added")
	}
	if got := c.MustGet(b.ID); got.Name != "b" {
		t.Error("MustGet returned wrong object")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on empty catalog did not panic")
		}
	}()
	NewCatalog().MustGet(0)
}

func BenchmarkDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SimVideo.Degree(bDisk20)
	}
}
