package media

import "testing"

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
	if a.ID != 0 || b.ID != 1 || a.Name != "a" || b.Name != "b" {
		t.Fatalf("Add assigned %v %q and %v %q, want ids 0 and 1 in order", a.ID, a.Name, b.ID, b.Name)
	}
	if _, err := c.Add(Object{Name: "bad", Type: NTSC, Subobjects: 0}); err == nil {
		t.Error("invalid object added")
	}
	if c.Len() != 2 {
		t.Errorf("catalog holds %d objects, want 2", c.Len())
	}
}

func BenchmarkDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SimVideo.Degree(bDisk20)
	}
}
