// Package media defines multimedia object types and the database
// catalog: objects, their bandwidth requirements, and the
// subobject/fragment arithmetic of the paper's data model.
//
// An object X is a sequence of n equi-sized subobjects X_0..X_{n-1}.
// Each subobject is declustered into M_X fragments of a system-wide
// fixed size; M_X = ceil(B_Display(X) / B_Disk) is the object's degree
// of declustering (Table 2 of the paper).
package media

import (
	"fmt"
	"math"
)

// Mbps converts megabits/second to bits/second.
const Mbps = 1e6

// Type is a media type with a constant display-bandwidth requirement.
type Type struct {
	Name    string
	Display float64 // B_Display in bits/second
}

// Media types named in §1 of the paper.
var (
	// NTSC is "network-quality" video, about 45 mbps [Has89].
	NTSC = Type{Name: "NTSC", Display: 45 * Mbps}
	// CCIR601 is CCIR Recommendation 601 video at 216 mbps.
	CCIR601 = Type{Name: "CCIR-601", Display: 216 * Mbps}
	// HDTV is high-definition video at approximately 800 mbps.
	HDTV = Type{Name: "HDTV", Display: 800 * Mbps}
	// CDAudio is uncompressed stereo audio, a low-bandwidth type
	// (B_Display < B_Disk) exercising §3.2.3.
	CDAudio = Type{Name: "CD-audio", Display: 1.4 * Mbps}
	// SimVideo is the single media type of the §4 simulation:
	// 100 mbps, M = 5 at 20 mbps disks.
	SimVideo = Type{Name: "sim-video", Display: 100 * Mbps}
)

// Degree returns M_X = ceil(B_Display / B_Disk), the number of disks a
// subobject of this type is declustered across.
func (t Type) Degree(bDisk float64) int {
	if bDisk <= 0 {
		panic("media: non-positive disk bandwidth")
	}
	return int(math.Ceil(t.Display / bDisk))
}

// LogicalDegree returns the number of half-bandwidth logical disks
// (§3.2.3) needed: ceil(B_Display / (B_Disk/2)).  Low-bandwidth and
// non-multiple objects waste less bandwidth under this allocation;
// e.g. B_Display = 3/2·B_Disk occupies exactly 3 logical disks.
func (t Type) LogicalDegree(bDisk float64) int {
	if bDisk <= 0 {
		panic("media: non-positive disk bandwidth")
	}
	return int(math.Ceil(t.Display / (bDisk / 2)))
}

// WastedBandwidthFraction returns the fraction of the allocated whole
// disks' bandwidth that the object cannot use because the allocation
// is an integral number of disks.  §3.2.3: a 30 mbps object on 20 mbps
// disks wastes 25% of two disks.
func (t Type) WastedBandwidthFraction(bDisk float64) float64 {
	m := float64(t.Degree(bDisk))
	return (m*bDisk - t.Display) / (m * bDisk)
}

// ObjectID identifies an object in the catalog.
type ObjectID int

// Object is a multimedia object in the database.
type Object struct {
	ID         ObjectID
	Name       string
	Type       Type
	Subobjects int // number of subobjects (stripes)
}

// Validate reports whether the object is well-formed.
func (o Object) Validate() error {
	if o.Subobjects <= 0 {
		return fmt.Errorf("media: object %q has %d subobjects, need at least 1", o.Name, o.Subobjects)
	}
	if o.Type.Display <= 0 {
		return fmt.Errorf("media: object %q has non-positive display bandwidth", o.Name)
	}
	return nil
}

// Degree returns the object's degree of declustering for the given
// effective disk bandwidth.
func (o Object) Degree(bDisk float64) int { return o.Type.Degree(bDisk) }

// Fragments returns the total number of fragments the object occupies:
// Subobjects × M_X.
func (o Object) Fragments(bDisk float64) int {
	return o.Subobjects * o.Degree(bDisk)
}

// SizeBytes returns the object's total size given the system fragment
// size in bytes.
func (o Object) SizeBytes(bDisk, fragmentBytes float64) float64 {
	return float64(o.Fragments(bDisk)) * fragmentBytes
}

// DisplaySeconds returns the time to display the object: each
// subobject takes one time interval of fragmentBytes·8/B_Disk.
func (o Object) DisplaySeconds(bDisk, fragmentBytes float64) float64 {
	return float64(o.Subobjects) * fragmentBytes * 8 / bDisk
}

// Catalog is the database of objects, indexed by ObjectID.
type Catalog struct {
	objects []Object
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{} }

// Add appends an object and assigns its ID.  The returned Object has
// its ID populated.
func (c *Catalog) Add(o Object) (Object, error) {
	if err := o.Validate(); err != nil {
		return Object{}, err
	}
	o.ID = ObjectID(len(c.objects))
	c.objects = append(c.objects, o)
	return o, nil
}

// Get returns the object with the given ID.
func (c *Catalog) Get(id ObjectID) (Object, error) {
	if int(id) < 0 || int(id) >= len(c.objects) {
		return Object{}, fmt.Errorf("media: no object with id %d", id)
	}
	return c.objects[id], nil
}

// MustGet is Get for ids known to be valid; it panics otherwise.
func (c *Catalog) MustGet(id ObjectID) Object {
	o, err := c.Get(id)
	if err != nil {
		panic(err)
	}
	return o
}

// Len returns the number of objects in the catalog.
func (c *Catalog) Len() int { return len(c.objects) }

// All returns the objects in ID order.  The caller must not mutate the
// returned slice.
func (c *Catalog) All() []Object { return c.objects }
