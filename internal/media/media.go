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

// Len returns the number of objects in the catalog.
func (c *Catalog) Len() int { return len(c.objects) }
